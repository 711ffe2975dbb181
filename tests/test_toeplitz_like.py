import random

import pytest

from helpers import (
    displacement_of_dense,
    extend_recurrence,
    generator_product,
    kernel_basis,
    markov_tops,
    pack_solution,
    random_approx_instance,
    random_interp_instance,
    random_monic,
    random_poly,
    spread_seeds,
)
from mvinterp.approx import ApproxInstance, verify_approx
from mvinterp.apps import solve_approx
from mvinterp.errors import TooLarge
from mvinterp.field import FieldCtx, prime_field
from mvinterp.linalg import matrix_rank
from mvinterp.outcomes import NoSolution, Solution
from mvinterp.poly import Poly, poly_mod
from mvinterp.reduction import build_reduction
from mvinterp.toeplitz_like import build_toeplitz_generators, dense_build_Aprime

F13 = prime_field(13)
F65537 = prime_field(65537)
F13_4 = FieldCtx(13, (6, 12, 6, 0, 1))
GF256 = FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))


def P13(*coefs):
    return Poly(F13, [F13.el(c) for c in coefs])


def xsq_instance(bound):
    P = Poly(F13, [F13.zero(), F13.zero(), F13.one()])
    F = Poly(F13, [F13.zero(), F13.one()])
    return ApproxInstance(F13, (P,), ((F,),), (bound,))


def naive_tops(P, F, count):
    return tuple(poly_mod(F.shift(i), P).coeff(P.deg - 1) for i in range(count))


def mat_vec(rows, x, ctx):
    return [sum((a * b for a, b in zip(r, x)), ctx.zero()) for r in rows]


def builder_instances(base, count):
    """The builders' test inputs: a random instance per seed over F_13,
    then over F_13^4 and GF(2^8), then count // 4 build_reduction outputs
    over F_13 with multiplicities up to 3 in which some derivative depth
    has several rows sharing one modulus object."""
    seeds = spread_seeds(base, count)
    for ctx in (F13, F13_4, GF256):
        for seed in seeds:
            yield random_approx_instance(ctx, random.Random(seed))
    rng, made = random.Random(base), 0
    while made < count // 4:
        inst = random_interp_instance(13, rng, max_n=5, allow_negative_weights=False)
        _, a = build_reduction(inst)
        if a.total_rows + a.total_cols <= 60 and any(len(F) > 1 for _, F in a.blocks()):
            yield a
            made += 1


# ------------------------------------------------------- top coefficients


def test_tops_cycle_example():
    seq = markov_tops(P13(12, 0, 1), P13(1), 4)  # X^2 - 1, F = 1
    assert [e.c[0] for e in seq] == [0, 1, 0, 1]


def test_tops_leading_monomial():
    for m in (1, 2, 5):
        P = Poly(F13, [F13.el(3)] * m + [F13.one()])
        F = Poly(F13, [F13.zero()] * (m - 1) + [F13.one()])
        assert markov_tops(P, F, 1) == (F13.one(),)


def test_tops_against_naive():
    for seed in spread_seeds(401, 150):
        rng = random.Random(seed)
        P = random_monic(F13, rng.randint(1, 6), rng)
        F = random_poly(F13, P.deg, rng)
        n = rng.randint(1, 12)
        seq = markov_tops(P, F, n)
        assert seq == naive_tops(P, F, n)
        if n >= P.deg:  # the tops follow the m-term recurrence of P
            assert list(seq) == extend_recurrence(seq[: P.deg], P, n)


# ------------------------------------------------------------- dense matrix


def test_dense_worked_example():
    A = dense_build_Aprime(xsq_instance(2))
    assert [[e.c[0] for e in r] for r in A] == [[0, 0], [1, 0]]
    v = [F13.zero(), F13.one()]  # Q = X
    assert all(e.is_zero() for e in mat_vec(A, v, F13))


def test_dense_unit_column():
    P = P13(4, 1, 0, 1)
    a = ApproxInstance(F13, (P,), ((P13(1),),), (1,))
    A = dense_build_Aprime(a)
    assert [[e.c[0] for e in r] for r in A] == [[1], [0], [0]]


def test_dense_matches_definition():
    # column v + 1 of block (i, j) is X times column v less its top
    # coefficient times P_i (the companion action), with no division
    for a in builder_instances(409, 40):
        A = dense_build_Aprime(a)
        r0 = 0
        for i, p in enumerate(a.moduli):
            c0 = 0
            for j, bound in enumerate(a.col_bounds):
                g = a.residues[i][j]
                for v in range(bound):
                    for u in range(p.deg):
                        assert A[r0 + u][c0 + v] == g.coeff(u)
                    g = g.shift(1) - p.scale(g.coeff(p.deg - 1))
                c0 += bound
            r0 += p.deg


def test_dense_guard():
    ctx = F65537
    P = Poly(ctx, [ctx.zero()] * 1200 + [ctx.one()])
    a = ApproxInstance(ctx, (P,), ((Poly.zero(ctx),),), (1200,))
    with pytest.raises(TooLarge):
        dense_build_Aprime(a)


def test_dense_annihilates_verified_solution():
    P = P13(12, 0, 1)
    a = ApproxInstance(F13, (P,), ((P13(0, 1),),), (3,))
    qs = (P,)
    assert verify_approx(a, qs)
    A = dense_build_Aprime(a)
    assert all(e.is_zero() for e in mat_vec(A, pack_solution(qs, a.col_bounds), F13))


# -------------------------------------------------------------- generators


def test_generator_worked_example():
    a = xsq_instance(2)
    G = build_toeplitz_generators(a)
    assert (G.nrows, G.ncols, G.alpha, G.tag) == (2, 2, 2, "toeplitz")
    A = dense_build_Aprime(a)
    assert generator_product(G) == displacement_of_dense("toeplitz", A, F13)


def test_generator_zero_residues():
    P = P13(5, 1, 1)
    a = ApproxInstance(F13, (P, P13(0, 1)), ((Poly.zero(F13),), (Poly.zero(F13),)), (2,))
    G = build_toeplitz_generators(a)
    A = dense_build_Aprime(a)
    assert generator_product(G) == displacement_of_dense("toeplitz", A, F13)


def test_generator_matches_displacement_randomly():
    for a in builder_instances(419, 60):
        G = build_toeplitz_generators(a)
        assert G.alpha == a.mu + a.nu
        A = dense_build_Aprime(a)
        disp = displacement_of_dense("toeplitz", A, a.ctx)
        assert generator_product(G) == disp
        assert matrix_rank(a.ctx, disp, a.total_cols) <= a.mu + a.nu


def test_block_last_rows_match_tops():
    for seed in spread_seeds(421, 20):
        rng = random.Random(seed)
        a = random_approx_instance(F13, rng, max_mu=2, max_nu=2)
        A = dense_build_Aprime(a)
        r0 = 0
        for i, p in enumerate(a.moduli):
            c0 = 0
            last = r0 + p.deg - 1
            for j, bound in enumerate(a.col_bounds):
                tops = markov_tops(p, a.residues[i][j], bound)
                assert tuple(A[last][c0 : c0 + bound]) == tops
                c0 += bound
            r0 += p.deg


# ----------------------------------------------------------------- solving


def test_solve_worked_examples():
    out = solve_approx(xsq_instance(1), random.Random(0), "toeplitz")
    assert isinstance(out, NoSolution)
    out = solve_approx(xsq_instance(2), random.Random(1), "toeplitz")
    assert isinstance(out, Solution)
    (q,) = out.value
    assert q.coeff(0).is_zero() and not q.coeff(1).is_zero()


def test_solve_structured_agrees_with_dense_verdict():
    for seed in spread_seeds(431, 50):
        rng = random.Random(seed)
        a = random_approx_instance(F65537, rng, max_mu=2, max_nu=3, max_moddeg=3)
        out = solve_approx(a, rng, "toeplitz")
        A = dense_build_Aprime(a)
        if matrix_rank(F65537, A, a.total_cols) < a.total_cols:
            assert isinstance(out, Solution)
            assert verify_approx(a, out.value)
        else:
            assert isinstance(out, NoSolution)


def test_cross_route_verdict_agreement():
    # F_13 is below the sampling-set floor of most of these instances, so
    # the kernel of each route lifts a Failure there
    for seed in spread_seeds(433, 100):
        rng = random.Random(seed)
        a = random_approx_instance(F13, rng)
        o1 = solve_approx(a, random.Random(seed), "toeplitz")
        o2 = solve_approx(a, random.Random(seed), "hankel")
        assert type(o1) is type(o2)
        if isinstance(o1, Solution):
            assert verify_approx(a, o1.value)
            assert verify_approx(a, o2.value)


def test_solve_via_dense_deterministic_and_correct():
    for seed in spread_seeds(439, 40):
        rng = random.Random(seed)
        a = random_approx_instance(F13, rng)
        out1 = solve_approx(a, None, "dense")
        out2 = solve_approx(a, random.Random(0), "dense", max_retries=5)
        assert type(out1) is type(out2)
        A = dense_build_Aprime(a)
        solvable = matrix_rank(F13, A, a.total_cols) < a.total_cols
        if solvable:
            assert isinstance(out1, Solution)
            assert out1.value == out2.value
            assert verify_approx(a, out1.value)
        else:
            assert isinstance(out1, NoSolution)
