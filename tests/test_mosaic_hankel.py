import random

import pytest

from helpers import (
    dense_build_A,
    displacement_of_dense,
    generator_product,
    kernel_basis,
    pack_solution,
    random_approx_instance,
    spread_seeds,
)
from mvinterp.approx import ApproxInstance, trim_instance, unpack_solution, verify_approx
from mvinterp.backend import solve_approx
from mvinterp.errors import TooLarge
from mvinterp.field import FieldCtx, prime_field, residues
from mvinterp.linalg import matrix_rank
from mvinterp.mosaic_hankel import (
    build_hankel_generators,
    compute_s_star,
    layout_for,
)
from mvinterp.outcomes import NoSolution, Solution
from mvinterp.poly import Poly, poly_mod, reverse, trunc

F13 = prime_field(13)
F65537 = prime_field(65537)


def P13(*coefs):
    return Poly(F13, [F13.el(c) for c in coefs])


def single_block_instance(ctx=F13, bound=1):
    # P = X^2, F = X, one unknown of degree < bound
    P = Poly(ctx, [ctx.zero(), ctx.zero(), ctx.one()])
    F = Poly(ctx, [ctx.zero(), ctx.one()])
    return ApproxInstance(ctx, (P,), ((F,),), (bound,))


def naive_condition_matrix(a):
    """Columns are coefficients of X^v * F_{i,j} mod P_i — the linear map
    whose kernel is, by definition, the solution set."""
    rows = [[a.ctx.zero()] * a.total_cols for _ in range(a.total_rows)]
    r0 = 0
    for i, p in enumerate(a.moduli):
        c0 = 0
        for j, bound in enumerate(a.col_bounds):
            for v in range(bound):
                g = poly_mod(a.residues[i][j] * Poly(a.ctx, [a.ctx.zero()] * v + [a.ctx.one()]), p)
                for u in range(p.deg):
                    rows[r0 + u][c0 + v] = g.coeff(u)
            c0 += bound
        r0 += p.deg
    return rows


def mat_vec(rows, x, ctx):
    return [sum((a * b for a, b in zip(r, x)), ctx.zero()) for r in rows]


# ----------------------------------------------------------------- layout


def test_layout_invariants():
    for seed in spread_seeds(301, 25):
        rng = random.Random(seed)
        a = random_approx_instance(F13, rng)
        lay = layout_for(a)
        assert all(g >= 0 for g in lay.gammas)
        assert all(d >= m for d, m in zip(lay.deltas, a.row_bounds))
        assert list(lay.row_offsets) == sorted(set(lay.row_offsets))
        assert list(lay.col_offsets) == sorted(set(lay.col_offsets))
        assert lay.row_offsets[0] == 0
        assert lay.col_offsets[-1] == a.total_cols - 1


# ----------------------------------------------------------------- s_star


def test_s_star_worked_example():
    a = single_block_instance()
    s = compute_s_star(a)
    assert s[0][0] == P13(1)  # rev(X)/rev(X^2) = 1/1


def test_s_star_zero_residue():
    ctx = F13
    P = Poly(ctx, [ctx.one(), ctx.zero(), ctx.one()])  # X^2 + 1
    a = ApproxInstance(ctx, (P,), ((Poly.zero(ctx),),), (3,))
    assert compute_s_star(a)[0][0].is_zero()


def test_s_star_multiply_back_identity():
    # shifted-series reconstruction: X^gamma_j * rev(F) = S * rev(P) mod X^delta_i
    for seed in spread_seeds(307, 40):
        rng = random.Random(seed)
        a = random_approx_instance(F13, rng)
        lay = layout_for(a)
        s_star = compute_s_star(a)
        for i, p in enumerate(a.moduli):
            p_rev = reverse(p, p.deg)
            for j, f in enumerate(a.residues[i]):
                f_rev = reverse(f, p.deg - 1)
                S = s_star[i][j].shift(lay.gammas[j])
                lhs = trunc(f_rev.shift(lay.gammas[j]), lay.deltas[i])
                rhs = trunc(S * p_rev, lay.deltas[i])
                assert lhs == rhs


# ----------------------------------------------------------------- dense A


def test_dense_worked_example():
    a = single_block_instance()
    A = dense_build_A(a)
    assert [[e.c[0] for e in row] for row in A] == [[1], [0]]


def test_dense_zero_instance():
    ctx = F13
    P = Poly(ctx, [ctx.zero(), ctx.one()])  # X
    a = ApproxInstance(ctx, (P, P), ((Poly.zero(ctx),), (Poly.zero(ctx),)), (2,))
    A = dense_build_A(a)
    assert all(e.is_zero() for row in A for e in row)


def test_dense_guard():
    ctx = F65537
    P = Poly(ctx, [ctx.zero()] * 1200 + [ctx.one()])
    a = ApproxInstance(ctx, (P,), ((Poly.zero(ctx),),), (1200,))
    with pytest.raises(TooLarge):
        dense_build_A(a)


def test_dense_kernel_is_solution_space():
    # the mosaic matrix and the defining linear map have identical kernels
    for seed in spread_seeds(311, 40):
        rng = random.Random(seed)
        a = random_approx_instance(F13, rng)
        A = dense_build_A(a)
        D = naive_condition_matrix(a)
        n = a.total_cols
        basis_A = kernel_basis(F13, A, n)
        basis_D = kernel_basis(F13, D, n)
        assert len(basis_A) == len(basis_D)
        for v in basis_A:
            assert all(e.is_zero() for e in mat_vec(D, v, F13))
            qs = unpack_solution(F13, residues(F13).array(v), a.col_bounds)
            assert verify_approx(a, qs)
        for v in basis_D:
            assert all(e.is_zero() for e in mat_vec(A, v, F13))


def test_dense_annihilates_known_solution():
    # q made of the moduli themselves is killed when bounds allow it
    ctx = F13
    P = P13(12, 0, 1)  # X^2 - 1
    F = P13(0, 1)
    a = ApproxInstance(ctx, (P,), ((F,),), (3,))
    qs = (P,)  # F*P = 0 mod P
    assert verify_approx(a, qs)
    A = dense_build_A(a)
    vec = pack_solution(qs, a.col_bounds)
    assert all(e.is_zero() for e in mat_vec(A, vec, ctx))


# ----------------------------------------------------------------- generator


def test_generator_worked_example():
    a = single_block_instance()
    G, lay = build_hankel_generators(a)
    assert (G.nrows, G.ncols, G.alpha, G.tag) == (2, 1, 2, "hankel")
    A = dense_build_A(a)
    assert generator_product(G) == displacement_of_dense("hankel", A, F13)


def test_generator_zero_residues():
    ctx = F13
    P = P13(5, 1, 1)
    a = ApproxInstance(ctx, (P,), ((Poly.zero(ctx), Poly.zero(ctx)),), (2, 1))
    G, _ = build_hankel_generators(a)
    prod = generator_product(G)
    assert all(e.is_zero() for row in prod for e in row)


@pytest.mark.parametrize(
    "ctx",
    [
        F13,
        prime_field(16777213),
        prime_field(2**61 - 1),
        FieldCtx(13, (6, 12, 6, 0, 1)),
        FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
    ],
    ids=["F13", "P24", "M61", "F13^4", "GF256"],
)
def test_generator_matches_displacement_randomly(ctx):
    for seed in spread_seeds(313, 60):
        rng = random.Random(seed)
        a = random_approx_instance(ctx, rng)
        G, _ = build_hankel_generators(a)
        assert G.alpha == a.mu + a.nu
        A = dense_build_A(a)
        disp = displacement_of_dense("hankel", A, ctx)
        assert generator_product(G) == disp
        assert matrix_rank(ctx, disp, a.total_cols) <= a.mu + a.nu


# ----------------------------------------------------------------- solving


def test_solve_worked_nosolution():
    a = single_block_instance()
    out = solve_approx(a, random.Random(0), "hankel")
    assert isinstance(out, NoSolution)


def test_solve_only_solution_is_multiple_of_x():
    # q*X = 0 mod X^2 with deg q < 2 forces q proportional to X
    a = single_block_instance(bound=2)
    out = solve_approx(a, random.Random(1), "hankel")
    assert isinstance(out, Solution)
    (q,) = out.value
    assert q.coeff(0).is_zero() and not q.coeff(1).is_zero()


def test_solve_underdetermined_always_solves():
    for seed in spread_seeds(317, 20):
        rng = random.Random(seed)
        a = random_approx_instance(F13, rng, max_mu=2, max_moddeg=3)
        trimmed, _, _ = trim_instance(a)
        if trimmed.total_cols <= trimmed.total_rows:
            continue
        out = solve_approx(a, rng, "hankel")
        assert isinstance(out, Solution)
        assert verify_approx(a, out.value)


def test_solve_structured_path_agrees_with_dense_verdict():
    hits = {True: 0, False: 0}
    for seed in spread_seeds(331, 50):
        rng = random.Random(seed)
        a = random_approx_instance(F65537, rng, max_mu=2, max_nu=3, max_moddeg=3)
        out = solve_approx(a, rng, "hankel")
        A = dense_build_A(a)
        solvable = matrix_rank(F65537, A, a.total_cols) < a.total_cols
        hits[solvable] += 1
        if solvable:
            assert isinstance(out, Solution)
            assert verify_approx(a, out.value)
        else:
            assert isinstance(out, NoSolution)
    assert hits[True] and hits[False]


def test_solve_small_field_structured_raises():
    # F_13 is far below the sampling-set floor of this 20x21 system: the
    # route samples the whole field and never refuses it
    ctx = F13
    P = Poly(ctx, [ctx.zero()] * 20 + [ctx.one()])
    a = ApproxInstance(ctx, (P,), ((P13(0, 1),),), (21,))
    out = solve_approx(a, random.Random(0), "hankel")
    if isinstance(out, Solution):
        assert verify_approx(a, out.value)
    elif isinstance(out, NoSolution):
        assert matrix_rank(ctx, dense_build_A(a), a.total_cols) == a.total_cols