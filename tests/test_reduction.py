import random

import pytest

from mvinterp.approx import unpack_solution, verify_approx
from mvinterp.errors import DegreeViolation, DuplicateNode, NoSolutionSpace
from mvinterp.field import FieldCtx, prime_field, residues
from mvinterp.outcomes import NoSolution, NotApplicable, Solution
from mvinterp.poly import Poly, poly_divrem
from mvinterp.reduction import (
    InterpolationInstance,
    MultiPoly,
    assemble_Q,
    binom_mod,
    build_reduction,
    graded_exponents,
    multi_binom,
    preprocess_high_multiplicity,
    trivial_weight_check,
    verify_solution,
)

from mvinterp.toeplitz_like import dense_build_Aprime

from helpers import (
    from_ints,
    hasse_shift_expand,
    kernel_basis,
    random_interp_instance,
    random_monic,
    random_poly,
    spread_seeds,
)

F13 = prime_field(13)


def P13(*ints):
    return from_ints(F13, ints)


def mk_inst(F, pts, mults, ydeg, wdeg, weights, **kw):
    points = tuple((F.el(x), tuple(F.el(y) for y in ys)) for x, *ys in [p for p in pts])
    return InterpolationInstance(F, len(weights), ydeg, wdeg, weights, points, mults, **kw)


# the running worked example: three points on y = x^2 + 1 over F_13
INST13 = mk_inst(F13, [(0, 1), (1, 2), (2, 5)], (1, 1, 1), 1, 3, (1,))
Q13 = MultiPoly(F13, 1, {(1,): P13(1), (0,): P13(12, 0, 12)})  # Y - (X^2+1)


# ---------------------------------------------------------------- indices & binomials


def test_graded_order():
    assert graded_exponents(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert graded_exponents(1, 3, strict=True) == [(0,), (1,), (2,)]


def test_binom_mod():
    assert binom_mod(F13, 5, 2) == F13.el(10)
    assert binom_mod(F13, 4, 7) == F13.zero()
    F2 = prime_field(2)
    assert binom_mod(F2, 2, 1) == F2.zero()  # 2 = 0 mod 2
    assert binom_mod(F2, 4, 2) == F2.zero()  # 6 = 0 mod 2
    assert multi_binom(F13, (2, 3), (1, 1)) == F13.el(6)


# ---------------------------------------------------------------- instance validation


def test_instance_rejects_duplicate_x():
    with pytest.raises(DuplicateNode):
        mk_inst(F13, [(1, 2), (1, 3)], (1, 1), 1, 3, (1,))
    # the soft-grouping path opts in explicitly
    inst = mk_inst(F13, [(1, 2), (1, 3)], (1, 1), 1, 3, (1,), allow_duplicate_x=True)
    assert inst.n == 2


# ---------------------------------------------------------------- shift expansion


def test_shift_expand_no_shift():
    Q = MultiPoly(F13, 1, {(2,): P13(1)})  # Y^2
    out = hasse_shift_expand(Q, (F13.el(0), (F13.el(0),)))
    assert out == {(0, (2,)): F13.el(1)}


def test_shift_expand_char2():
    F2 = prime_field(2)
    Q = MultiPoly(F2, 1, {(2,): from_ints(F2, [1])})
    out = hasse_shift_expand(Q, (F2.el(0), (F2.el(1),)))
    # (Y+1)^2 = Y^2 + 1 in characteristic 2
    assert out == {(0, (2,)): F2.el(1), (0, (0,)): F2.el(1)}


def test_shift_expand_worked_example():
    out = hasse_shift_expand(Q13, (F13.el(1), (F13.el(2),)))
    # Q(X+1, Y+2) = Y - X^2 - 2X
    assert out == {
        (0, (1,)): F13.el(1),
        (1, (0,)): F13.el(11),
        (2, (0,)): F13.el(12),
    }
    assert (0, (0,)) not in out  # vanishes at the point


# ---------------------------------------------------------------- verify_solution


def test_verify_worked_example():
    assert verify_solution(INST13, Q13)
    assert not verify_solution(INST13, MultiPoly.zero(F13, 1))
    # wdeg = 2 + 1*1 = 3, not < 3
    assert not verify_solution(INST13, MultiPoly(F13, 1, {(1,): P13(0, 0, 1)}))
    # Y-degree too high
    assert not verify_solution(INST13, MultiPoly(F13, 1, {(2,): P13(1)}))


def test_verify_multiplicity_two():
    # (Y - X)^2 vanishes with multiplicity 2 on y = x
    inst = mk_inst(F13, [(0, 0), (1, 1), (2, 2)], (2, 2, 2), 2, 5, (1,))
    Q = MultiPoly(F13, 1, {(2,): P13(1), (1,): P13(0, 11), (0,): P13(0, 0, 1)})
    assert verify_solution(inst, Q)
    # Y - X vanishes only to order 1
    assert not verify_solution(inst, MultiPoly(F13, 1, {(1,): P13(1), (0,): P13(0, 12)}))


def test_verify_matches_full_expansion():
    rng = random.Random(31)
    F = prime_field(101)
    for _ in range(30):
        s = rng.randrange(1, 3)
        n = rng.randrange(1, 4)
        xs = rng.sample(range(101), n)
        pts = [(x, *[rng.randrange(101) for _ in range(s)]) for x in xs]
        mults = tuple(rng.randrange(1, 3) for _ in range(n))
        ydeg = rng.randrange(1, 3)
        weights = tuple(rng.randrange(-1, 3) for _ in range(s))
        inst = mk_inst(F, pts, mults, ydeg, 8, weights)
        terms = {}
        for j in graded_exponents(s, ydeg):
            if rng.random() < 0.5:
                terms[j] = from_ints(F, [rng.randrange(101) for _ in range(rng.randrange(1, 4))])
        Q = MultiPoly(F, s, terms)
        if Q.is_zero() or Q.wdeg(weights) >= 8:
            continue
        by_expansion = all(
            all(h + sum(i) >= m_r for (h, i) in hasse_shift_expand(Q, pt))
            for pt, m_r in zip(inst.points, inst.mults)
        )
        assert verify_solution(inst, Q) == by_expansion


def _mp_mul(A, B):
    terms = {}
    for ja, qa in A.terms.items():
        for jb, qb in B.terms.items():
            j = tuple(u + v for u, v in zip(ja, jb))
            terms[j] = terms.get(j, Poly.zero(A.ctx)) + qa * qb
    return MultiPoly(A.ctx, A.nvars, terms)


def _mp_pow(A, e):
    out = MultiPoly(A.ctx, A.nvars, {(0,) * A.nvars: Poly.one(A.ctx)})
    for _ in range(e):
        out = _mp_mul(out, A)
    return out


@pytest.mark.parametrize(
    "ctx",
    [
        FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1)),  # GF(2^8)
        FieldCtx(3, (1, 0, 1)),  # F_9
        prime_field(2147483659),  # first prime above 2^31
        # int64 residues, Python-int sums once deg Q >= 1 or >= 4
        prime_field(2**31 - 1),
        prime_field(998244353),
    ],
)
def test_verify_matches_full_expansion_every_field(ctx):
    # points on Y_1 = R_1(X), Y_2 = R_2(X); (Y_1 - R_1)^a (Y_2 - R_2)^b f(X)
    # vanishes to order at least a + b there, so mixed multiplicities around
    # a + b give accepted and rejected Q alike
    rng = random.Random(ctx.order)
    verdicts = []
    for _ in range(8):
        n = rng.randint(1, 4)
        xs = [ctx.from_index(i) for i in rng.sample(range(min(ctx.order, 10**6)), n)]
        rs = [random_poly(ctx, rng.randint(1, 3), rng) for _ in range(2)]
        points = tuple((x, (rs[0].eval(x), rs[1].eval(x))) for x in xs)
        a, b = rng.randint(0, 2), rng.randint(1, 2)
        lines = [
            MultiPoly(ctx, 2, {(1, 0): Poly.one(ctx), (0, 0): -rs[0]}),
            MultiPoly(ctx, 2, {(0, 1): Poly.one(ctx), (0, 0): -rs[1]}),
        ]
        Q = _mp_mul(_mp_pow(lines[0], a), _mp_pow(lines[1], b))
        Q = Q.mul_univariate(random_poly(ctx, 2, rng, exact=True))
        if rng.random() < 0.3:  # a term that breaks order 0 somewhere
            Q = MultiPoly(ctx, 2, {**Q.terms, (0, 0): Q.coeff((0, 0)) + random_poly(ctx, 2, rng)})
        mults = tuple(rng.randint(1, a + b + 1) for _ in range(n))
        inst = InterpolationInstance(ctx, 2, 4, 40, (1, 1), points, mults)
        if Q.is_zero():
            continue
        by_expansion = all(
            all(h + sum(i) >= m_r for (h, i) in hasse_shift_expand(Q, pt))
            for pt, m_r in zip(inst.points, inst.mults)
        )
        assert verify_solution(inst, Q) == by_expansion
        verdicts.append(by_expansion)
    assert any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------- preprocessing


def test_preprocess_identity():
    inst2, mult = preprocess_high_multiplicity(INST13)
    assert inst2 is INST13 and mult == Poly.one(F13)


def test_preprocess_caps_multiplicity():
    inst = mk_inst(F13, [(0, 5)], (3,), 1, 10, (1,))
    capped, mult = preprocess_high_multiplicity(inst)
    assert mult == P13(0, 0, 1)  # X^2
    assert capped.mults == (1,)
    assert capped.wdeg_bound == 8


def test_preprocess_roundtrip_verdicts():
    rng = random.Random(7)
    inst = mk_inst(F13, [(0, 1), (1, 2), (3, 4)], (3, 1, 2), 1, 9, (1,))
    capped, mult = preprocess_high_multiplicity(inst)
    assert mult.deg == 2 + 1  # (X-0)^2 (X-3)^1
    for _ in range(40):
        terms = {}
        for j in [(0,), (1,)]:
            if rng.random() < 0.7:
                terms[j] = from_ints(F13, [rng.randrange(13) for _ in range(rng.randrange(1, 6))])
        Q = MultiPoly(F13, 1, terms)
        if Q.is_zero():
            continue
        assert verify_solution(capped, Q) == verify_solution(inst, Q.mul_univariate(mult))


def test_trivial_weight_check():
    assert isinstance(trivial_weight_check(INST13), NotApplicable)  # k=1 < n=3
    inst = mk_inst(F13, [(3, 1), (5, 2)], (1, 1), 1, 3, (5,))
    out = trivial_weight_check(inst)
    assert isinstance(out, Solution)
    prod = out.value.coeff((0,))
    assert prod == P13(10, 1) * P13(8, 1)
    assert verify_solution(inst, out.value)
    inst2 = mk_inst(F13, [(3, 1), (5, 2)], (1, 1), 1, 2, (5,))
    assert isinstance(trivial_weight_check(inst2), NoSolution)


# ---------------------------------------------------------------- build_reduction


def test_build_reduction_worked_example():
    plan, approx = build_reduction(INST13)
    assert plan.exponents == ((0,), (1,))
    assert plan.row_indices == ((0,),)
    assert approx.mu == 1 and approx.nu == 2
    assert approx.col_bounds == (3, 2)
    assert approx.moduli[0] == P13(0, 2, 10, 1)  # X(X-1)(X-2)
    assert approx.residues[0][0] == P13(1)
    assert approx.residues[0][1] == P13(1, 0, 1)  # X^2 + 1


def test_build_reduction_roundtrip_worked_example():
    plan, approx = build_reduction(INST13)
    qs = (P13(12, 0, 12), P13(1))  # (-(X^2+1), 1)
    assert verify_approx(approx, qs)
    Q = assemble_Q(plan, qs)
    assert Q == Q13
    assert verify_solution(INST13, Q)


def test_build_reduction_single_point_multiplicity():
    inst = mk_inst(F13, [(0, 0)], (2,), 2, 2, (0,))
    plan, approx = build_reduction(inst)
    assert plan.row_indices == ((0,), (1,))
    assert approx.moduli[0] == P13(0, 0, 1)  # X^2
    assert approx.moduli[1] == P13(0, 1)  # X
    # R interpolates y=0, so all residues with j > i vanish; diagonal binomials = 1
    assert approx.residues[1][1] == P13(1)  # binom(1,1) * R^0
    assert approx.residues[1][2].is_zero()  # binom(2,1) * R^1 with R = 0


def test_build_reduction_char2_binomial_kills_residue():
    F2 = prime_field(2)
    pts = ((F2.el(0), (F2.el(1),)),)
    inst = InterpolationInstance(F2, 1, 2, 1, (0,), pts, (2,))
    plan, approx = build_reduction(inst)
    # row i=(1,), column j=(2,): binom(2,1) = 0 in characteristic 2
    ji = plan.exponents.index((2,))
    ii = plan.row_indices.index((1,))
    assert approx.residues[ii][ji].is_zero()
    # whereas R itself is nonzero (interpolates y=1)
    jr = plan.exponents.index((1,))
    i0 = plan.row_indices.index((0,))
    assert not approx.residues[i0][jr].is_zero()


def test_build_reduction_empty_exponent_set():
    inst = mk_inst(F13, [(0, 1)], (1,), 1, 0, (1,))  # wdeg_bound 0 admits nothing
    with pytest.raises(NoSolutionSpace):
        build_reduction(inst)


def test_build_reduction_known_divisors():
    """A known monic divisor D_j lowers column j's bound by deg D_j, a column
    whose budget is spent is dropped, and every dense-kernel vector of the
    reduced system assembles to a Q with D_j | Q_j that verifies."""
    checked = nontrivial = dropped = 0
    for seed in spread_seeds(5150, 30):
        rng = random.Random(seed)
        inst = random_interp_instance(
            rng.choice([13, 101]), rng, max_s=2, max_n=4, max_mult=2, max_ell=3
        )
        plain, _ = build_reduction(inst)
        divisors = {
            j: random_monic(inst.ctx, rng.randint(0, 4), rng)
            for j in plain.exponents
            if rng.random() < 0.6
        }
        budget = {
            j: bnd - (divisors[j].deg if j in divisors else 0)
            for j, bnd in zip(plain.exponents, plain.col_bounds)
        }
        kept = tuple(j for j in plain.exponents if budget[j] >= 1)
        dropped += len(plain.exponents) - len(kept)
        if not kept:
            with pytest.raises(NoSolutionSpace):
                build_reduction(inst, divisors)
            continue
        plan, approx = build_reduction(inst, divisors)
        assert plan.exponents == kept, seed
        assert plan.col_bounds == tuple(budget[j] for j in kept), seed
        kernel = kernel_basis(inst.ctx, dense_build_Aprime(approx), approx.total_cols)
        for vec in kernel:
            x = residues(inst.ctx).array(vec)
            Q = assemble_Q(plan, unpack_solution(inst.ctx, x, plan.col_bounds))
            for j, d in divisors.items():
                assert poly_divrem(Q.coeff(j), d)[1].is_zero(), seed
            assert verify_solution(inst, Q), seed
        checked += 1
        nontrivial += bool(kernel)
    assert checked >= 15 and nontrivial > 0 and dropped > 0


def test_row_dimension_identity():
    # sum of modulus degrees = sum_r binom(s + m_r, s + 1)
    from math import comb

    rng = random.Random(11)
    for _ in range(20):
        s = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        xs = rng.sample(range(13), n)
        pts = [(x, *[rng.randrange(13) for _ in range(s)]) for x in xs]
        mults = tuple(rng.randrange(1, 4) for _ in range(n))
        inst = mk_inst(F13, pts, mults, max(mults), 50, tuple(0 for _ in range(s)))
        _, approx = build_reduction(inst)
        assert approx.total_rows == sum(comb(s + m_r, s + 1) for m_r in mults)


def test_equal_multiplicity_moduli_are_powers():
    inst = mk_inst(F13, [(0, 1), (1, 2), (3, 5)], (2, 2, 2), 2, 9, (1,))
    _, approx = build_reduction(inst)
    g = P13(0, 1) * P13(12, 1) * P13(10, 1)
    for i, row_idx in enumerate([(0,), (1,)]):
        assert approx.moduli[i] == g ** (2 - sum(row_idx))


def test_assemble_q_checks():
    plan, _ = build_reduction(INST13)
    with pytest.raises(DegreeViolation):
        assemble_Q(plan, (P13(0, 0, 0, 1), P13(1)))
    assert assemble_Q(plan, (Poly.zero(F13), Poly.zero(F13))).is_zero()
    assert assemble_Q(plan, (Poly.zero(F13), P13(1))) == MultiPoly(F13, 1, {(1,): P13(1)})
