"""Acceptance gate: one test per shipping criterion, exact tolerances.

Every criterion is asserted at zero numerical tolerance (all arithmetic is
exact) except the two statistical ones: the single-attempt success floor
(binomial 3-sigma margin) and the scaling benchmark (log-log slope bounds
on medians).  Corpus sizes meet or exceed the stated minimums; seeds are
fixed so the whole gate is deterministic.
"""

import math
import random
import time

import pytest

from mvinterp.approx import unpack_solution, verify_approx
from mvinterp.apps import (
    ExtPoint,
    GsParams,
    gs_interpolate,
    reencode_build,
    reencode_interpolate,
    solve_approx,
    wu_interpolate,
    wu_infinity_ok,
)
from mvinterp.cli import main
from mvinterp.field import prime_field, residues
from mvinterp.linalg import matrix_rank
from mvinterp.mosaic_hankel import build_hankel_generators, compute_s_star
from mvinterp.outcomes import Failure, NoSolution, NotApplicable, Solution
from mvinterp.poly import Poly, poly_divrem, reverse
from mvinterp.reduction import (
    InterpolationInstance,
    MultiPoly,
    assemble_Q,
    build_reduction,
    cap_multiplicities,
    capping_multiplier,
    exp_dot,
    graded_exponents,
    trivial_weight_check,
    verify_solution,
)
from mvinterp import struct_solve
from mvinterp.struct_solve import (
    TAG_HANKEL,
    TAG_TOEPLITZ,
    subset_floor,
)
from mvinterp.toeplitz_like import build_toeplitz_generators, dense_build_Aprime

from helpers import (
    assert_column_budgets,
    binom_mod,
    dense_build_A,
    displacement_of_dense,
    element_rows,
    exp_leq,
    generator_product,
    kernel_basis,
    level0_passes_through,
    markov_tops,
    mul_univariate,
    multi_binom,
    poly_mod,
    random_approx_instance,
    random_interp_instance,
    random_monic,
    random_poly,
    res,
    trunc,
)


# ------------------------------------------------------------------ helpers


def sized_instance(p, rng, cap, **kw):
    """A random instance whose reduction stays within `cap` total rows+cols."""
    while True:
        inst = random_interp_instance(p, rng, allow_negative_weights=False, **kw)
        plan, a = build_reduction(inst)
        if a.total_rows + a.total_cols <= cap:
            return inst, plan, a


def admissible_columns(inst):
    """(exponent, degree bound) pairs straight from the degree constraints."""
    cols = []
    for j in graded_exponents(inst.nvars, inst.ydeg_bound):
        bound = inst.wdeg_bound - exp_dot(j, inst.weights)
        if bound >= 1:
            cols.append((tuple(j), bound))
    return cols


def hasse_condition_matrix(inst, cols):
    """Dense linearization built directly from shifted-coefficient algebra,
    independent of the modular-residue reduction it cross-checks."""
    ctx = inst.ctx
    unknowns = [(j, t) for j, bound in cols for t in range(bound)]
    rows = []
    for (x, ys), m_r in zip(inst.points, inst.mults):
        xpow = [ctx.one()]
        top = max(bound for _, bound in cols)
        for _ in range(top):
            xpow.append(xpow[-1] * x)
        for i in graded_exponents(inst.nvars, m_r, strict=True):
            for h in range(m_r - sum(i)):
                row = []
                for j, t in unknowns:
                    if not exp_leq(i, j) or t < h:
                        row.append(ctx.zero())
                        continue
                    coef = multi_binom(ctx, j, i) * binom_mod(ctx, t, h)
                    for v in range(inst.nvars):
                        coef = coef * ys[v] ** (j[v] - i[v])
                    row.append(coef * xpow[t - h])
                rows.append(row)
    return rows, unknowns


def brute_force_solvable(inst):
    cols = admissible_columns(inst)
    if not cols:
        return False
    rows, unknowns = hasse_condition_matrix(inst, cols)
    if not rows:
        return True  # no conditions, any admissible monomial works
    return matrix_rank(inst.ctx, rows, len(unknowns)) < len(unknowns)


def mat_vec(ctx, rows, vec):
    out = []
    for row in rows:
        acc = ctx.zero()
        for c, v in zip(row, vec):
            acc = acc + c * v
        out.append(acc)
    return out


def assemble_from_columns(ctx, nvars, cols, vec):
    terms = {}
    pos = 0
    for j, bound in cols:
        q = Poly(ctx, vec[pos : pos + bound])
        pos += bound
        if not q.is_zero():
            terms[j] = q
    return MultiPoly(ctx, nvars, terms)


# ---------------------------------------------------------------- criteria


def test_criterion_01_cross_route_and_dense_agreement():
    """>= 500 random instances, p in {13, 101, 65537}: both structured
    routes agree with dense-elimination solvability and all outputs verify;
    corpus completes in well under two minutes.

    The routes run through solve_approx, whose structured kernel supplies
    the production small-field behavior (base field first, extension only
    on Failure) while keeping verdicts in the base field.
    Size caps per prime keep extension arithmetic affordable; all other
    envelope bounds are exercised in full.
    """
    t0 = time.time()
    count = 0
    solved = 0
    for p_idx, (p, cap, trials) in enumerate(
        ((13, 48, 130), (101, 64, 130), (65537, 200, 240))
    ):
        ctx = prime_field(p)
        rng = random.Random(100 + p_idx)
        for trial in range(trials):
            inst, plan, a = sized_instance(
                p, rng, cap=cap, max_s=3, max_n=12, max_mult=3, max_ell=4
            )
            A = dense_build_A(a)
            Ap = element_rows(ctx, dense_build_Aprime(a))
            n_cols = a.total_cols
            solvable = matrix_rank(ctx, A, n_cols) < n_cols
            solvable_p = matrix_rank(ctx, Ap, n_cols) < n_cols
            assert solvable == solvable_p
            for backend in ("hankel", "toeplitz"):
                out = solve_approx(a, random.Random(1000 + trial), backend=backend)
                assert not isinstance(out, Failure), (p, trial, backend)
                assert isinstance(out, Solution) == solvable, (p, trial, backend)
                if isinstance(out, Solution):
                    assert verify_approx(a, out.value)
                    Q = assemble_Q(plan, out.value)
                    assert verify_solution(inst, Q)
            count += 1
            solved += int(solvable)
    assert count >= 500
    assert 0 < solved < count  # both verdicts are actually exercised
    assert time.time() - t0 < 120


def test_criterion_02_reduction_nullspace_bijection():
    """>= 200 random instances: the dense nullspace of the shifted-residue
    matrix equals the space of verified interpolation solutions (dimension
    equality plus containment both ways)."""
    checked = 0
    nontrivial = 0
    rng = random.Random(77)
    while checked < 200:
        p = rng.choice((13, 101))
        ctx = prime_field(p)
        inst, plan, a = sized_instance(
            p, rng, cap=60, max_s=2, max_n=5, max_mult=2, max_ell=3
        )
        Ap = element_rows(ctx, dense_build_Aprime(a))
        route_kernel = kernel_basis(ctx, Ap, a.total_cols)
        cols = list(zip(plan.exponents, plan.col_bounds))
        h_rows, unknowns = hasse_condition_matrix(inst, cols)
        assert len(unknowns) == a.total_cols
        direct_kernel = kernel_basis(ctx, h_rows, len(unknowns)) if h_rows else [
            [ctx.one() if t == s else ctx.zero() for t in range(len(unknowns))]
            for s in range(len(unknowns))
        ]
        assert len(route_kernel) == len(direct_kernel)
        for vec in route_kernel:
            # containment 1: reduction kernel vectors satisfy the direct conditions
            if h_rows:
                assert all(v.is_zero() for v in mat_vec(ctx, h_rows, vec))
            x = residues(ctx).array(vec)
            Q = assemble_Q(plan, unpack_solution(ctx, x, plan.col_bounds))
            assert verify_solution(inst, Q)
        for vec in direct_kernel:
            # containment 2: direct-condition kernel vectors satisfy the residues
            assert all(v.is_zero() for v in mat_vec(ctx, Ap, vec))
        checked += 1
        nontrivial += int(bool(route_kernel))
    assert nontrivial > 0


def test_criterion_03_displacement_rank_bounds():
    """rank of both displacement operators <= mu + nu on every instance and
    the generators reproduce the displacement entry-exactly."""
    rng = random.Random(303)
    for trial in range(60):
        p = rng.choice((13, 101, 65537))
        ctx = prime_field(p)
        a = random_approx_instance(ctx, rng)
        bound = a.mu + a.nu

        A = dense_build_A(a)
        disp = displacement_of_dense(TAG_HANKEL, A, ctx)
        assert matrix_rank(ctx, disp, a.total_cols) <= bound
        G = build_hankel_generators(a)
        assert generator_product(G) == disp

        Ap = element_rows(ctx, dense_build_Aprime(a))
        disp_p = displacement_of_dense(TAG_TOEPLITZ, Ap, ctx)
        assert matrix_rank(ctx, disp_p, a.total_cols) <= bound
        Gp = build_toeplitz_generators(a)
        assert generator_product(Gp) == disp_p


def test_criterion_04_generator_micro_oracles():
    """last-coefficient sequences (the series table's leading terms) against
    naive modular shifts on >= 1000 random pairs, and the series table
    satisfies its multiply-back identity."""
    rng = random.Random(404)
    pairs = 0
    while pairs < 1000:
        p = rng.choice((13, 101, 65537))
        ctx = prime_field(p)
        P = random_monic(ctx, rng.randint(1, 6), rng)
        F = random_poly(ctx, P.deg, rng)
        count = rng.randint(1, 10)
        naive = [poly_mod(F.shift(v), P).coeff(P.deg - 1) for v in range(count)]
        assert list(markov_tops(P, F, count)) == naive
        pairs += 1

    for trial in range(50):
        ctx = prime_field((13, 101)[trial % 2])
        a = random_approx_instance(ctx, rng)
        table = compute_s_star(a)
        beta = max(a.col_bounds)
        for i, p_i in enumerate(a.moduli):
            p_rev = reverse(p_i, p_i.deg)
            delta = p_i.deg + beta - 1
            for j, f in enumerate(a.residues[i]):
                f_rev = reverse(f, p_i.deg - 1)
                gamma = beta - a.col_bounds[j]
                lhs = trunc(Poly.from_residues(ctx, table[i][j]).shift(gamma) * p_rev, delta)
                assert lhs == trunc(f_rev.shift(gamma), delta)


def test_criterion_05_probability_floor_and_las_vegas(monkeypatch):
    """With the sampling set >= 6(M'+1)^2: single-attempt success rate over
    >= 400 attempts on solvable instances stays above 1/2 minus a 3-sigma
    binomial margin, and the retrying wrapper never fails on the corpus.

    The corpus is at most 13 rows, which level 0 would eliminate densely,
    with pivoting and no draws; so the single attempts hand each whole
    matrix to one preconditioned generator level (no dense tail), and each
    is one preconditioning."""
    ctx = prime_field(65537)
    rng = random.Random(505)
    corpus = []
    while len(corpus) < 40:
        inst, plan, a = sized_instance(
            65537, rng, cap=60, max_s=1, max_n=5, max_mult=2, max_ell=3
        )
        if a.total_cols <= a.total_rows:
            continue  # keep only certainly-solvable shapes
        padded = max(a.total_rows, a.total_rows + 1)
        assert subset_floor(padded) <= ctx.order  # the floor hypothesis holds
        corpus.append(a)

    attempts = 0
    hits = 0
    preconditionings = []
    with monkeypatch.context() as mp:
        level0_passes_through(mp)
        mp.setattr(struct_solve, "_DENSE_WIDTH", 0)
        real = struct_solve._precondition
        mp.setattr(
            struct_solve, "_precondition", lambda *a: preconditionings.append(1) or real(*a)
        )
        for idx, a in enumerate(corpus):
            route = "hankel" if idx % 2 == 0 else "toeplitz"
            for rep in range(10):
                out = solve_approx(a, random.Random(9000 + 17 * idx + rep), route, max_retries=1)
                assert not isinstance(out, NoSolution)
                attempts += 1
                hits += int(isinstance(out, Solution))
    assert attempts >= 400 and len(preconditionings) == attempts
    margin = 3.0 * math.sqrt(0.25 / attempts)
    assert hits / attempts >= 0.5 - margin, (hits, attempts)

    for idx, a in enumerate(corpus):
        route = "hankel" if idx % 2 == 0 else "toeplitz"
        out = solve_approx(a, random.Random(7000 + idx), route, max_retries=8)
        assert isinstance(out, Solution)


def test_criterion_06_reencoding_dimension_identities():
    """Re-encoded systems hit the closed-form row and column totals exactly
    and every output verifies on the original points."""
    rng = random.Random(606)
    produced = 0
    for trial in range(60):
        k = rng.randint(0, 1)
        n = rng.randint(k + 2, 8)
        m = rng.randint(1, 3)
        ell = rng.randint(m, m + 2)
        n0 = rng.randint(k + 1, n - 1)
        b = rng.randint(ell * k + 1, ell * k + 10)
        ctx = prime_field(101)
        xs = rng.sample(range(101), n)
        pts = tuple(
            (ctx.el(x), ctx.el(0) if i < n0 else ctx.el(rng.randint(1, 100)))
            for i, x in enumerate(xs)
        )
        params = GsParams(ctx, k=k, m=m, ell=ell, b=b, points=pts)
        orig = InterpolationInstance(
            ctx, 1, ell, b, (k,), tuple((x, (y,)) for x, y in pts), (m,) * n
        )
        plan, approx = reencode_build(orig, n0)
        # g0^(m-j), of degree n0*(m-j), is a known factor of Q_j for j < m
        assert_column_budgets(plan, b, k, ell, lambda j: n0 * (m - j) if j < m else 0)
        assert approx.total_rows == m * (m + 1) // 2 * (n - n0)
        out = reencode_interpolate(params, n0, random.Random(6060 + trial))
        if isinstance(out, Solution):
            assert verify_solution(orig, out.value)
            produced += 1
    assert produced > 0


def test_criterion_07_wu_infinity_divisibility():
    """Every infinity-aware output's top coefficients are exactly divisible
    by the required powers of the infinity vanishing polynomial."""
    rng = random.Random(707)
    produced = 0
    for trial in range(60):
        ctx = prime_field(13)
        m = rng.randint(1, 2)
        ell = rng.randint(m, m + 2)
        k = rng.randint(0, 1)
        b = rng.randint(ell * k + 1, ell * k + 8)
        n_fin = rng.randint(1, 4)
        n_inf = rng.randint(1, 2)
        xs = rng.sample(range(13), n_fin + n_inf)
        pts = tuple(
            ExtPoint(ctx.el(x), ctx.el(rng.randrange(13))) for x in xs[:n_fin]
        ) + tuple(ExtPoint(ctx.el(x), None) for x in xs[n_fin:])
        params = GsParams(ctx, k=k, m=m, ell=ell, b=b, points=())
        out = wu_interpolate(pts, params, random.Random(7070 + trial))
        if not isinstance(out, Solution):
            continue
        produced += 1
        Q = out.value
        g_inf = Poly.one(ctx)
        for x in xs[n_fin:]:
            g_inf = g_inf * Poly(ctx, [-ctx.el(x), ctx.one()])
        for j in range(m):
            q = Q.coeff((ell - j,))
            if not q.is_zero():
                _, rem = poly_divrem(q, g_inf ** (m - j))
                assert rem.is_zero()
        assert wu_infinity_ok(Q, res(ctx, xs[n_fin:]), m, ell)
    assert produced >= 10


def test_criterion_08_preprocessing_round_trips():
    """Multiplicity capping and the degenerate-weight shortcut agree with
    brute-force dense solving on >= 100 instances each."""
    rng = random.Random(808)

    checked = 0
    while checked < 100:
        inst = random_interp_instance(
            101, rng, max_s=2, max_n=3, max_mult=4, max_ell=2,
            allow_negative_weights=False,
        )
        if inst.max_mult <= inst.ydeg_bound:
            continue
        capped, multiplier = cap_multiplicities(inst), capping_multiplier(inst)
        assert capped.max_mult <= inst.ydeg_bound
        assert multiplier.deg > 0
        assert brute_force_solvable(inst) == brute_force_solvable(capped)
        cols = admissible_columns(capped)
        if cols:
            rows, unknowns = hasse_condition_matrix(capped, cols)
            kernel = kernel_basis(capped.ctx, rows, len(unknowns)) if rows else []
            if rows and kernel:
                Q_capped = assemble_from_columns(capped.ctx, capped.nvars, cols, kernel[0])
                assert verify_solution(capped, Q_capped)
                assert verify_solution(inst, mul_univariate(Q_capped, multiplier))
        checked += 1

    checked = 0
    verdicts = set()
    while checked < 100:
        inst = random_interp_instance(
            101, rng, max_s=2, max_n=3, max_mult=2, max_ell=2,
            allow_negative_weights=False,
        )
        if any(w < inst.n for w in inst.weights):
            continue
        out = trivial_weight_check(inst)
        assert not isinstance(out, NotApplicable)
        solvable = brute_force_solvable(inst)
        if isinstance(out, Solution):
            assert solvable
            assert verify_solution(inst, out.value)
        else:
            assert isinstance(out, NoSolution)
            assert not solvable
        verdicts.add(type(out).__name__)
        checked += 1
    assert verdicts == {"Solution", "NoSolution"}


def test_criterion_09_scaling_benchmark(capsys):
    """Structured kernel log-log slope <= 2.4, dense >= 2.6, structured
    strictly faster at the top size: medians of 5 reps at n = 64..512."""
    assert main(["bench", "--sizes", "64,128,256,512",
                 "--backend", "hankel,dense", "--reps", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "size,backend,median_ms,verdict,reps"
    data = {}
    for line in lines[1:]:
        size, bk, med, verdict, reps = line.split(",")
        assert verdict == "solution"
        assert reps == "5"
        data[(bk, int(size))] = float(med)

    def slope(bk):
        xs = [math.log(n) for n in (64, 128, 256, 512)]
        ys = [math.log(data[(bk, n)]) for n in (64, 128, 256, 512)]
        xbar = sum(xs) / 4
        ybar = sum(ys) / 4
        return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )

    s_struct = slope("hankel")
    s_dense = slope("dense")
    # every median and both slopes, so an intermittent failure shows its timings
    shown = f"medians (ms) {data}, slopes hankel {s_struct:.3f} dense {s_dense:.3f}"
    assert s_struct <= 2.4, shown
    assert s_dense >= 2.6, shown
    assert data[("hankel", 512)] < data[("dense", 512)], shown


def test_criterion_10_small_field_extension_path():
    """>= 50 instances over the five-element field that need a larger
    sampling set: each is solved in the base field or, when that attempt
    fails, extended, solved and projected back; verified over the base."""
    ctx = prime_field(5)
    rng = random.Random(1010)
    done = 0
    while done < 50:
        n = rng.randint(3, 5)
        m = rng.randint(1, 2)
        ell = rng.randint(2, 3)
        xs = rng.sample(range(5), n)
        pts = tuple((ctx.el(x), ctx.el(rng.randrange(5))) for x in xs)
        tri = m * (m + 1) // 2
        b = (n * tri) // (ell + 1) + 1  # underdetermined, hence solvable
        params = GsParams(ctx, k=0, m=m, ell=ell, b=b, points=pts)
        rows = n * tri
        assert subset_floor(rows + 1) > ctx.order  # base field really is too small
        out = gs_interpolate(params, random.Random(2020 + done))
        assert isinstance(out, Solution)
        Q = out.value
        assert Q.ctx == ctx
        orig = InterpolationInstance(
            ctx, 1, ell, b, (0,), tuple((x, (y,)) for x, y in pts), (m,) * n
        )
        assert verify_solution(orig, Q)
        done += 1
