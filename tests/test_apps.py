"""End-to-end pipeline tests: gs / re-encoding / infinity-aware / soft."""

import importlib
import random
from pathlib import Path

import pytest

from mvinterp import apps, struct_solve
from mvinterp.approx import trim_instance, verify_approx
from mvinterp.backend import BUILDERS
from mvinterp.apps import (
    ExtPoint,
    GsParams,
    check_assumptions,
    gs_interpolate,
    interpolate_instance,
    reencode_build,
    reencode_interpolate,
    soft_group,
    soft_interpolate,
    soft_reduce,
    solve_approx,
    wu_build,
    wu_infinity_ok,
    wu_interpolate,
)
from mvinterp.errors import (
    AssumptionViolated,
    Degenerate,
    PreconditionViolated,
)
from mvinterp.field import FieldCtx, prime_field
from mvinterp.linalg import matrix_rank
from mvinterp.outcomes import Failure, NoSolution, Solution
from mvinterp.poly import Poly
from mvinterp.reduction import InterpolationInstance, build_reduction, verify_solution
from mvinterp.struct_solve import subset_floor

from helpers import dense_build_A, random_interp_instance, spread_seeds

F13 = prime_field(13)
F101 = prime_field(101)


def el(v, ctx=F13):
    return ctx.el(v)


def gs_points(ctx, pairs):
    return tuple((ctx.el(x), ctx.el(y)) for x, y in pairs)


def params_instance(p: GsParams) -> InterpolationInstance:
    return InterpolationInstance(
        p.ctx, 1, p.ell, p.b, (p.k,), tuple((x, (y,)) for x, y in p.points), (p.m,) * p.n
    )


def random_gs_params(ctx, rng, max_n=6, max_m=3, max_ell=3):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    ell = rng.randint(1, max_ell)
    k = rng.randint(0, 2)
    b = rng.randint(ell * k + 1, ell * k + 8)
    xs = rng.sample(range(ctx.p), n)
    pts = tuple((ctx.el(x), ctx.el(rng.randrange(ctx.p))) for x in xs)
    return GsParams(ctx, k=k, m=m, ell=ell, b=b, points=pts)


# ------------------------------------------------------------ gs pipeline


def test_gs_worked_example():
    p = GsParams(F13, k=1, m=1, ell=1, b=3, points=gs_points(F13, [(0, 1), (1, 2), (2, 5)]))
    out = gs_interpolate(p, random.Random(1))
    assert isinstance(out, Solution)
    Q = out.value
    assert verify_solution(params_instance(p), Q)
    assert Q.ydeg <= 1 and Q.wdeg((1,)) < 3


def test_gs_every_backend_solves_worked_example():
    p = GsParams(F13, k=1, m=1, ell=1, b=3, points=gs_points(F13, [(0, 1), (1, 2), (2, 5)]))
    for bk in BUILDERS:
        out = gs_interpolate(p, random.Random(2), backend=bk)
        assert isinstance(out, Solution), bk
        assert verify_solution(params_instance(p), out.value), bk


def test_gs_assumption_violations():
    pts = gs_points(F13, [(0, 1), (1, 2)])
    with pytest.raises(AssumptionViolated, match="H2"):
        gs_interpolate(GsParams(F13, k=1, m=1, ell=2, b=2, points=pts), random.Random(0))
    with pytest.raises(AssumptionViolated, match="H2"):
        gs_interpolate(GsParams(F13, k=0, m=1, ell=1, b=0, points=pts), random.Random(0))
    with pytest.raises(AssumptionViolated, match="H3"):
        gs_interpolate(GsParams(F13, k=-1, m=1, ell=1, b=3, points=pts), random.Random(0))
    with pytest.raises(AssumptionViolated, match="H4"):
        gs_interpolate(GsParams(F13, k=0, m=0, ell=1, b=3, points=pts), random.Random(0))
    with pytest.raises(AssumptionViolated, match="H4"):
        gs_interpolate(GsParams(F13, k=0, m=1, ell=1, b=3, points=()), random.Random(0))
    assert check_assumptions(GsParams(F13, k=1, m=1, ell=1, b=3, points=pts)) == []


def test_gs_degenerate_weight_shortcut():
    # weight at least n: answered by the product construction, no solver run
    pts = gs_points(F13, [(3, 1), (5, 2)])
    p = GsParams(F13, k=3, m=1, ell=1, b=7, points=pts)
    out = gs_interpolate(p, random.Random(3))
    assert isinstance(out, Solution)
    assert verify_solution(params_instance(p), out.value)
    # same shape but budget too tight for the product: certified NoSolution
    p2 = GsParams(F13, k=3, m=2, ell=1, b=4, points=pts)
    assert isinstance(gs_interpolate(p2, random.Random(3)), NoSolution)


def test_gs_high_multiplicity_is_capped_and_multiplied_back():
    pts = gs_points(F13, [(0, 4), (1, 9)])
    p = GsParams(F13, k=0, m=3, ell=2, b=5, points=pts)
    out = gs_interpolate(p, random.Random(4))
    assert isinstance(out, Solution)
    assert verify_solution(params_instance(p), out.value)


def test_gs_structural_shape_under_h2():
    # with nonnegative weight and b > ell*k every Y-degree 0..ell is admissible
    from mvinterp.reduction import build_reduction

    for seed in spread_seeds(5, 10):
        rng = random.Random(seed)
        p = random_gs_params(F13, rng)
        plan, _ = build_reduction(params_instance(p))
        assert plan.nu == p.ell + 1
        assert plan.exponents == tuple((j,) for j in range(p.ell + 1))


def test_gs_random_backends_agree():
    for seed in spread_seeds(1000, 25):
        rng = random.Random(seed)
        ctx = rng.choice([F13, F101])
        p = random_gs_params(ctx, rng)
        outs = {bk: gs_interpolate(p, random.Random(seed + 1), backend=bk) for bk in BUILDERS}
        kinds = {bk: type(o).__name__ for bk, o in outs.items()}
        assert len(set(kinds.values())) == 1, (seed, kinds)
        for bk, o in outs.items():
            if isinstance(o, Solution):
                assert verify_solution(params_instance(p), o.value), (seed, bk)


def test_unknown_backend_rejected():
    p = GsParams(F13, k=0, m=1, ell=1, b=3, points=gs_points(F13, [(0, 1), (1, 2)]))
    with pytest.raises(Degenerate):
        gs_interpolate(p, random.Random(0), backend="cholesky")


# ----------------------------------------------------------- re-encoding


def test_reencode_worked_example():
    p = GsParams(F13, k=1, m=1, ell=1, b=3, points=gs_points(F13, [(0, 0), (1, 0), (2, 5)]))
    plan = reencode_build(p, 2)
    assert plan.raw_bounds == (1, 2)
    assert plan.kept == (0, 1)
    assert plan.approx.total_rows == 1  # one point left, multiplicity one
    out = reencode_interpolate(p, 2, random.Random(5))
    assert isinstance(out, Solution)
    assert verify_solution(params_instance(p), out.value)


def test_reencode_dimension_identities():
    for seed in spread_seeds(2000, 20):
        rng = random.Random(seed)
        k = rng.randint(0, 1)
        n = rng.randint(k + 2, 7)
        m = rng.randint(1, 3)
        ell = rng.randint(m, m + 2)
        n0 = rng.randint(k + 1, n - 1)
        b = rng.randint(ell * k + 1, ell * k + 10)
        xs = rng.sample(range(13), n)
        pts = tuple(
            (el(x), el(0) if i < n0 else el(rng.randint(1, 12)))
            for i, x in enumerate(xs)
        )
        plan = reencode_build(GsParams(F13, k=k, m=m, ell=ell, b=b, points=pts), n0)
        tri = m * (m + 1) // 2
        assert sum(plan.raw_bounds) == sum(b - j * k for j in range(ell + 1)) - n0 * tri
        if plan.approx is not None:
            assert plan.approx.total_rows == tri * (n - n0)


def test_reencode_preconditions():
    pts = gs_points(F13, [(0, 0), (1, 0), (2, 5)])
    p = GsParams(F13, k=2, m=1, ell=1, b=4, points=pts)
    with pytest.raises(PreconditionViolated):
        reencode_interpolate(p, 2, random.Random(0))  # n0 < k + 1
    p2 = GsParams(F13, k=1, m=1, ell=1, b=3, points=gs_points(F13, [(0, 0), (2, 5), (1, 0)]))
    with pytest.raises(PreconditionViolated):
        reencode_interpolate(p2, 2, random.Random(0))  # nonzero y inside the prefix
    with pytest.raises(PreconditionViolated):
        reencode_interpolate(p2, 4, random.Random(0))  # n0 beyond n


def test_reencode_matches_gs_verdict():
    for seed in spread_seeds(3000, 15):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        m = rng.randint(1, 2)
        ell = rng.randint(m, 3)
        k = rng.randint(0, 1)
        n0 = rng.randint(k + 1, n - 1) if n - 1 >= k + 1 else None
        if n0 is None:
            continue
        b = rng.randint(ell * k + 1, ell * k + 6)
        xs = rng.sample(range(13), n)
        pts = tuple(
            (el(x), el(0) if i < n0 else el(rng.randint(1, 12)))
            for i, x in enumerate(xs)
        )
        p = GsParams(F13, k=k, m=m, ell=ell, b=b, points=pts)
        a = gs_interpolate(p, random.Random(seed + 7))
        c = reencode_interpolate(p, n0, random.Random(seed + 7))
        assert type(a).__name__ == type(c).__name__, seed
        if isinstance(c, Solution):
            assert verify_solution(params_instance(p), c.value)


def test_reencode_with_only_zero_points():
    # pre-solving leaves no conditions; a pure divisibility witness is returned
    pts = gs_points(F13, [(0, 0), (1, 0), (2, 0)])
    p = GsParams(F13, k=1, m=2, ell=2, b=8, points=pts)
    out = reencode_interpolate(p, 3, random.Random(6))
    assert isinstance(out, Solution)
    assert verify_solution(params_instance(p), out.value)


def test_reencode_budget_exhausted():
    pts = gs_points(F13, [(0, 0), (1, 0), (2, 5)])
    p = GsParams(F13, k=0, m=2, ell=2, b=4, points=pts)
    # raw bounds: j<2: 4 - 2*(2-j) -> (0, 2); j=2: 4 -> kept (1, 2)
    plan = reencode_build(p, 2)
    assert plan.raw_bounds == (0, 2, 4)
    assert plan.kept == (1, 2)
    out = reencode_interpolate(p, 2, random.Random(7))
    if isinstance(out, Solution):
        assert verify_solution(params_instance(p), out.value)


# -------------------------------------------------------- infinity points


def test_wu_worked_example():
    pts = (ExtPoint(el(0), el(1)), ExtPoint(el(1), el(2)), ExtPoint(el(3), None))
    p = GsParams(F13, k=1, m=1, ell=2, b=4, points=())
    out = wu_interpolate(pts, p, random.Random(8))
    assert isinstance(out, Solution)
    Q = out.value
    assert wu_infinity_ok(Q, [el(3)], 1, 2)
    assert Q.ydeg <= 2 and Q.wdeg((1,)) < 4
    # finite points are actually hit
    inst = InterpolationInstance(
        F13, 1, 2, 4, (1,), ((el(0), (el(1),)), (el(1), (el(2),))), (1, 1)
    )
    assert verify_solution(inst, Q)


def test_wu_build_bounds():
    pts = (ExtPoint(el(0), el(1)), ExtPoint(el(3), None), ExtPoint(el(4), None))
    p = GsParams(F13, k=1, m=2, ell=3, b=9, points=())
    plan = wu_build(pts, p)
    # t <= ell-m keeps b - t*k; above that each unknown loses (m-ell+t)*n_inf
    assert plan.raw_bounds == (9, 8, 7 - 2, 6 - 4)
    assert plan.approx is not None and plan.approx.mu == 2


def test_wu_divisibility_of_top_coefficients():
    for seed in spread_seeds(4000, 12):
        rng = random.Random(seed)
        n_fin = rng.randint(1, 4)
        n_inf = rng.randint(1, 2)
        m = rng.randint(1, 2)
        ell = rng.randint(m, m + 1)
        k = rng.randint(0, 1)
        b = rng.randint(ell * k + 1, ell * k + 8)
        xs = rng.sample(range(13), n_fin + n_inf)
        pts = tuple(ExtPoint(el(x), el(rng.randrange(13))) for x in xs[:n_fin]) + tuple(
            ExtPoint(el(x), None) for x in xs[n_fin:]
        )
        p = GsParams(F13, k=k, m=m, ell=ell, b=b, points=())
        out = wu_interpolate(pts, p, random.Random(seed + 9))
        if not isinstance(out, Solution):
            continue
        assert wu_infinity_ok(out.value, [el(x) for x in xs[n_fin:]], m, ell)


def test_wu_without_infinity_matches_gs():
    for seed in spread_seeds(5000, 10):
        rng = random.Random(seed)
        p = random_gs_params(F13, rng, max_m=2)
        if p.m > p.ell:  # the infinity-aware pipeline has no multiplicity capping
            p = GsParams(p.ctx, k=p.k, m=p.ell, ell=p.ell, b=p.b, points=p.points)
        pts = [ExtPoint(x, y) for x, y in p.points]
        a = gs_interpolate(p, random.Random(seed + 1))
        w = wu_interpolate(pts, p, random.Random(seed + 1))
        assert type(a).__name__ == type(w).__name__
        if isinstance(w, Solution):
            assert verify_solution(params_instance(p), w.value)


def test_wu_all_points_at_infinity():
    pts = (ExtPoint(el(2), None), ExtPoint(el(5), None))
    p = GsParams(F13, k=1, m=1, ell=2, b=4, points=())
    out = wu_interpolate(pts, p, random.Random(10))
    assert isinstance(out, Solution)
    assert wu_infinity_ok(out.value, [el(2), el(5)], 1, 2)


def test_wu_duplicate_x_rejected():
    pts = (ExtPoint(el(1), el(2)), ExtPoint(el(1), None))
    p = GsParams(F13, k=0, m=1, ell=1, b=3, points=())
    with pytest.raises(AssumptionViolated, match="H4"):
        wu_interpolate(pts, p, random.Random(0))


# ------------------------------------------------------------ soft groups


def test_soft_group_spreads_heavy_duplicates():
    pts = ((el(4), (el(1),)), (el(4), (el(2),)), (el(9), (el(3),)))
    groups, maxima = soft_group(pts, (1, 3, 2))
    assert groups == ((1, 2), (0,))
    assert maxima == (3, 1)


def test_soft_group_distinct_x_is_one_group():
    pts = ((el(1), (el(0),)), (el(2), (el(0),)))
    groups, maxima = soft_group(pts, (2, 1))
    assert groups == ((0, 1),)
    assert maxima == (2,)


def test_soft_reduce_row_count():
    inst = InterpolationInstance(
        F13,
        1,
        2,
        5,
        (1,),
        ((el(0), (el(1),)), (el(0), (el(2),)), (el(1), (el(3),))),
        (2, 1, 1),
        allow_duplicate_x=True,
    )
    plan, combined, groups = soft_reduce(inst)
    assert len(groups) == 2
    # group holding multiplicity 2 contributes 2 rows, the other 1
    assert combined.mu == 3


def test_soft_pipeline_solves_and_verifies():
    inst = InterpolationInstance(
        F13,
        1,
        2,
        4,
        (1,),
        ((el(0), (el(1),)), (el(0), (el(2),)), (el(1), (el(3),))),
        (1, 1, 1),
        allow_duplicate_x=True,
    )
    out = soft_interpolate(inst, random.Random(11))
    assert isinstance(out, Solution)
    assert verify_solution(inst, out.value)


def test_soft_random_agrees_with_dense_backend():
    for seed in spread_seeds(6000, 12):
        rng = random.Random(seed)
        n_x = rng.randint(1, 3)
        xs = rng.sample(range(13), n_x)
        pts = []
        mults = []
        for x in xs:
            for _ in range(rng.randint(1, 2)):
                pts.append((el(x), (el(rng.randrange(13)),)))
                mults.append(rng.randint(1, 2))
        ell = rng.randint(1, 2)
        b = rng.randint(1, 6)
        inst = InterpolationInstance(
            F13, 1, ell, b, (1,), tuple(pts), tuple(mults), allow_duplicate_x=True
        )
        a = soft_interpolate(inst, random.Random(seed + 2))
        c = soft_interpolate(inst, random.Random(seed + 2), backend="dense")
        assert type(a).__name__ == type(c).__name__
        if isinstance(a, Solution):
            assert verify_solution(inst, a.value)


# --------------------------------------------------- field extension path


def test_small_field_extends_and_projects_back():
    ctx = prime_field(5)
    rng = random.Random(12)
    xs = [ctx.el(i) for i in range(5)]
    pts = tuple((x, ctx.el(rng.randrange(5))) for x in xs)
    p = GsParams(ctx, k=0, m=2, ell=3, b=8, points=pts)
    out = gs_interpolate(p, rng)
    assert isinstance(out, Solution)
    assert out.value.ctx == ctx  # projected back to the base field
    assert verify_solution(params_instance(p), out.value)


def test_small_prime_field_solves_in_base_field_first(monkeypatch):
    # a criterion-01-shaped instance over F_65537 whose trimmed size puts the
    # sampling-set floor above the field order; it must resolve without a lift
    ctx = prime_field(65537)
    rng = random.Random(1227)
    while True:
        inst = random_interp_instance(
            65537, rng, allow_negative_weights=False, max_s=3, max_n=12, max_mult=3, max_ell=4
        )
        _, a = build_reduction(inst)
        if a.total_rows + a.total_cols <= 200:
            break
    trimmed, _, _ = trim_instance(a)
    assert subset_floor(max(trimmed.total_rows, trimmed.total_cols)) > ctx.order

    def no_lift(*args):
        raise AssertionError("lifted to an extension field")

    monkeypatch.setattr(struct_solve, "build_extension", no_lift)
    solvable = matrix_rank(ctx, dense_build_A(a), a.total_cols) < a.total_cols
    for backend in ("hankel", "toeplitz"):
        out = solve_approx(a, random.Random(7), backend=backend)
        assert isinstance(out, (Solution, NoSolution))
        assert isinstance(out, Solution) == solvable
        if isinstance(out, Solution):
            assert verify_approx(a, out.value)


def test_only_a_small_prime_field_failure_is_lifted(monkeypatch):
    # an elimination that breaks down in every prime field: over F_5, below
    # the sampling-set floor, the kernel lifts its Failure once to the
    # smallest sufficient extension; over F_65537, at or above it, the
    # Failure is the answer
    real = struct_solve._eliminate
    fields = []

    def break_down_in_prime_fields(R, v, w, size):
        fields.append(R.ctx)
        return ([], (v, w)) if R.d == 1 else real(R, v, w, size)

    lifts = []
    build = struct_solve.build_extension
    monkeypatch.setattr(struct_solve, "_eliminate", break_down_in_prime_fields)
    monkeypatch.setattr(
        struct_solve, "build_extension", lambda *args: lifts.append(args) or build(*args)
    )

    ctx = prime_field(5)
    rng = random.Random(12)
    pts = gs_points(ctx, [(i, rng.randrange(5)) for i in range(5)])
    p = GsParams(ctx, k=0, m=2, ell=3, b=8, points=pts)
    _, a = build_reduction(params_instance(p))
    need = subset_floor(max(a.total_rows, min(a.total_cols, a.total_rows + 1)))
    d = 1
    while 5**d < need:
        d += 1
    out = solve_approx(a, random.Random(3))
    assert [(args[0], args[1]) for args in lifts] == [(ctx, d)]
    assert fields[:8] == [ctx] * 8 and {c.d for c in fields[8:]} == {d}
    assert isinstance(out, Solution)
    assert all(q.ctx == ctx for q in out.value)
    assert verify_approx(a, out.value)

    fields.clear()
    lifts.clear()
    ctx = prime_field(65537)
    pts = gs_points(ctx, [(i, 3 * i + 1) for i in range(6)])
    _, a = build_reduction(params_instance(GsParams(ctx, k=1, m=1, ell=2, b=4, points=pts)))
    assert subset_floor(max(a.total_rows, min(a.total_cols, a.total_rows + 1))) <= ctx.order
    out = solve_approx(a, random.Random(3), max_retries=5)
    assert isinstance(out, Failure) and out.attempts == 5
    assert fields == [ctx] * 5 and not lifts


def test_small_extension_field_samples_the_whole_field(monkeypatch):
    # GF(2^8) is below the sampling-set floor of this gs instance and has no
    # prime base to lift from: the default backend samples the whole field
    ctx = FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))
    rng = random.Random(2008)
    pts = tuple(
        (ctx.from_index(x), ctx.from_index(rng.randrange(ctx.order)))
        for x in rng.sample(range(ctx.order), 20)
    )
    p = GsParams(ctx, k=5, m=1, ell=2, b=12, points=pts)
    _, a = build_reduction(params_instance(p))
    assert subset_floor(a.total_rows) > ctx.order
    out = gs_interpolate(p, random.Random(5))
    assert isinstance(out, Solution)
    assert verify_solution(params_instance(p), out.value)
    assert isinstance(gs_interpolate(p, random.Random(5), backend="dense"), Solution)
    # a Failure there is the answer: a non-prime base is never lifted
    monkeypatch.setattr(struct_solve, "_eliminate", lambda R, v, w, size: ([], (v, w)))
    monkeypatch.setattr(struct_solve, "build_extension", None)
    assert isinstance(solve_approx(a, random.Random(5)), Failure)


def test_engine_random_instances_verify():
    # the bare engine also accepts multi-variable instances
    for seed in spread_seeds(7000, 10):
        rng = random.Random(seed)
        inst = random_interp_instance(101, rng, max_s=2, max_n=5, max_mult=2, max_ell=3)
        out = interpolate_instance(inst, random.Random(seed + 3))
        if isinstance(out, Solution):
            assert verify_solution(inst, out.value)


def test_benchmark_tracer_finds_every_layer(monkeypatch):
    # perfbench/layers.py times the library by wrapping names at the module
    # globals their callers look them up in; a renamed or re-imported name
    # would silently read 0 there, so every one must still be found, except
    # the three lift layers apps no longer calls (the kernel lifts itself),
    # the Hankel flip (the kernel flips a hankel-tagged generator itself) and
    # the dense route wrapper (the dense backend is a BUILDERS entry)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    layers = importlib.import_module("layers")
    with layers.Tracer(layers.LAYERS + layers.DENSE) as tracer:
        assert sorted(tracer.missing) == [
            "approx.lift_instance",
            "field.build_extension",
            "field.project_solution_to_base",
            "struct_solve.hankel_to_toeplitz",
            "toeplitz_like.solve_via_dense",
        ]
    assert apps.solve_approx is solve_approx  # originals restored on exit
