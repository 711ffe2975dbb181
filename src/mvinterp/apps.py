"""End-to-end interpolation pipelines.

Every pipeline follows the same arc: validate its parameter assumptions,
reduce the interpolation problem to a simultaneous approximation instance,
hand that to `backend.solve_approx` (structured hankel / toeplitz route or
the dense baseline), and re-verify the assembled multivariate answer
against the original points before returning it.  The solver always runs in the
instance's own field; the small-field policy (sampling the whole field, and
lifting a Failure over a too-small prime field to an extension) lives in the
structured kernel, so the pipelines never see another field.

The decoding-flavoured pipelines (gs / reencode / wu) are univariate in Y
(one weight k); the bare `interpolate_instance` engine and the soft-decoding
grouping accept anything `build_reduction` accepts.  Re-encoding and points
at infinity are thin maps of known divisors of the Q_j (powers of the
vanishing polynomial of the zero-valued prefix or of the infinite points)
over `build_reduction` on the remaining points, and all four pipelines share
one solve-and-assemble tail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .approx import ApproxInstance
from .backend import solve_approx
from .errors import (
    AssumptionViolated,
    MvInterpError,
    NoSolutionSpace,
    PreconditionViolated,
)
from .field import FieldCtx, residues
from .outcomes import NoSolution, NotApplicable, Solution
from .poly import Poly, poly_divrem, weighted_product
from .reduction import (
    InterpolationInstance,
    MultiPoly,
    ReductionPlan,
    assemble_Q,
    build_reduction,
    preprocess_high_multiplicity,
    trivial_weight_check,
    verify_solution,
)


def _solve_reduced(plan: ReductionPlan, a: ApproxInstance, rng, backend, **kw):
    """The tail every pipeline shares: solve the reduced instance, then
    assemble Q with the known divisors multiplied back in."""
    out = solve_approx(a, rng, backend, **kw)
    if not isinstance(out, Solution):
        return out
    return Solution(assemble_Q(plan, out.value))


def interpolate_instance(inst: InterpolationInstance, rng, backend: str = "hankel", **kw):
    """Bare engine: degenerate-weight shortcut, multiplicity capping, reduce,
    solve, assemble, verify."""
    short = trivial_weight_check(inst)
    if not isinstance(short, NotApplicable):
        if isinstance(short, Solution) and not verify_solution(inst, short.value):
            raise MvInterpError("internal error: shortcut solution failed verification")
        return short
    capped, multiplier = preprocess_high_multiplicity(inst)
    try:
        plan, a = build_reduction(capped)
    except NoSolutionSpace as exc:
        return NoSolution(f"NoSolutionSpace: {exc}")
    out = _solve_reduced(plan, a, rng, backend, **kw)
    if not isinstance(out, Solution):
        return out
    Q = out.value
    if multiplier.deg > 0:
        Q = Q.mul_univariate(multiplier)
    if not verify_solution(inst, Q):
        raise MvInterpError("internal error: assembled solution failed verification")
    return Solution(Q)


# --------------------------------------------------------------- GS pipeline


@dataclass(frozen=True)
class GsParams:
    """List-decoding shaped interpolation input: points (x_r, y_r) to be hit
    with uniform multiplicity m by some Q with ydeg <= ell and
    deg Q_j + j*k < b."""

    ctx: FieldCtx
    k: int
    m: int
    ell: int
    b: int
    points: tuple  # ((x, y), ...) FieldElement pairs

    @property
    def n(self) -> int:
        return len(self.points)


def _gs_instance(p: GsParams, points=None) -> InterpolationInstance:
    """The instance of p, or of p's bounds on other (x, y) points."""
    points = p.points if points is None else points
    return InterpolationInstance(
        p.ctx,
        nvars=1,
        ydeg_bound=p.ell,
        wdeg_bound=p.b,
        weights=(p.k,),
        points=tuple((x, (y,)) for x, y in points),
        mults=(p.m,) * len(points),
    )


def check_assumptions(p: GsParams):
    """The violated assumption tags, in checking order (empty when clean).

    H1 (m <= ell) is reported but auto-fixable; H3's k >= n side is handled
    by the degenerate-weight shortcut, so only k < 0 is a hard violation.
    """
    bad = []
    if p.m < 1 or p.n == 0:
        bad.append("H4")
    if not (p.b > 0 and p.b > p.ell * p.k):
        bad.append("H2")
    if p.k < 0:
        bad.append("H3")
    if p.m > p.ell:
        bad.append("H1")
    return bad


def gs_interpolate(p: GsParams, rng, backend: str = "hankel", **kw):
    """Uniform-multiplicity interpolation with assumption validation."""
    bad = set(check_assumptions(p))
    for tag in ("H4", "H2", "H3"):
        if tag in bad:
            raise AssumptionViolated(tag)
    # H1 violations are repaired inside the engine by multiplicity capping
    return interpolate_instance(_gs_instance(p), rng, backend, **kw)


# ------------------------------------------------ pipelines with known divisors


@dataclass(frozen=True)
class DivisorPlan:
    """A uniform-multiplicity gs instance whose Q_j have known factors D_j.

    raw_bounds keeps every unknown's degree budget b - j*k - deg D_j before
    nonpositive ones are dropped; kept lists the Y-exponents that remain.
    reduction and approx are None when nothing is kept or no point remains.
    """

    divisors: dict  # (j,) -> D_j
    raw_bounds: tuple
    kept: tuple
    reduction: ReductionPlan
    approx: ApproxInstance


def _divisor_plan(k: int, ell: int, b: int, inst, divisors) -> DivisorPlan:
    """The plan of deg Q_j + j*k < b, j <= ell, on inst (None: no point left)."""
    raw_bounds = tuple(
        b - j * k - (divisors[(j,)].deg if (j,) in divisors else 0) for j in range(ell + 1)
    )
    kept = tuple(j for j, bnd in enumerate(raw_bounds) if bnd >= 1)
    if not kept or inst is None:
        return DivisorPlan(divisors, raw_bounds, kept, None, None)
    reduction, approx = build_reduction(inst, divisors)
    return DivisorPlan(divisors, raw_bounds, kept, reduction, approx)


def _solve_divisor_plan(plan: DivisorPlan, ctx: FieldCtx, rng, backend, **kw):
    if not plan.kept:
        return NoSolution("every unknown's degree budget is exhausted")
    if plan.approx is None:
        # no conditions: the divisor of any admissible single unknown works
        j = (plan.kept[0],)
        return Solution(MultiPoly(ctx, 1, {j: plan.divisors.get(j, Poly.one(ctx))}))
    return _solve_reduced(plan.reduction, plan.approx, rng, backend, **kw)


# ------------------------------------------------------- re-encoding pipeline


def reencode_build(inst: InterpolationInstance, n0: int) -> DivisorPlan:
    """Pre-solve the zero-valued prefix of the gs instance inst: g0^(m-j)
    divides Q_j for j < m."""
    g0, m, n = weighted_product(inst.ctx, inst.x[:, :n0], [1] * n0), inst.mults[0], inst.n
    rest = inst.restrict(range(n0, n)) if n0 < n else None
    divisors = {(j,): g0 ** (m - j) for j in range(m)}
    return _divisor_plan(inst.weights[0], inst.ydeg_bound, inst.wdeg_bound, rest, divisors)


def reencode_interpolate(p: GsParams, n0: int, rng, backend: str = "hankel", **kw):
    """Interpolation with the zero-valued prefix pre-solved as divisibility
    by powers of the prefix vanishing polynomial."""
    if not 0 < n0 <= p.n:
        raise PreconditionViolated(f"n_0 = {n0} must lie in 1..{p.n}")
    if n0 < p.k + 1:
        raise PreconditionViolated(f"n_0 = {n0} is below k+1 = {p.k + 1}")
    for x, y in p.points[:n0]:
        if not y.is_zero():
            raise PreconditionViolated("the first n_0 points must have y = 0")
    for x, y in p.points[n0:]:
        if y.is_zero():
            raise PreconditionViolated("points beyond n_0 must have y != 0")
    bad = check_assumptions(p)
    if bad:
        raise AssumptionViolated(bad[0])

    inst = _gs_instance(p)  # the points become residue arrays here, once
    out = _solve_divisor_plan(reencode_build(inst, n0), p.ctx, rng, backend, **kw)
    if isinstance(out, Solution) and not verify_solution(inst, out.value):
        raise MvInterpError("internal error: re-encoded solution failed verification")
    return out


# --------------------------------------------------------------- Wu pipeline


@dataclass(frozen=True)
class ExtPoint:
    """A point whose y-coordinate may be the projective infinity (y=None)."""

    x: object
    y: object = None

    @property
    def is_infinite(self) -> bool:
        return self.y is None


def wu_split(points, p: GsParams):
    """The points' one conversion: the gs instance of the finite ones (None
    if there is none) and the (d, n_inf) residue array of the x at infinity."""
    finite = [(pt.x, pt.y) for pt in points if not pt.is_infinite]
    inf_x = residues(p.ctx).array([pt.x for pt in points if pt.is_infinite])
    return (_gs_instance(p, finite) if finite else None), inf_x


def wu_build(inst, inf_x, p: GsParams) -> DivisorPlan:
    """The points at infinity (wu_split) as divisibility: g_inf^(m-ell+t)
    divides Q_t for t > ell - m; inst holds the finite points."""
    g_inf = weighted_product(p.ctx, inf_x, [1] * inf_x.shape[1])
    divisors = {(t,): g_inf ** (p.m - p.ell + t) for t in range(p.ell - p.m + 1, p.ell + 1)}
    return _divisor_plan(p.k, p.ell, p.b, inst, divisors)


def wu_infinity_ok(Q: MultiPoly, inf_x, m: int, ell: int) -> bool:
    """Y-reversal condition as divisibility: the vanishing product of the
    infinity points inf_x (d, n_inf) to the power m-j divides Q_{ell-j}, j < m."""
    g_inf = weighted_product(Q.ctx, inf_x, [1] * inf_x.shape[1])
    for j in range(m):
        q = Q.coeff((ell - j,))
        if q.is_zero():
            continue
        if not poly_divrem(q, g_inf ** (m - j))[1].is_zero():
            return False
    return True


def verify_wu(inst, inf_x, p: GsParams, Q: MultiPoly) -> bool:
    """Q answers the infinity-aware problem on the points of wu_split:
    nonzero, Y-degree <= ell, weighted degree < b, vanishing to order m at
    every finite point, and the divisibility conditions at infinity."""
    ok = not Q.is_zero() and Q.ydeg <= p.ell and Q.wdeg((p.k,)) < p.b
    if ok and inst is not None:
        ok = verify_solution(inst, Q)
    return ok and wu_infinity_ok(Q, inf_x, p.m, p.ell)


def wu_interpolate(points, p: GsParams, rng, backend: str = "hankel", **kw):
    """Interpolation where points may sit at y = infinity (handled through
    the Y-reversal divisibility conditions on the top coefficients)."""
    points = tuple(points)
    xs = [pt.x for pt in points]
    if p.m < 1 or not points or len({x.to_index() for x in xs}) != len(xs):
        raise AssumptionViolated("H4")
    if not (p.b > 0 and p.b > p.ell * p.k):  # negative k is legal here, H3 is not checked
        raise AssumptionViolated("H2")
    if p.m > p.ell:
        raise AssumptionViolated("H1")

    inst, inf_x = wu_split(points, p)
    out = _solve_divisor_plan(wu_build(inst, inf_x, p), p.ctx, rng, backend, **kw)
    if isinstance(out, Solution) and not verify_wu(inst, inf_x, p, out.value):
        raise MvInterpError("internal error: infinity-aware solution failed verification")
    return out


# ------------------------------------------------------------- soft decoding


def soft_group(x, mults):
    """Partition indices of the possibly repeating nodes x (d, n) into the
    minimum number of groups with pairwise-distinct x.

    Duplicates of one x are spread over groups in order of decreasing
    multiplicity, so the first groups collect the heavy points and the sum
    of per-group maxima stays small.  Returns (groups, per-group max mult).
    """
    by_x = {}
    for idx, key in enumerate(zip(*x.tolist())):
        by_x.setdefault(key, []).append(idx)
    q = max(len(v) for v in by_x.values())
    groups = [[] for _ in range(q)]
    for dup in by_x.values():
        dup.sort(key=lambda idx: -mults[idx])
        for h, idx in enumerate(dup):
            groups[h].append(idx)
    groups = tuple(tuple(sorted(g)) for g in groups)
    return groups, tuple(max(mults[i] for i in g) for g in groups)


def soft_reduce(inst: InterpolationInstance):
    """Per-group reductions concatenated into one approximation instance."""
    groups, _ = soft_group(inst.x, inst.mults)
    plans, moduli, rows = [], [], []
    for g in groups:
        plan, approx = build_reduction(inst.restrict(g))
        plans.append(plan)
        moduli.extend(approx.moduli)
        rows.extend(approx.rows)
    head = plans[0]
    for plan in plans[1:]:
        if plan.exponents != head.exponents or plan.col_bounds != head.col_bounds:
            raise MvInterpError("internal error: group plans disagree on unknowns")
    combined = ApproxInstance.from_rows(inst.ctx, moduli, rows, head.col_bounds)
    return head, combined, groups


def soft_interpolate(inst: InterpolationInstance, rng, backend: str = "hankel", **kw):
    """Interpolation that tolerates repeated x-coordinates by grouping."""
    try:
        plan, combined, _ = soft_reduce(inst)
    except NoSolutionSpace as exc:
        return NoSolution(f"NoSolutionSpace: {exc}")
    out = _solve_reduced(plan, combined, rng, backend, **kw)
    if isinstance(out, Solution) and not verify_solution(inst, out.value):
        raise MvInterpError("internal error: grouped solution failed verification")
    return out
