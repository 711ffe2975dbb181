"""End-to-end interpolation pipelines.

Every pipeline checks its own assumptions, then runs one arc (`_arc`) with
its own reduce step and verifier: reduce to (plan, approx) through
`build_reduction`, which alone decides the columns and their budgets; solve
with `backend.solve_approx`; assemble Q with the columns' known divisors
multiplied back in; verify Q against the problem as posed.  The known
divisors are the multiplicity-capping multiplier of the bare engine
(`interpolate_instance`, also behind gs) and the powers of the vanishing
polynomial of re-encoding's zero-valued prefix or of wu's points at
infinity; with no point left the first column's divisor is the answer.
Soft decoding stacks the reductions of groups of distinct x.  The solver
runs in the instance's own field: lifting a too-small prime field to an
extension lives in the structured kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

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
    assemble_Q,
    build_reduction,
    cap_multiplicities,
    capping_multiplier,
    reduction_columns,
    trivial_weight_check,
    verify_solution,
)


def _arc(reduce, verify, rng, backend, **kw):
    """The tail every pipeline shares.  reduce() gives (plan, approx), with
    approx None when no point is left; then solve, assemble Q with the known
    divisors multiplied back in, and verify(Q)."""
    try:
        plan, approx = reduce()
    except NoSolutionSpace as exc:
        return NoSolution(f"NoSolutionSpace: {exc}")
    if approx is None:  # no condition: the first column's divisor, or 1
        qs = [Poly.one(plan.ctx)] + [Poly.zero(plan.ctx)] * (plan.nu - 1)
    else:
        out = solve_approx(approx, rng, backend, **kw)
        if not isinstance(out, Solution):
            return out
        qs = out.value
    Q = assemble_Q(plan, qs)
    if not verify(Q):
        raise MvInterpError("internal error: assembled solution failed verification")
    return Solution(Q)


def interpolate_instance(inst: InterpolationInstance, rng, backend: str = "hankel", **kw):
    """Bare engine: degenerate-weight shortcut, else multiplicity capping
    and the shared arc, the capping multiplier a known factor of every Q_j."""
    short = trivial_weight_check(inst)
    if not isinstance(short, NotApplicable):
        if isinstance(short, Solution) and not verify_solution(inst, short.value):
            raise MvInterpError("internal error: shortcut solution failed verification")
        return short

    def reduce():
        capped = cap_multiplicities(inst)
        plan, approx = build_reduction(capped)  # its degree count before any product
        if capped is not inst:
            plan = replace(plan, divisors=(capping_multiplier(inst),) * plan.nu)
        return plan, approx

    return _arc(reduce, partial(verify_solution, inst), rng, backend, **kw)


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


# ------------------------------------------------------- re-encoding pipeline


def reencode_build(inst: InterpolationInstance, n0: int):
    """Pre-solve the zero-valued prefix of the gs instance inst: g0^(m-j)
    divides Q_j for j < m.  build_reduction's (plan, approx) on the points
    past the prefix; approx is None when none is left."""
    g0, m, n = weighted_product(inst.ctx, inst.x[:, :n0], [1] * n0), inst.mults[0], inst.n
    divisors = {(j,): g0 ** (m - j) for j in range(m)}
    if n0 == n:
        plan = reduction_columns(inst.ctx, inst.weights, inst.ydeg_bound, inst.wdeg_bound, divisors)
        return plan, None
    return build_reduction(inst.restrict(range(n0, n)), divisors)


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
    reduce, verify = partial(reencode_build, inst, n0), partial(verify_solution, inst)
    return _arc(reduce, verify, rng, backend, **kw)


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


def wu_build(inst, inf_x, p: GsParams):
    """The points at infinity (wu_split) as divisibility: g_inf^(m-ell+t)
    divides Q_t for t > ell - m.  build_reduction's (plan, approx) on the
    finite points inst; approx is None when there is none."""
    g_inf = weighted_product(p.ctx, inf_x, [1] * inf_x.shape[1])
    divisors = {(t,): g_inf ** (p.m - p.ell + t) for t in range(p.ell - p.m + 1, p.ell + 1)}
    if inst is None:
        return reduction_columns(p.ctx, (p.k,), p.ell, p.b, divisors), None
    return build_reduction(inst, divisors)


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
    reduce, verify = partial(wu_build, inst, inf_x, p), partial(verify_wu, inst, inf_x, p)
    return _arc(reduce, verify, rng, backend, **kw)


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
    """Per-group reductions concatenated into one approximation instance;
    returns (plan, approx), the plan's rows every group's in stacking order.
    Every group has the same columns, since build_reduction reads no point
    to choose them, so the last group's serve them all."""
    moduli, rows, indices, bounds = [], [], (), ()
    for g in soft_group(inst.x, inst.mults)[0]:
        plan, approx = build_reduction(inst.restrict(g))
        moduli.extend(approx.moduli)
        rows.extend(approx.rows)
        indices += plan.row_indices
        bounds += plan.row_bounds
    plan = replace(plan, row_indices=indices, row_bounds=bounds)
    return plan, ApproxInstance.from_rows(inst.ctx, moduli, rows, plan.col_bounds)


def soft_interpolate(inst: InterpolationInstance, rng, backend: str = "hankel", **kw):
    """Interpolation that tolerates repeated x-coordinates by grouping."""
    return _arc(partial(soft_reduce, inst), partial(verify_solution, inst), rng, backend, **kw)
