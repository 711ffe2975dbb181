"""Interpolation with multiplicity constraints, and its reduction to
simultaneous modular approximations.

Problem shape: find a nonzero Q(X, Y_1..Y_s) = sum_j Q_j(X) Y^j with total
Y-degree <= ydeg_bound, weighted X-degree max_j(deg Q_j + j.weights) <
wdeg_bound, vanishing at each point (x_r, y_r) with multiplicity >= mults[r]
(no monomial of total degree < mults[r] in the shifted polynomial).

build_reduction turns this into an ApproxInstance row-indexed by derivative
orders i (|i| < max mult) and column-indexed by the admissible exponents j,
which reduction_columns picks from the degree bounds alone: the residues are binom(j, i) * R^(j-i) mod P_i with R_t the Lagrange interpolant
of the t-th Y-coordinate and P_i the product of (X - x_r)^(mults[r] - |i|)
over points still constrained at order |i|.  A column may carry a known
factor D_j of Q_j (re-encoding and points at infinity give one): it then
solves for Q_j / D_j, its residues gain the factor D_j and assemble_Q
multiplies it back in.

Also here: the multiplicity-capping preprocessor and the large-weight
shortcut (both elementary solution-space transformations).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .approx import ApproxInstance
from .errors import (
    BadLength,
    CtxMismatch,
    DegreeViolation,
    Degenerate,
    DuplicateNode,
    NoSolutionSpace,
)
from .field import FieldCtx, residues
from .outcomes import NoSolution, NotApplicable, Solution
from .poly import Poly, inherit_rev_inverse, lagrange_interp, remainders, weighted_product

# ---------------------------------------------------------------- indices


def graded_exponents(nvars: int, bound: int, strict: bool = False):
    """Exponent tuples with total degree <= bound (< bound when strict),
    in graded lexicographic order."""
    top = bound - 1 if strict else bound
    return _graded((top,) * nvars, top)


def _graded(caps, top: int):
    """Exponent tuples j with |j| <= top and each j_t <= caps[t], graded."""
    return [j for total in range(min(top, sum(caps)) + 1) for j in _compositions(total, caps)]


def _compositions(total: int, caps):
    if len(caps) == 1:
        return [(total,)] if total <= caps[0] else []
    out = []
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            out.append((first,) + rest)
    return out


def exp_dot(j, weights) -> int:
    return sum(a * w for a, w in zip(j, weights))


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class InterpolationInstance:
    """The problem on FieldElement points, validated and kept as residue
    arrays once (__post_init__): x (d, n) of the x_r, y (s, d, n) of the y_r."""

    ctx: FieldCtx
    nvars: int  # number of Y variables (s)
    ydeg_bound: int  # inclusive cap on total Y-degree
    wdeg_bound: int  # strict cap on weighted degree (may be <= 0)
    weights: tuple  # per-Y-variable X-degree weight (integers, any sign)
    points: tuple  # ((x, (y_1..y_s)), ...) with x pairwise distinct
    mults: tuple  # required vanishing multiplicities, >= 1
    allow_duplicate_x: bool = False  # only the regrouping pipeline sets this

    def __post_init__(self):
        if self.nvars < 1 or self.ydeg_bound < 1:
            raise Degenerate("need nvars >= 1 and ydeg_bound >= 1")
        weights = tuple(int(w) for w in self.weights)
        if len(weights) != self.nvars:
            raise BadLength(f"{len(weights)} weights for {self.nvars} variables")
        points = []
        for x, ys in self.points:
            ys = tuple(ys)
            if len(ys) != self.nvars:
                raise BadLength("point with wrong number of y-coordinates")
            if x.ctx != self.ctx or any(y.ctx != self.ctx for y in ys):
                raise CtxMismatch("point coordinates in a different field")
            points.append((x, ys))
        mults = tuple(int(m) for m in self.mults)
        if len(mults) != len(points) or not points:
            raise BadLength("need one multiplicity per point, at least one point")
        if any(m < 1 for m in mults):
            raise Degenerate("multiplicities must be >= 1")
        if not self.allow_duplicate_x and len({x for x, _ in points}) != len(points):
            raise DuplicateNode("x-coordinates must be pairwise distinct")
        R = residues(self.ctx)
        flat = R.array([y for _, ys in points for y in ys]).reshape(self.ctx.d, -1, self.nvars)
        x, y = R.array([x for x, _ in points]), flat.transpose(2, 0, 1).copy()
        vars(self).update(weights=weights, points=tuple(points), mults=mults, x=x, y=y)

    def restrict(self, keep, **changes) -> "InterpolationInstance":
        """The instance on the points keep (indices) with `changes` to its
        fields, its points and arrays taken over, not checked again."""
        out, keep = copy.copy(self), list(keep)
        points, mults = tuple(self.points[r] for r in keep), tuple(self.mults[r] for r in keep)
        vars(out).update(points=points, mults=mults, x=self.x[:, keep], y=self.y[..., keep])
        vars(out).update(changes)
        return out

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def max_mult(self) -> int:
        return max(self.mults)


class MultiPoly:
    """Polynomial in X and Y_1..Y_s stored as {exponent tuple: nonzero Poly}."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldCtx, nvars: int, terms):
        clean = {}
        for j, q in terms.items():
            j = tuple(int(e) for e in j)
            if len(j) != nvars or any(e < 0 for e in j):
                raise BadLength(f"bad exponent tuple {j}")
            if q.ctx != ctx:
                raise CtxMismatch("coefficient polynomial in a different field")
            if not q.is_zero():
                clean[j] = q
        self.ctx = ctx
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, ctx, nvars):
        return cls(ctx, nvars, {})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def ydeg(self) -> int:
        """Total Y-degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(j) for j in self.terms)

    def wdeg(self, weights) -> int:
        """Weighted degree max_j (deg Q_j + j . weights); -1 for zero."""
        if not self.terms:
            return -1
        return max(q.deg + exp_dot(j, weights) for j, q in self.terms.items())

    def coeff(self, j) -> Poly:
        return self.terms.get(tuple(j), Poly.zero(self.ctx))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ctx == other.ctx
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        return "MultiPoly(" + ", ".join(f"Y^{j}:{q.to_ints()}" for j, q in self.sorted_terms()) + ")"


@dataclass(frozen=True)
class ReductionPlan:
    ctx: FieldCtx
    nvars: int
    exponents: tuple  # admissible Y-exponents (columns), graded-lex
    row_indices: tuple  # derivative-order tuples (rows), graded-lex
    row_bounds: tuple  # modulus degree per row
    col_bounds: tuple  # unknown degree bound per column
    divisors: tuple  # known factor D_j of Q_j per column, None when there is none

    @property
    def mu(self):
        return len(self.row_indices)

    @property
    def nu(self):
        return len(self.exponents)


# ---------------------------------------------------------------- verification


def _hasse_arrays(ctx: FieldCtx, qs, x, m: int) -> np.ndarray:
    """Hasse derivatives of orders 0..m-1 of every q in qs at every entry of
    x, as one (m, len(qs), d, n) array.  The order-h one is
    sum_t binom(t, h) q_t x^(t-h), binomials reduced mod p, so every order
    is one evaluation of binomial-weighted coefficients."""
    length = max(q.deg for q in qs) + 1
    R = residues(ctx)
    coef = np.stack([q.coeffs(length) for q in qs])
    binom = np.ones(length, dtype=R.dtype)  # binom(t, h) for t < length
    shifted = np.zeros((m,) + coef.shape, dtype=R.dtype)
    for h in range(min(m, length)):
        shifted[h, :, :, : length - h] = binom[h:] * coef[:, :, h:] % R.p
        binom = np.concatenate([[0], np.cumsum(binom)[:-1] % R.p]).astype(R.dtype)
    return R.evaluate(shifted, x)


def verify_solution(inst: InterpolationInstance, Q: MultiPoly) -> bool:
    """Check all four conditions: nonzero, Y-degree, weighted degree, and
    per-point vanishing multiplicity.

    The vanishing check runs on residue arrays over the points.  The
    coefficient of X^h Y^i in Q(X + x_r, Y + y_r) is
    sum_{j >= i} binom(j, i) y_r^(j-i) H_{j,h}(x_r), with H_{j,h} the
    order-h Hasse derivative of Q_j.  Every H_{j,h} at every x_r comes from
    one product of binomial-weighted coefficients with a table of powers of
    the x_r; then for each i with |i| below the largest multiplicity the
    sums for every h are formed as one array and must vanish at every point
    with m_r > h + |i|.
    """
    if Q.is_zero():
        return False
    if Q.nvars != inst.nvars or Q.ctx != inst.ctx:
        raise CtxMismatch("solution does not match the instance")
    if Q.ydeg > inst.ydeg_bound:
        return False
    if Q.wdeg(inst.weights) >= inst.wdeg_bound:
        return False
    ctx = inst.ctx
    R = residues(ctx)
    m = inst.max_mult
    mults = np.array(inst.mults)
    js = list(Q.terms)
    hasse = _hasse_arrays(ctx, [Q.terms[j] for j in js], inst.x, m)
    ypow = []  # ypow[t][e] = y_t^e at every point
    for y in inst.y:
        pw = [R.unit(1, 0)]
        for _ in range(Q.ydeg):
            pw.append(R.emul(pw[-1], y))
        ypow.append(pw)
    for i in graded_exponents(inst.nvars, m, strict=True):
        depth = m - sum(i)
        acc = np.zeros((depth, R.d, inst.n), R.dtype)
        for col, j in enumerate(js):
            b = math.prod(map(math.comb, j, i)) % ctx.p  # 0 unless i <= j entrywise
            if not b:
                continue
            w = b * ypow[0][j[0] - i[0]]
            for t in range(1, inst.nvars):
                w = R.emul(w % R.p, ypow[t][j[t] - i[t]])
            acc += R.emul(hasse[:depth, col], w % R.p)
        need = mults > np.arange(depth)[:, None] + sum(i)  # m_r > h + |i|
        if ((acc % R.p != 0).any(axis=1) & need).any():
            return False
    return True


# ---------------------------------------------------------------- preprocessing


def cap_multiplicities(inst: InterpolationInstance) -> InterpolationInstance:
    """inst with multiplicities capped at ydeg_bound and wdeg_bound lowered
    by the degree of the forced divisor capping_multiplier(inst), which it
    does not build.  Solutions of the capped instance times that divisor
    are exactly the solutions of inst."""
    cap = inst.ydeg_bound
    if inst.max_mult <= cap:
        return inst
    excess = sum(max(m - cap, 0) for m in inst.mults)
    mults = tuple(min(m, cap) for m in inst.mults)
    return inst.restrict(range(inst.n), wdeg_bound=inst.wdeg_bound - excess, mults=mults)


def capping_multiplier(inst: InterpolationInstance) -> Poly:
    """The forced divisor prod (X - x_r)^(m_r - ydeg_bound) over m_r > ydeg_bound."""
    excess = np.array(inst.mults) - inst.ydeg_bound
    return weighted_product(inst.ctx, inst.x[:, excess > 0], excess[excess > 0])


def trivial_weight_check(inst: InterpolationInstance):
    """Shortcut by degree count, before any product is built.  With every
    weight >= n only Y-degree 0 can appear: compare wdeg_bound with the
    degree of the forced vanishing product."""
    if not all(w >= inst.n for w in inst.weights):
        return NotApplicable()
    if inst.wdeg_bound <= sum(inst.mults):
        return NoSolution("degree budget below the forced vanishing product")
    prod = weighted_product(inst.ctx, inst.x, inst.mults)
    return Solution(MultiPoly(inst.ctx, inst.nvars, {(0,) * inst.nvars: prod}))


# ---------------------------------------------------------------- reduction


def reduction_columns(ctx: FieldCtx, weights, ydeg_bound: int, wdeg_bound: int, divisors=None):
    """The row-less ReductionPlan of the degree bounds: which columns exist
    and what they solve for.  No point is read, so an instance with no
    condition left (re-encoding's whole prefix, wu's points all at
    infinity) gets its columns here too.

    divisors maps a Y-exponent j to a known nonzero factor D_j of Q_j
    (D_j = 1 where absent).  Column j then stands for Q_j / D_j, with the
    bound wdeg_bound - j.weights - deg D_j; a column whose bound is below 1
    is dropped, and NoSolutionSpace is raised when none is left.
    """
    divisors = {tuple(j): d for j, d in (divisors or {}).items()}
    if any(d.is_zero() for d in divisors.values()):
        raise Degenerate("a known divisor is zero")

    def bound(j):
        known = divisors[j].deg if j in divisors else 0
        return wdeg_bound - exp_dot(j, weights) - known

    # bound(j) >= 1 caps j_t w_t, weight > 0, below the largest column
    # bound, which puts all of ydeg_bound on the least weight if it is
    # negative, else j = 0
    top = wdeg_bound - ydeg_bound * min(0, *weights)
    caps = tuple(min(ydeg_bound, (top - 1) // w) if w > 0 else ydeg_bound for w in weights)
    cols = tuple(j for j in _graded(caps, ydeg_bound) if bound(j) >= 1)
    if not cols:
        raise NoSolutionSpace("no admissible Y-exponent satisfies the degree bounds")
    return ReductionPlan(
        ctx, len(weights), cols, (), (), tuple(map(bound, cols)), tuple(map(divisors.get, cols))
    )


def build_reduction(inst: InterpolationInstance, divisors=None):
    """Reduce to an ApproxInstance; returns (plan, approx).

    The columns, their bounds and known divisors are reduction_columns'.
    Row i (derivative order, |i| < max mult) has modulus
    P_i = prod_{mults[r] > |i|} (X - x_r)^(mults[r] - |i|) and residues
    F_{i,j} = binom(j, i) * prod_t R_t^(j_t - i_t) * D_j mod P_i, where R_t
    interpolates the t-th Y-coordinates at the x-nodes.
    """
    ctx = inst.ctx
    m = inst.max_mult
    plan = reduction_columns(ctx, inst.weights, inst.ydeg_bound, inst.wdeg_bound, divisors)
    cols, col_bounds = plan.exponents, plan.col_bounds
    rows = graded_exponents(inst.nvars, m, strict=True)

    # interpolants of the Y-coordinates some column uses, and prod (X - x_r)
    used = [t for t in range(inst.nvars) if any(j[t] > 0 for j in cols)]
    fs, every = lagrange_interp(ctx, inst.x, inst.y[used])
    interp = dict(zip(used, fs))

    # the moduli depend on |i| only.  P_|i| is P_(|i|+1) times the
    # vanishing product g_|i| of the points with mults > |i|, rebuilt only
    # when that set grows.  One Newton inverse of rev(P_0), to the longest
    # precision a remainder below, compute_s_star or verify_approx takes,
    # gives every 1/rev(P_|i|) as rev(g_(|i|-1)) / rev(P_(|i|-1))
    mod_by_depth, vanish = [None] * m, [None] * m
    mults, g = np.array(inst.mults), None
    for depth in reversed(range(m)):
        sub = mults > depth
        if g is None or g.deg != sub.sum():
            g = every if sub.all() else weighted_product(ctx, inst.x[:, sub], [1] * int(sub.sum()))
        mod_by_depth[depth] = g if depth == m - 1 else mod_by_depth[depth + 1] * g
        vanish[depth] = g
    divided = [c for c, d in enumerate(plan.divisors) if d is not None]
    dlen = max((plan.divisors[c].deg + 1 for c in divided), default=1)
    precision = max(mod_by_depth[0].deg + max(col_bounds), dlen) - 1
    mod_by_depth[0].rev_inverse(precision)
    for depth in range(1, m):
        inherit_rev_inverse(mod_by_depth[depth], mod_by_depth[depth - 1], vanish[depth - 1], precision)

    # entry (i, j) is binom(j, i) mod p, 0 unless i <= j entrywise, times
    # R^(j - i): index[i, j] places that power in the stack of its depth
    R, p, n, width = residues(ctx), ctx.p, inst.n, mod_by_depth[0].deg
    coef = np.array([[math.prod(map(math.comb, j, i)) % p for j in cols] for i in rows])
    index = np.zeros(coef.shape, int)
    need = [{} for _ in range(m)]  # per depth: R^delta -> its place in the stack
    for r, i in enumerate(rows):
        at = need[sum(i)]
        for c, j in enumerate(cols):
            if coef[r, c]:
                index[r, c] = at.setdefault(tuple(a - b for a, b in zip(j, i)), len(at))

    # every R^delta mod P_0, a multiple of every P_|i|, on one chain graded
    # by |delta|: delta is its parent, delta less one in its first nonzero
    # entry t, times R_t, one stacked product and remainder per grade
    def parent(delta):
        t = next(t for t, e in enumerate(delta) if e)
        return delta[:t] + (delta[t] - 1,) + delta[t + 1 :], t

    grades = [set() for _ in range(max(1, *map(sum, cols)) + 1)]
    for delta in set().union(*need):
        grades[sum(delta)].add(delta)
    for k in range(len(grades) - 1, 1, -1):
        grades[k - 1].update(parent(delta)[0] for delta in grades[k])
    power = {(0,) * inst.nvars: R.unit(width, 0)}
    power.update((delta, interp[parent(delta)[1]].coeffs(width)) for delta in grades[1])
    for level in map(sorted, filter(None, grades[2:])):
        links = [parent(delta) for delta in level]
        ups, ts = np.stack([power[up] for up, _ in links]), [interp[t].coeffs(n) for _, t in links]
        power.update(zip(level, remainders(R.conv(ups, np.stack(ts)), mod_by_depth[0])))

    # per depth: the stack reduced once more by P_|i|, the known divisors
    # multiplied in with one product and one remainder, then one gather and
    # one binomial scaling for the depth's rows
    dstack = np.stack([plan.divisors[c].coeffs(dlen) for c in divided]) if divided else None
    moduli, blocks, lo = [], [], 0
    for depth, P in enumerate(mod_by_depth):
        hi = lo + sum(sum(i) == depth for i in rows)
        stack = np.stack([power[delta] for delta in need[depth]] or [R.zeros(width)])
        E = remainders(stack, P)[index[lo:hi]]  # (rows, nu, d, deg P)
        if divided:
            E[:, divided] = remainders(R.conv(E[:, divided], dstack), P)
        blocks.extend(E * coef[lo:hi, :, None, None] % p)
        moduli += [P] * (hi - lo)
        lo = hi

    plan = replace(plan, row_indices=tuple(rows), row_bounds=tuple(p.deg for p in moduli))
    return plan, ApproxInstance.from_rows(ctx, moduli, blocks, col_bounds)


def assemble_Q(plan: ReductionPlan, qs) -> MultiPoly:
    """Pack per-column polynomials into the multivariate solution,
    multiplying each column's known divisor back in."""
    if len(qs) != plan.nu:
        raise BadLength(f"{len(qs)} polynomials for {plan.nu} columns")
    for q, bound in zip(qs, plan.col_bounds):
        if q.deg >= bound:
            raise DegreeViolation(f"degree {q.deg} not below bound {bound}")
    terms = {j: q if d is None else q * d for j, q, d in zip(plan.exponents, qs, plan.divisors)}
    return MultiPoly(plan.ctx, plan.nvars, terms)
