"""Interpolation with multiplicity constraints, and its reduction to
simultaneous modular approximations.

Problem shape: find a nonzero Q(X, Y_1..Y_s) = sum_j Q_j(X) Y^j with total
Y-degree <= ydeg_bound, weighted X-degree max_j(deg Q_j + j.weights) <
wdeg_bound, vanishing at each point (x_r, y_r) with multiplicity >= mults[r]
(no monomial of total degree < mults[r] in the shifted polynomial).

build_reduction turns this into an ApproxInstance row-indexed by derivative
orders i (|i| < max mult) and column-indexed by admissible exponents j: the
residues are binom(j, i) * R^(j-i) mod P_i with R_t the Lagrange interpolant
of the t-th Y-coordinate and P_i the product of (X - x_r)^(mults[r] - |i|)
over points still constrained at order |i|.

Also here: the multiplicity-capping preprocessor and the large-weight
shortcut (both elementary solution-space transformations), plus the
brute-force shift-expansion oracle used by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .field import FieldArrays, FieldCtx, FieldElement
from .outcomes import NoSolution, NotApplicable, Solution
from .poly import Poly, lagrange_interp, poly_mod, weighted_product

# ---------------------------------------------------------------- indices


def graded_exponents(nvars: int, bound: int, strict: bool = False):
    """Exponent tuples with total degree <= bound (< bound when strict),
    in graded lexicographic order."""
    top = bound - 1 if strict else bound
    out = []
    for total in range(top + 1):
        out.extend(_compositions(total, nvars))
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def exp_dot(j, weights) -> int:
    return sum(a * w for a, w in zip(j, weights))


def exp_leq(i, j) -> bool:
    return all(a <= b for a, b in zip(i, j))


def binom_mod(ctx: FieldCtx, n: int, k: int) -> FieldElement:
    """Binomial coefficient reduced mod the characteristic."""
    if k < 0 or k > n:
        return ctx.zero()
    return ctx.el(math.comb(n, k))


def multi_binom(ctx: FieldCtx, j, i) -> FieldElement:
    acc = ctx.one()
    for a, b in zip(j, i):
        acc = acc * binom_mod(ctx, a, b)
        if acc.is_zero():
            return acc
    return acc


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class InterpolationInstance:
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
        if not self.allow_duplicate_x:
            if len({x for x, _ in points}) != len(points):
                raise DuplicateNode("x-coordinates must be pairwise distinct")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "mults", mults)

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

    def mul_univariate(self, f: Poly) -> "MultiPoly":
        return MultiPoly(self.ctx, self.nvars, {j: q * f for j, q in self.terms.items()})

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

    @property
    def mu(self):
        return len(self.row_indices)

    @property
    def nu(self):
        return len(self.exponents)


# ---------------------------------------------------------------- oracles


def _hasse_eval(q: Poly, x: FieldElement, h: int) -> FieldElement:
    """Order-h Hasse derivative of q evaluated at x (characteristic-safe)."""
    ctx = q.ctx
    if h > q.deg:
        return ctx.zero()
    acc = ctx.zero()
    for t in range(q.deg, h - 1, -1):
        acc = acc * x + binom_mod(ctx, t, h) * q.c[t]
    return acc


def hasse_shift_expand(Q: MultiPoly, point):
    """All nonzero coefficients of Q(X + x, Y + y) as {(h, i): value}.

    Brute-force expansion; verification oracle for desk-scale inputs only.
    """
    x, ys = point
    ctx = Q.ctx
    out = {}
    for j, q in Q.terms.items():
        shifted = [_hasse_eval(q, x, h) for h in range(q.deg + 1)]
        for i in graded_exponents(Q.nvars, sum(j)):
            if not exp_leq(i, j):
                continue
            coef = multi_binom(ctx, j, i)
            if coef.is_zero():
                continue
            for t in range(Q.nvars):
                coef = coef * ys[t] ** (j[t] - i[t])
            if coef.is_zero():
                continue
            for h, u in enumerate(shifted):
                if not u.is_zero():
                    key = (h, i)
                    out[key] = out.get(key, ctx.zero()) + u * coef
    return {k: v for k, v in out.items() if not v.is_zero()}


def _hasse_arrays(fa: FieldArrays, q: Poly, x, m: int) -> list:
    """Hasse derivatives of orders 0..min(m, deg q + 1) - 1 of q at every
    entry of x, by Horner on the first m Taylor coefficients: multiplying by
    X = x + T maps coefficient h to x * a_h + a_(h-1).  No binomials, so it
    holds in every characteristic."""
    acc = [fa.full(len(x), fa.const(0)) for _ in range(min(m, q.deg + 1))]
    for c in reversed(q.c):
        for h in range(len(acc) - 1, 0, -1):
            acc[h] = fa.mod(acc[h] * x + acc[h - 1])
        acc[0] = fa.mod(acc[0] * x + fa.scalar(c))
    return acc


def verify_solution(inst: InterpolationInstance, Q: MultiPoly) -> bool:
    """Check all four conditions: nonzero, Y-degree, weighted degree, and
    per-point vanishing multiplicity.

    The vanishing check runs on whole arrays over the points.  The
    coefficient of X^h Y^i in Q(X + x_r, Y + y_r) is
    sum_{j >= i} binom(j, i) y_r^(j-i) H_{j,h}(x_r), with H_{j,h} the
    order-h Hasse derivative of Q_j.  Every H_{j,h} at every x_r comes from
    one Horner pass per Q_j; then for each (i, h) with h + |i| below the
    largest multiplicity the sum is formed as one array and must vanish at
    every point with m_r > h + |i|.
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
    fa = FieldArrays(ctx)
    n, m = inst.n, inst.max_mult
    x = fa.array([x for x, _ in inst.points])
    mults = np.array(inst.mults)
    hasse = {j: _hasse_arrays(fa, q, x, m) for j, q in Q.terms.items()}
    ypow = []  # ypow[t][e] = y_t^e at every point
    for t in range(inst.nvars):
        y = fa.array([ys[t] for _, ys in inst.points])
        pw = [fa.full(n, fa.const(1))]
        for _ in range(Q.ydeg):
            pw.append(fa.mod(pw[-1] * y))
        ypow.append(pw)
    for i in graded_exponents(inst.nvars, m, strict=True):
        weighted = []  # (H_j, binom(j, i) * y^(j-i)) for the j >= i that count
        for j in Q.terms:
            if not exp_leq(i, j):
                continue
            b = multi_binom(ctx, j, i)
            if b.is_zero():
                continue
            w = fa.full(n, fa.scalar(b))
            for t in range(inst.nvars):
                if j[t] > i[t]:
                    w = fa.mod(w * ypow[t][j[t] - i[t]])
            weighted.append((hasse[j], w))
        for h in range(m - sum(i)):
            acc = fa.full(n, fa.const(0))
            for hj, w in weighted:
                if h < len(hj):
                    acc = fa.mod(acc + w * hj[h])
            if (fa.nonzero(acc) & (mults > h + sum(i))).any():
                return False
    return True


# ---------------------------------------------------------------- preprocessing


def preprocess_high_multiplicity(inst: InterpolationInstance):
    """Cap multiplicities at ydeg_bound, factoring out the forced divisor.

    Solutions of the capped instance times the multiplier are exactly the
    solutions of the original.
    """
    cap = inst.ydeg_bound
    if inst.max_mult <= cap:
        return inst, Poly.one(inst.ctx)
    xs = [x for (x, _), m in zip(inst.points, inst.mults) if m > cap]
    exps = [m - cap for m in inst.mults if m > cap]
    multiplier = weighted_product(inst.ctx, xs, exps)
    capped = InterpolationInstance(
        inst.ctx,
        inst.nvars,
        inst.ydeg_bound,
        inst.wdeg_bound - multiplier.deg,
        inst.weights,
        inst.points,
        tuple(min(m, cap) for m in inst.mults),
        allow_duplicate_x=inst.allow_duplicate_x,
    )
    return capped, multiplier


def trivial_weight_check(inst: InterpolationInstance):
    """Shortcut when every weight is >= n: the only Y-degrees that can appear
    are 0, so solvability reduces to comparing wdeg_bound with the degree of
    the forced vanishing product."""
    if any(w < inst.n for w in inst.weights):
        return NotApplicable()
    prod = weighted_product(inst.ctx, [x for x, _ in inst.points], inst.mults)
    if inst.wdeg_bound > prod.deg:
        zero_key = (0,) * inst.nvars
        return Solution(MultiPoly(inst.ctx, inst.nvars, {zero_key: prod}))
    return NoSolution("degree budget below the forced vanishing product")


# ---------------------------------------------------------------- reduction


def build_reduction(inst: InterpolationInstance):
    """Reduce to an ApproxInstance; returns (plan, approx).

    Row i (derivative order, |i| < max mult) has modulus
    P_i = prod_{mults[r] > |i|} (X - x_r)^(mults[r] - |i|) and residues
    F_{i,j} = binom(j, i) * prod_t R_t^(j_t - i_t) mod P_i, where R_t
    interpolates the t-th Y-coordinates at the x-nodes.
    """
    ctx = inst.ctx
    m = inst.max_mult
    cols = [
        j
        for j in graded_exponents(inst.nvars, inst.ydeg_bound)
        if exp_dot(j, inst.weights) < inst.wdeg_bound
    ]
    if not cols:
        raise NoSolutionSpace("no admissible Y-exponent satisfies the degree bounds")
    rows = graded_exponents(inst.nvars, m, strict=True)
    col_bounds = [inst.wdeg_bound - exp_dot(j, inst.weights) for j in cols]

    xs = [x for x, _ in inst.points]
    # interpolant per Y-coordinate, only where some admissible exponent uses it
    interp = [None] * inst.nvars
    for t in range(inst.nvars):
        if any(j[t] > 0 for j in cols):
            interp[t] = lagrange_interp(ctx, xs, [ys[t] for _, ys in inst.points])

    # moduli depend on |i| only
    mod_by_depth = {}
    for depth in range(m):
        sub_x = [x for x, mm in zip(xs, inst.mults) if mm > depth]
        sub_e = [mm - depth for mm in inst.mults if mm > depth]
        mod_by_depth[depth] = weighted_product(ctx, sub_x, sub_e)

    moduli = []
    residues = []
    for i in rows:
        p_i = mod_by_depth[sum(i)]
        moduli.append(p_i)
        # memoized incremental powers of the interpolants mod p_i
        memo = {(0,) * inst.nvars: Poly.one(ctx)}

        def rpow(delta, _memo=memo, _p=p_i):
            got = _memo.get(delta)
            if got is not None:
                return got
            t = next(idx for idx, e in enumerate(delta) if e > 0)
            prev = rpow(delta[:t] + (delta[t] - 1,) + delta[t + 1 :], _memo, _p)
            val = poly_mod(prev * interp[t], _p)
            _memo[delta] = val
            return val

        row = []
        for j in cols:
            if not exp_leq(i, j):
                row.append(Poly.zero(ctx))
                continue
            coef = multi_binom(ctx, j, i)
            if coef.is_zero():
                row.append(Poly.zero(ctx))
                continue
            row.append(rpow(tuple(a - b for a, b in zip(j, i))).scale(coef))
        residues.append(row)

    plan = ReductionPlan(
        ctx,
        inst.nvars,
        tuple(cols),
        tuple(rows),
        tuple(p.deg for p in moduli),
        tuple(col_bounds),
    )
    approx = ApproxInstance(ctx, moduli, residues, col_bounds)
    return plan, approx


def assemble_Q(plan: ReductionPlan, qs) -> MultiPoly:
    """Pack per-column polynomials into the multivariate solution."""
    if len(qs) != plan.nu:
        raise BadLength(f"{len(qs)} polynomials for {plan.nu} columns")
    for q, bound in zip(qs, plan.col_bounds):
        if q.deg >= bound:
            raise DegreeViolation(f"degree {q.deg} not below bound {bound}")
    return MultiPoly(plan.ctx, plan.nvars, dict(zip(plan.exponents, qs)))
