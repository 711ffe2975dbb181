"""Dense univariate polynomial arithmetic over a FieldCtx.

Poly is an immutable coefficient vector (low-to-high, trailing zeros
stripped, empty tuple = zero polynomial).  Multiplication dispatches to an
exact numpy int64 convolution for prime fields when the coefficient bound
allows, and to Karatsuba over generic field elements otherwise.  Division
and power-series inversion switch to Newton iteration at larger degrees.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import (
    BadLength,
    CtxMismatch,
    DivisionByZero,
    DuplicateNode,
    NotInvertible,
)
from .field import FieldArrays, FieldCtx, FieldElement

_KARATSUBA_CUTOFF = 32
_NEWTON_DIV_CUTOFF = 32
_INT64_SAFE = 2**62


class Poly:
    """Immutable dense polynomial over a fixed FieldCtx."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, coeffs, _normalized: bool = False):
        self.ctx = ctx
        if _normalized:
            self.c = coeffs
        else:
            cs = [ctx.el(v) if not isinstance(v, FieldElement) else v for v in coeffs]
            while cs and cs[-1].is_zero():
                cs.pop()
            self.c = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (), _normalized=True)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (ctx.one(),), _normalized=True)

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (ctx.zero(), ctx.one()), _normalized=True)

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "Poly":
        return cls(ctx, [ctx.el(v) for v in ints])

    # -- structure ----------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree, with deg(0) = -1."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < len(self.c):
            return self.c[i]
        return self.ctx.zero()

    def lead(self) -> FieldElement:
        if not self.c:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return self.c[-1]

    def to_ints(self) -> list:
        """Coefficients as ints (prime field) or coefficient tuples (extension)."""
        if self.ctx.d == 1:
            return [e.c[0] for e in self.c]
        return [e.c for e in self.c]

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if self.ctx != other.ctx:
            raise CtxMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return Poly(self.ctx, out)

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.c), len(other.c))
        z = self.ctx.zero()
        out = [
            (self.c[i] if i < len(self.c) else z) - (other.c[i] if i < len(other.c) else z)
            for i in range(n)
        ]
        return Poly(self.ctx, out)

    def __neg__(self):
        return Poly(self.ctx, tuple(-v for v in self.c), _normalized=True)

    def __mul__(self, other):
        self._check(other)
        if not self.c or not other.c:
            return Poly.zero(self.ctx)
        ctx = self.ctx
        if ctx.d == 1:
            out = _intmul([e.c[0] for e in self.c], [e.c[0] for e in other.c], ctx.p)
            return Poly(ctx, tuple(FieldElement(ctx, (v,)) for v in out), _normalized=True)
        return Poly(ctx, _karatsuba(list(self.c), list(other.c), ctx))

    def scale(self, k: FieldElement) -> "Poly":
        if k.is_zero():
            return Poly.zero(self.ctx)
        return Poly(self.ctx, tuple(v * k for v in self.c), _normalized=True)

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k (k >= 0)."""
        if not self.c:
            return self
        return Poly(self.ctx, (self.ctx.zero(),) * k + self.c, _normalized=True)

    def monic(self) -> "Poly":
        if not self.c:
            raise DivisionByZero("monic form of zero polynomial")
        if self.c[-1] == self.ctx.one():
            return self
        return self.scale(self.c[-1].inv())

    def eval(self, x: FieldElement) -> FieldElement:
        acc = self.ctx.zero()
        for v in reversed(self.c):
            acc = acc * x + v
        return acc

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ctx == other.ctx and self.c == other.c

    def __hash__(self):
        return hash((self.ctx, self.c))

    def __repr__(self):
        return f"Poly({self.to_ints()} over {self.ctx})"


# -- multiplication kernels -------------------------------------------


def _intmul(a: list, b: list, p: int) -> list:
    """Exact product of int coefficient lists mod p."""
    la, lb = len(a), len(b)
    if min(la, lb) * (p - 1) * (p - 1) < _INT64_SAFE:
        conv = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return [int(v) for v in conv % p]
    if min(la, lb) < _KARATSUBA_CUTOFF:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return [v % p for v in out]
    n = max(la, lb)
    h = n // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    z0 = _intmul(a0, b0, p) if a0 and b0 else []
    z2 = _intmul(a1, b1, p) if a1 and b1 else []
    sa = [x + y for x, y in _zip_pad(a0, a1)]
    sb = [x + y for x, y in _zip_pad(b0, b1)]
    z1 = _intmul(sa, sb, p) if sa and sb else []
    out = [0] * (la + lb - 1)
    for i, v in enumerate(z0):
        out[i] += v
    for i, v in enumerate(z1):
        out[h + i] += v
    for i, v in enumerate(z0):
        out[h + i] -= v
    for i, v in enumerate(z2):
        out[h + i] -= v
    for i, v in enumerate(z2):
        out[2 * h + i] += v
    return [v % p for v in out]


def _zip_pad(a, b):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0), (b[i] if i < len(b) else 0)


def _karatsuba(a: list, b: list, ctx: FieldCtx) -> list:
    """Generic Karatsuba over FieldElement lists (extension fields)."""
    la, lb = len(a), len(b)
    if min(la, lb) < _KARATSUBA_CUTOFF:
        z = ctx.zero()
        out = [z] * (la + lb - 1)
        for i, ai in enumerate(a):
            if not ai.is_zero():
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return out
    n = max(la, lb)
    h = n // 2
    z = ctx.zero()
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    z0 = _karatsuba(a0, b0, ctx) if a0 and b0 else []
    z2 = _karatsuba(a1, b1, ctx) if a1 and b1 else []
    sa = [(a0[i] if i < len(a0) else z) + (a1[i] if i < len(a1) else z) for i in range(max(len(a0), len(a1)))]
    sb = [(b0[i] if i < len(b0) else z) + (b1[i] if i < len(b1) else z) for i in range(max(len(b0), len(b1)))]
    z1 = _karatsuba(sa, sb, ctx) if sa and sb else []
    out = [z] * (la + lb - 1)
    for i, v in enumerate(z0):
        out[i] = out[i] + v
    for i, v in enumerate(z1):
        out[h + i] = out[h + i] + v
    for i, v in enumerate(z0):
        out[h + i] = out[h + i] - v
    for i, v in enumerate(z2):
        out[h + i] = out[h + i] - v
    for i, v in enumerate(z2):
        out[2 * h + i] = out[2 * h + i] + v
    return out


# -- named operations -------------------------------------------------


def trunc(f: Poly, n: int) -> Poly:
    """f mod X^n."""
    if n <= 0:
        return Poly.zero(f.ctx)
    if len(f.c) <= n:
        return f
    return Poly(f.ctx, f.c[:n])


def reverse(f: Poly, n: int) -> Poly:
    """Degree-n reversal X^n * f(1/X); requires deg f <= n."""
    if f.deg > n:
        raise BadLength(f"cannot reverse degree {f.deg} at length {n}")
    return Poly(f.ctx, tuple(f.coeff(n - i) for i in range(n + 1)))


def series_inv(f: Poly, n: int) -> Poly:
    """Inverse of f modulo X^n by Newton iteration; needs f(0) != 0."""
    if n <= 0:
        return Poly.zero(f.ctx)
    c0 = f.coeff(0)
    if c0.is_zero():
        raise NotInvertible("constant term is zero")
    ctx = f.ctx
    g = Poly(ctx, (c0.inv(),), _normalized=True)
    two = Poly(ctx, (ctx.el(2),))
    k = 1
    while k < n:
        k = min(2 * k, n)
        fg = trunc(trunc(f, k) * g, k)
        g = trunc(g * (two - fg), k)
    return g


def poly_divrem(a: Poly, b: Poly) -> tuple:
    """Quotient and remainder of a by b; Newton division at large degrees."""
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.ctx != b.ctx:
        raise CtxMismatch(f"{a.ctx} vs {b.ctx}")
    da, db = a.deg, b.deg
    if da < db:
        return Poly.zero(a.ctx), a
    dq = da - db
    if dq >= _NEWTON_DIV_CUTOFF and db >= _NEWTON_DIV_CUTOFF:
        rq = trunc(reverse(a, da) * series_inv(reverse(b, db), dq + 1), dq + 1)
        q = reverse(rq, dq)
        return q, a - b * q
    inv_lead = b.lead().inv()
    rem = list(a.c)
    q = [a.ctx.zero()] * (dq + 1)
    for i in range(da, db - 1, -1):
        c = rem[i]
        if not c.is_zero():
            c = c * inv_lead
            q[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] = rem[i - db + j] - c * b.c[j]
    return Poly(a.ctx, q), Poly(a.ctx, rem[:db])


def poly_mod(a: Poly, b: Poly) -> Poly:
    return poly_divrem(a, b)[1]


def lagrange_interp(ctx: FieldCtx, xs, ys) -> Poly:
    """Unique polynomial of degree < n through (xs[i], ys[i]); xs distinct.

    Barycentric form on whole arrays over the nodes: weights
    w_i = prod_{k != i} (x_i - x_k), c_i = y_i / w_i, and the result
    sum_i c_i * M / (X - x_i) with M = prod_k (X - x_k).  All n quotients
    M / (X - x_i) come from one synthetic division run on arrays, one
    output coefficient per step, so the whole interpolation is O(n) array
    operations of length n.
    """
    xs = [ctx.el(x) for x in xs]
    ys = [ctx.el(y) for y in ys]
    if len(xs) != len(ys):
        raise BadLength(f"{len(xs)} nodes vs {len(ys)} values")
    if len(set(xs)) != len(xs):
        raise DuplicateNode("interpolation nodes must be pairwise distinct")
    n = len(xs)
    if n == 0:
        return Poly.zero(ctx)
    fa = FieldArrays(ctx)
    x = fa.array(xs)
    w = fa.full(n, fa.const(1))
    for k in range(n):
        diff = fa.mod(x - x[k])
        diff[k] = fa.const(1)
        w = fa.mod(w * diff)
    c = fa.mod(fa.array(ys) * fa.inv(w))
    m = fa.array(weighted_product(ctx, xs, [1] * n).c)
    # synthetic division: q holds coefficient t of every M / (X - x_i)
    q = fa.full(n, m[n])
    out = [None] * n
    for t in range(n - 1, -1, -1):
        out[t] = fa.total(fa.mod(c * q))
        if t:
            q = fa.mod(q * x + m[t])
    return Poly(ctx, fa.elements(out))


def weighted_product(ctx: FieldCtx, xs, ms) -> Poly:
    """prod_i (X - xs[i])^ms[i] for distinct nodes, smallest factors first."""
    xs = [ctx.el(x) for x in xs]
    if len(xs) != len(ms):
        raise BadLength(f"{len(xs)} nodes vs {len(ms)} multiplicities")
    if len(set(xs)) != len(xs):
        raise DuplicateNode("product nodes must be pairwise distinct")
    heap = []
    count = 0
    for x, m in zip(xs, ms):
        if m < 0:
            raise ValueError("negative multiplicity")
        lin = Poly(ctx, (-x, ctx.one()))
        for _ in range(m):
            heap.append((1, count, lin))
            count += 1
    if not heap:
        return Poly.one(ctx)
    heapq.heapify(heap)
    while len(heap) > 1:
        _, _, f = heapq.heappop(heap)
        _, _, g = heapq.heappop(heap)
        fg = f * g
        heapq.heappush(heap, (len(fg.c), count, fg))
        count += 1
    return heap[0][2]


def extend_recurrence(init, charpoly: Poly, count: int) -> list:
    """First `count` terms of the sequence with b[:m] = init and
    b[i+m] = -sum_j charpoly[j] * b[i+j], charpoly monic of degree m.

    Computed through the generating function: B = N / rev(charpoly) as a
    power series, with N determined by the initial terms.
    """
    ctx = charpoly.ctx
    m = charpoly.deg
    if m < 1 or charpoly.lead() != ctx.one():
        raise BadLength("characteristic polynomial must be monic of degree >= 1")
    init = [ctx.el(v) for v in init]
    if len(init) != m:
        raise BadLength(f"need {m} initial terms, got {len(init)}")
    if count <= m:
        return init[:count]
    denom = reverse(charpoly, m)
    numer = trunc(Poly(ctx, init) * denom, m)
    series = trunc(numer * series_inv(denom, count), count)
    return [series.coeff(i) for i in range(count)]
