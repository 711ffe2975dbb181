"""Dense univariate polynomial arithmetic over a FieldCtx.

Poly is an immutable polynomial whose coefficients (low-to-high, trailing
zeros stripped) are one (d, n) residue array of the field's Residues layer,
the same for every field; FieldElements are built only when a caller asks
for them (`c`, `coeff`, `lead`, `eval`).  A product is one residue
convolution.  Power-series inversion is Newton iteration, every division
takes its quotient from it (`quotients`), and products of many linear
factors (`weighted_product`, `lagrange_interp`, on node arrays) run level
by level on a product tree of stacked arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadLength,
    CtxMismatch,
    DivisionByZero,
    DuplicateNode,
    NotInvertible,
)
from .field import FieldCtx, FieldElement, residues

_WEIGHT_CELLS = 1 << 16  # largest array of node differences at once


def _strip(a: np.ndarray) -> np.ndarray:
    if not a.shape[1] or a[:, -1].any():
        return a
    nz = np.flatnonzero((a != 0).any(axis=0))
    return a[:, : nz[-1] + 1 if nz.size else 0]


class Poly:
    """Immutable dense polynomial over a fixed FieldCtx.

    `a` is the (d, deg + 1) residue array of its coefficients; `c`, the
    FieldElement tuple, and the inverse of its reversal (rev_inverse) are
    built on first use.
    """

    __slots__ = ("ctx", "a", "_c", "_inv")

    def __init__(self, ctx: FieldCtx, coeffs):
        cs = [v if isinstance(v, FieldElement) else ctx.el(v) for v in coeffs]
        self.ctx, self.a, self._c, self._inv = ctx, _strip(residues(ctx).array(cs)), None, None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_residues(cls, ctx: FieldCtx, a: np.ndarray) -> "Poly":
        """Polynomial of a reduced (d, n) coefficient array."""
        f = object.__new__(cls)
        f.ctx, f._c, f._inv = ctx, None, None
        f.a = _strip(a.astype(residues(ctx).dtype, copy=False))
        return f

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls.from_residues(ctx, residues(ctx).zeros(0))

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls.from_residues(ctx, residues(ctx).unit(1, 0))

    # -- structure ----------------------------------------------------

    @property
    def c(self) -> tuple:
        if self._c is None:
            self._c = tuple(residues(self.ctx).elements(self.a))
        return self._c

    @property
    def deg(self) -> int:
        """Degree, with deg(0) = -1."""
        return self.a.shape[1] - 1

    def is_zero(self) -> bool:
        return not self.a.shape[1]

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < self.a.shape[1]:
            return FieldElement(self.ctx, tuple(self.a[:, i].tolist()))
        return self.ctx.zero()

    def coeffs(self, n: int) -> np.ndarray:
        """Coefficients 0..n-1 as a (d, n) residue array."""
        if n <= self.a.shape[1]:
            return self.a[:, :n]
        zeros = np.zeros((self.ctx.d, n - self.a.shape[1]), self.a.dtype)
        return np.concatenate([self.a, zeros], axis=1)

    def rev_inverse(self, n: int) -> np.ndarray:
        """The inverse of rev(self) modulo X^n as a (d, n) array, self
        nonzero.  It is kept, so the quotients by one modulus (remainders,
        compute_s_star, verify_approx) share one inverse, computed once when
        its first caller asks for the longest precision."""
        if self._inv is None or self._inv.shape[1] < n:
            self._inv = series_inv(reverse(self, self.deg), n).coeffs(n)
        return self._inv[:, :n]

    def lead(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero("leading coefficient of zero polynomial")
        return self.coeff(self.deg)

    def to_ints(self) -> list:
        """Coefficients as ints (prime field) or coefficient tuples (extension)."""
        if self.ctx.d == 1:
            return self.a[0].tolist()
        return [tuple(c) for c in self.a.T.tolist()]

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if self.ctx != other.ctx:
            raise CtxMismatch(f"{self.ctx} vs {other.ctx}")

    def _combine(self, other, sign):
        self._check(other)
        n = max(self.a.shape[1], other.a.shape[1])
        out = (self.coeffs(n) + sign * other.coeffs(n)) % self.ctx.p
        return Poly.from_residues(self.ctx, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Poly.from_residues(self.ctx, -self.a % self.ctx.p)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        return Poly.from_residues(self.ctx, residues(self.ctx).conv(self.a, other.a))

    def scale(self, k: FieldElement) -> "Poly":
        if k == self.ctx.one():
            return self
        R = residues(self.ctx)
        k = np.array(k.c, dtype=R.dtype)
        return Poly.from_residues(self.ctx, R.scale(k, self.a) % R.p)

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k (k >= 0)."""
        if self.is_zero():
            return self
        zeros = np.zeros((self.ctx.d, k), self.a.dtype)
        return Poly.from_residues(self.ctx, np.concatenate([zeros, self.a], axis=1))

    def monic(self) -> "Poly":
        lead = self.lead()
        return self if lead == self.ctx.one() else self.scale(lead.inv())

    def eval(self, x: FieldElement) -> FieldElement:
        R = residues(self.ctx)
        v = R.evaluate(self.a, np.array(self.ctx.el(x).c, R.dtype)[:, None])
        return FieldElement(self.ctx, tuple(v[:, 0].tolist()))

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
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        return hash((self.ctx, tuple(self.a.ravel().tolist())))

    def __repr__(self):
        return f"Poly({self.to_ints()} over {self.ctx})"


# -- named operations -------------------------------------------------


def reverse(f: Poly, n: int) -> Poly:
    """Degree-n reversal X^n * f(1/X); requires deg f <= n."""
    if f.deg > n:
        raise BadLength(f"cannot reverse degree {f.deg} at length {n}")
    return Poly.from_residues(f.ctx, f.coeffs(n + 1)[:, ::-1])


def series_inv(f: Poly, n: int) -> Poly:
    """Inverse of f modulo X^n by Newton iteration; needs f(0) != 0."""
    if n <= 0:
        return Poly.zero(f.ctx)
    if f.is_zero() or not f.a[:, 0].any():
        raise NotInvertible("constant term is zero")
    R, p = residues(f.ctx), f.ctx.p
    g = R.inv(f.a[:, 0]).T
    k = 1
    while k < n:
        k = min(2 * k, n)
        e = -R.conv(f.a[:, :k], g, slice(0, k)) % p  # g * (2 - f g) mod X^k
        e[0, 0] = (e[0, 0] + 2) % p
        g = R.conv(g, e, slice(0, k))
    return Poly.from_residues(f.ctx, g)


def inherit_rev_inverse(f: Poly, fg: Poly, g: Poly, n: int):
    """Keep on f the inverse of rev(f) modulo X^n, rev(g) / rev(fg) for
    fg = f * g: one product in place of a Newton iteration."""
    f._inv = residues(f.ctx).conv(fg.rev_inverse(n), g.a[:, ::-1], slice(0, n))


def quotients(a: np.ndarray, b: Poly) -> np.ndarray:
    """Quotients by b of the (..., d, L) stack a, L > deg b, as (..., d,
    L - deg b): the top coefficients of each, reversed, times the inverse
    of rev(b) (Poly.rev_inverse), reversed back."""
    k = a.shape[-1] - b.deg
    top = a[..., b.deg :][..., ::-1]
    return residues(b.ctx).conv(top, b.rev_inverse(k), slice(0, k))[..., ::-1]


def remainders(a: np.ndarray, b: Poly) -> np.ndarray:
    """The (..., d, L) stack a, L >= deg b, reduced mod b as (..., d, deg b):
    one stacked quotient and one stacked product for the whole stack."""
    if a.shape[-1] == b.deg:
        return a
    lo = residues(b.ctx).conv(quotients(a, b), b.a, slice(0, b.deg))
    return (a[..., : b.deg] - lo) % b.ctx.p


def poly_divrem(a: Poly, b: Poly) -> tuple:
    """Quotient and remainder of a by b: the Newton quotient, a - b * q."""
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.ctx != b.ctx:
        raise CtxMismatch(f"{a.ctx} vs {b.ctx}")
    if a.deg < b.deg:
        return Poly.zero(a.ctx), a
    q = Poly.from_residues(a.ctx, quotients(a.a, b))
    return q, a - b * q


def _product_tree(ctx: FieldCtx, roots: np.ndarray) -> list:
    """Levels of the product tree of the factors X - roots[:, k]: level t is
    a (2^(h-t), d, 2^t + 1) stack of products of 2^t factors, the leaves
    padded with the constant 1 to a power of two."""
    d, n = roots.shape
    leaves = np.zeros((1 << max(n - 1, 0).bit_length(), d, 2), roots.dtype)
    leaves[:n, :, 0] = -roots.T % ctx.p
    leaves[:n, 0, 1] = 1
    leaves[n:, 0, 0] = 1
    levels = [leaves]
    while len(levels[-1]) > 1:
        level = levels[-1]
        levels.append(residues(ctx).conv(level[0::2], level[1::2]))
    return levels


def _check_nodes(x: np.ndarray, values: np.ndarray):
    """BadLength unless the values (..., d, n) match the nodes x (d, n),
    DuplicateNode unless the nodes are pairwise distinct."""
    if values.shape[-1] != x.shape[1]:
        raise BadLength(f"{x.shape[1]} nodes vs {values.shape[-1]} values")
    if len(set(zip(*x.tolist()))) != x.shape[1]:
        raise DuplicateNode("nodes must be pairwise distinct")


def lagrange_interp(ctx: FieldCtx, x: np.ndarray, ys: np.ndarray) -> tuple:
    """([f_t], M): the unique polynomial f_t of degree < n through the
    nodes x (d, n) and the values ys[t] (d, n) for each t of ys (s, d, n),
    and M = prod_i (X - x_i); x distinct.  Barycentric form on one product
    tree of the nodes: weights w_i = prod_{k != i} (x_i - x_k)
    (_node_weights), c_i = y_i / w_i, and sum_i c_i * M / (X - x_i) combined
    up the tree as f_L * M_R + f_R * M_L, one stacked product of every row
    per level."""
    _check_nodes(x, ys)
    n, s = x.shape[1], len(ys)
    if n == 0:
        return [Poly.zero(ctx) for _ in range(s)], Poly.one(ctx)
    R, p = residues(ctx), ctx.p
    levels = _product_tree(ctx, x)
    fs = []
    if s:
        step = max(1, _WEIGHT_CELLS // (ctx.d * n))
        w = [_node_weights(R, x, lo, min(lo + step, n)) for lo in range(0, n, step)]
        c = R.emul(ys, R.inv_each(np.concatenate(w, axis=1)))
        f = np.zeros((s * len(levels[0]), ctx.d, 1), R.dtype)  # the rows' leaves in turn
        f.reshape(s, -1, ctx.d)[:, :n] = c.transpose(0, 2, 1)
        for m in levels[:-1]:
            m = np.tile(m, (s, 1, 1)) if s > 1 else m
            f = (R.conv(f[0::2], m[1::2]) + R.conv(f[1::2], m[0::2])) % p
        fs = [Poly.from_residues(ctx, g) for g in f]
    return fs, Poly.from_residues(ctx, levels[-1][0])


def _node_weights(R, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """prod_{k != i} (x_i - x_k) for the nodes lo <= i < hi of x (d, n), as
    a (d, hi - lo) array: a halving product over the (hi - lo, d, n) array
    of differences, which lagrange_interp keeps to _WEIGHT_CELLS cells."""
    rows = hi - lo
    diff = x.T[lo:hi, :, None] - x[None, :, :]  # reduced by the products
    diff[np.arange(rows), :, np.arange(lo, hi)] = R.unit(1, 0)[:, 0]
    while diff.shape[-1] > 1:
        if diff.shape[-1] % 2:
            one = np.broadcast_to(R.unit(1, 0), (rows, R.d, 1))
            diff = np.concatenate([diff, one], axis=2)
        diff = R.emul(diff[..., 0::2], diff[..., 1::2])
    return diff[..., 0].T


def weighted_product(ctx: FieldCtx, x: np.ndarray, ms) -> Poly:
    """prod_i (X - x_i)^ms[i] over the distinct nodes x (d, n): one product tree."""
    ms = np.asarray(ms, dtype=np.int64)
    _check_nodes(x, ms)
    if (ms < 0).any():
        raise ValueError("negative multiplicity")
    return Poly.from_residues(ctx, _product_tree(ctx, np.repeat(x, ms, axis=1))[-1][0])
