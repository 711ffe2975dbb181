"""Exact arithmetic in F_p and F_{p^d} behind a single context interface.

A FieldCtx describes either a prime field (d = 1) or an extension
F_p[t]/(f) with f monic irreducible of degree d.  FieldElement is a value
type holding a fully reduced coefficient vector of length d, and
FieldArrays does the same arithmetic on whole numpy arrays of values.  All
higher modules are written against this interface and never branch on d.

Also provides the sampling subset used by the probabilistic solver and the
projection of extension-field nullspace vectors back to the base field.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    CtxMismatch,
    DivisionByZero,
    ExtensionSearchFailed,
    FieldTooSmall,
    ZeroInput,
)

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24,
# which covers every word-sized characteristic.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-sized n."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- minimal coefficient-list arithmetic mod p, used only for ctx setup --
# (the general Poly type lives in poly.py and depends on this module)


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul_mod(a, b, f, p):
    """Product of coefficient lists a*b reduced mod (f, p); f monic."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    d = len(f) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * f[j]) % p
    del out[d:]
    return _ptrim(out)


def _ppow_mod(a, e, f, p):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _pmul_mod(result, base, f, p)
        base = _pmul_mod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic on the fly
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]
        r = list(a)
        while len(r) >= len(bm) and r:
            c = r[-1]
            if c:
                off = len(r) - len(bm)
                for j in range(len(bm)):
                    r[off + j] = (r[off + j] - c * bm[j]) % p
            _ptrim(r)
            if not r:
                break
            if len(r) < len(bm):
                break
        a, b = b, _ptrim(r)
    return a


def _prime_divisors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f, p):
    """Rabin's test for a monic coefficient list f of degree d >= 1 over F_p."""
    d = len(f) - 1
    if d == 1:
        return True
    x = [0, 1]
    for q in _prime_divisors(d):
        h = _ppow_mod(x, p ** (d // q), f, p)
        # gcd(f, x^(p^(d/q)) - x) must be constant
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) != 1:
            return False
    return _ppow_mod(x, p**d, f, p) == x


class FieldCtx:
    """Immutable description of F_p (d = 1) or F_p[t]/(f) (d > 1)."""

    __slots__ = ("p", "d", "modulus", "_zero", "_one")

    def __init__(self, p: int, modulus=None, _trusted: bool = False):
        if not _trusted and not is_probable_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        if modulus is None:
            self.d = 1
            self.modulus = None
        else:
            mod = tuple(c % p for c in modulus)
            if len(mod) < 3 or mod[-1] != 1:
                raise ValueError("defining polynomial must be monic of degree >= 2")
            if not _trusted and not _is_irreducible(list(mod), p):
                raise ValueError("defining polynomial is reducible")
            self.d = len(mod) - 1
            self.modulus = mod
        self._zero = FieldElement(self, (0,) * self.d)
        self._one = FieldElement(self, (1,) + (0,) * (self.d - 1))

    @property
    def order(self) -> int:
        return self.p**self.d

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def el(self, value) -> "FieldElement":
        """Coerce an int (d = 1 semantics: value mod p in slot 0) or a coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise CtxMismatch("element from a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.d - 1))
        c = tuple(int(v) % self.p for v in value)
        if len(c) > self.d:
            raise ValueError("coefficient vector longer than extension degree")
        return FieldElement(self, c + (0,) * (self.d - len(c)))

    def from_index(self, i: int) -> "FieldElement":
        """i-th element in the canonical enumeration (little-endian base-p digits)."""
        p = self.p
        c = []
        for _ in range(self.d):
            c.append(i % p)
            i //= p
        return FieldElement(self, tuple(c))

    def rand(self, rng) -> "FieldElement":
        return self.from_index(rng.randrange(self.order))

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.d == other.d
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        if self.d == 1:
            return f"F{self.p}"
        return f"F{self.p}^{self.d}"


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> FieldCtx:
    """Cached constructor for F_p."""
    return FieldCtx(p)


class FieldElement:
    """Value type: fully reduced coefficient vector over a FieldCtx."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        self.c = coeffs

    def is_zero(self) -> bool:
        return not any(self.c)

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise CtxMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        if self.ctx.d == 1:
            return FieldElement(self.ctx, ((self.c[0] + other.c[0]) % p,))
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        if self.ctx.d == 1:
            return FieldElement(self.ctx, ((self.c[0] - other.c[0]) % p,))
        return FieldElement(self.ctx, tuple((a - b) % p for a, b in zip(self.c, other.c)))

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.c))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        p = ctx.p
        if ctx.d == 1:
            return FieldElement(ctx, ((self.c[0] * other.c[0]) % p,))
        prod = _pmul_mod(list(self.c), list(other.c), list(ctx.modulus), p)
        return FieldElement(ctx, tuple(prod) + (0,) * (ctx.d - len(prod)))

    def inv(self) -> "FieldElement":
        ctx = self.ctx
        p = ctx.p
        if ctx.d == 1:
            a = self.c[0]
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return FieldElement(ctx, (pow(a, -1, p),))
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # extended Euclid over F_p[t]
        r0, r1 = list(ctx.modulus), _ptrim(list(self.c))
        s0, s1 = [], [1]
        while r1:
            inv_lead = pow(r1[-1], p - 2, p)
            q = []
            r = list(r0)
            while len(r) >= len(r1) and r:
                c = (r[-1] * inv_lead) % p
                off = len(r) - len(r1)
                if len(q) < off + 1:
                    q.extend([0] * (off + 1 - len(q)))
                q[off] = c
                for j in range(len(r1)):
                    r[off + j] = (r[off + j] - c * r1[j]) % p
                _ptrim(r)
            # s_next = s0 - q*s1
            qs1 = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs1[i + j] = (qs1[i + j] + qi * sj) % p
            s_next = [0] * max(len(s0), len(qs1))
            for i, v in enumerate(s0):
                s_next[i] = v
            for i, v in enumerate(qs1):
                s_next[i] = (s_next[i] - v) % p
            r0, r1 = r1, r
            s0, s1 = s1, _ptrim(s_next)
        # r0 = gcd (a nonzero constant since modulus is irreducible)
        scale = pow(r0[0], p - 2, p)
        out = [(v * scale) % p for v in s0]
        return FieldElement(ctx, tuple(out) + (0,) * (ctx.d - len(out)))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def to_index(self) -> int:
        """Position in the canonical enumeration (inverse of FieldCtx.from_index)."""
        i = 0
        for a in reversed(self.c):
            i = i * self.ctx.p + a
        return i

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.c == other.c
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.d, self.c))

    def __repr__(self):
        if self.ctx.d == 1:
            return f"{self.c[0]}"
        return "(" + ",".join(str(a) for a in self.c) + ")"


class FieldArrays:
    """Elementwise arithmetic on numpy arrays of values of one field.

    Only the representation depends on the field: int64 residues when
    p < 2^31, so every product of two residues stays below 2^62; object
    arrays of Python ints for larger primes; object arrays of FieldElement
    for F_{p^d}, whose operators reduce by themselves.  Callers write one
    code path with `+`, `-`, `*` and reduce with `mod`.
    """

    __slots__ = ("ctx", "p", "dtype")

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p if ctx.d == 1 else None
        self.dtype = np.int64 if ctx.d == 1 and ctx.p < 2**31 else object

    def scalar(self, e: FieldElement):
        return e if self.p is None else e.c[0]

    def const(self, v: int):
        return self.ctx.el(v) if self.p is None else v % self.p

    def array(self, elems) -> np.ndarray:
        return np.array([self.scalar(e) for e in elems], dtype=self.dtype)

    def full(self, n: int, value) -> np.ndarray:
        return np.full(n, value, dtype=self.dtype)

    def mod(self, a):
        return a if self.p is None else a % self.p

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse; every entry must be nonzero."""
        if self.p is None:
            return np.array([e.inv() for e in a], dtype=object)
        return np.array([pow(int(v), -1, self.p) for v in a], dtype=self.dtype)

    def total(self, a: np.ndarray):
        """Sum of a nonempty array, reduced."""
        return self.mod(np.add.reduce(a))

    def nonzero(self, a: np.ndarray) -> np.ndarray:
        if self.p is None:
            return np.array([not e.is_zero() for e in a], dtype=bool)
        return a != 0

    def elements(self, a) -> list:
        if self.p is None:
            return list(a)
        return [FieldElement(self.ctx, (int(v),)) for v in a]


def build_extension(base: FieldCtx, d: int, rng) -> FieldCtx:
    """Return F_{p^d} with a randomly found monic irreducible defining polynomial."""
    if base.d != 1:
        raise ValueError("base context must be a prime field")
    if d < 1:
        raise ValueError("extension degree must be >= 1")
    if d == 1:
        return base
    p = base.p
    tries = 0
    budget = 200 * d + 200
    while tries < budget:
        tries += 1
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if _is_irreducible(f, p):
            return FieldCtx(p, tuple(f), _trusted=True)
    raise ExtensionSearchFailed(f"no irreducible of degree {d} over F_{p} found in {budget} tries")


def sample_subset_element(ctx: FieldCtx, min_size: int, rng) -> FieldElement:
    """Uniform draw from the canonical subset S of >= min_size elements.

    S is the whole field when |ctx| < 2*min_size, otherwise the first
    min_size elements of the canonical enumeration.  Raises FieldTooSmall
    when even the whole field is smaller than min_size.
    """
    order = ctx.order
    if order < min_size:
        raise FieldTooSmall(f"|F| = {order} < required subset size {min_size}")
    size = order if order < 2 * min_size else min_size
    return ctx.from_index(rng.randrange(size))


def project_solution_to_base(sol, base: FieldCtx = None):
    """Extract a nonzero base-field slice from an extension-field nullspace vector.

    If A has base-field entries and A*sol = 0 over F_{p^d}, every coefficient
    slice of sol is in the base-field nullspace of A; this returns the first
    nonzero one.
    """
    if not sol:
        raise ZeroInput("empty solution vector")
    ctx = sol[0].ctx
    if base is None:
        base = prime_field(ctx.p)
    if ctx.d == 1:
        if all(e.is_zero() for e in sol):
            raise ZeroInput("zero solution vector")
        return list(sol)
    for i in range(ctx.d):
        if any(e.c[i] for e in sol):
            return [base.el(e.c[i]) for e in sol]
    raise ZeroInput("zero solution vector")
