"""Exact arithmetic in F_p and F_{p^d} behind a single context interface.

A FieldCtx describes either a prime field (d = 1) or an extension
F_p[t]/(f) with f monic irreducible of degree d.  FieldElement is a value
type holding a fully reduced coefficient vector of length d; at d > 1 it
inverts through Residues.  Residues is the one array layer: n values of
either kind of field are a (d, n) array of residues mod p, and every bulk
computation (polynomials, generators, the structured kernel, the verifiers)
runs on it.  All higher modules are written against this interface and
never branch on d.

Also builds the extension fields F_{p^d} that the structured kernel lifts a
too-small prime field to.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (
    CtxMismatch,
    DivisionByZero,
    ExtensionSearchFailed,
)

# Miller-Rabin witnesses, the first 13 primes: deterministic below _MR_BOUND,
# the smallest strong pseudoprime to all of them (Sorenson & Webster, Math.
# Comp. 2017), so FieldCtx refuses a characteristic from there up
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
_INT64_SAFE = 2**62
_INT64 = np.dtype(np.int64)
# Residues.conv takes one product table, costing about one np.convolve call
# plus one per _SKEW_PAIR of its m * (n + m) cells a pair, while that beats a
# call per pair, up to _SKEW_CELLS (2^18: GF(2^8) gs at n = 200 ran ~10% faster
# than at 2^16).  It picked the faster way in 136 of 147 timed shapes over
# F_101 (2-32 pairs, m = 2-30, n = m-4m), the old m <= count in 91
_SKEW_PAIR = 3072
_SKEW_CELLS = 1 << 18
# residue-row products times m^2 from which conv and conv_sum take FFT products.
# A kernel level on kept spectra (Residues.transform), FFT against np.convolve
# per level: 1.14x at 1.3e5 (2 pairs, m = 257), 0.94x at 1.6e5 (4, 200), 0.81x
# at 2.6e5 (4, 257: gs_wide), 0.38x at 1.5e6 (10, 385: gs_deep); products of
# fresh operands tie from 2e5 to 3e5 (0.8-1.2x by how far m pads to 2^L)
_FFT_WORK = 200_000
# bytes of complex128 limb products per chunk of an FFT product's output rows
# (_fft_pairs), so that a batch of products needs temporaries no larger than
# its parts did.  Minor page faults per gs_deep kernel call, median over 59
# instances: 474 unchunked, 323 at 2^16 to 2^18, 407 at 2^19 (315 before the
# preconditioning's products were batched); over 6 instances solved again and
# again, per solve: 434 unchunked, 88 at 2^16, 17 at 2^17, 1 at 2^18 (142)
_FFT_CHUNK = 1 << 18
# n + m - 1 = 2^L + w runs cyclic at 2^L while w^2 <= _WRAP * 2^L (_plan).  A
# kernel level against 2^(L+1), median of 40 runs: 2^L = 256 0.85x at w = 1,
# 0.98x at 33, 1.07x at 47; 512 0.83x at 1, 1.03x at 47; 1024 0.84x at 63
_WRAP = 4


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < _MR_BOUND."""
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


# -- coefficient-list arithmetic in F_p[t]: Rabin's test, FieldElement --
# -- products and the inverses of extension scalars (Residues.inv)     --
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


def _pxgcd(a, b, p):
    """(g, s) with g a gcd of the coefficient lists a and b over F_p and
    s*a = g mod b, by the extended Euclidean algorithm (von zur Gathen &
    Gerhard, Modern Computer Algebra, Alg. 3.14); g is b when a is zero."""
    r0, r1 = _ptrim(list(b)), _ptrim(list(a))
    s0, s1 = [], [1]
    while r1:
        inv_lead = pow(r1[-1], -1, p)
        q = [0] * (len(r0) - len(r1) + 1)
        while len(r0) >= len(r1):  # r0 becomes r0 mod r1
            off = len(r0) - len(r1)
            q[off] = c = r0[-1] * inv_lead % p
            for j, v in enumerate(r1):
                r0[off + j] = (r0[off + j] - c * v) % p
            _ptrim(r0)
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))  # s0 - q*s1
        for i, qi in enumerate(q):
            for j, v in enumerate(s1):
                s[i + j] = (s[i + j] - qi * v) % p
        r0, r1, s0, s1 = r1, r0, s1, _ptrim(s)
    return r0, s0


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
        if len(_pxgcd(diff, f, p)[0]) != 1:
            return False
    return _ppow_mod(x, p**d, f, p) == x


class FieldCtx:
    """Immutable description of F_p (d = 1) or F_p[t]/(f) (d > 1)."""

    __slots__ = ("p", "d", "modulus", "_zero", "_one", "_residues")

    def __init__(self, p: int, modulus=None, _trusted: bool = False):
        if not _trusted and p >= _MR_BOUND:
            raise ValueError(f"characteristic {p} is too large to certify prime")
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
        self._residues = None  # built by residues() on first use

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
            if value.ctx is not self and value.ctx != self:
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


@functools.lru_cache(maxsize=32)
def prime_field(p: int) -> FieldCtx:
    """Cached constructor for F_p.  The cache is bounded: a context it
    evicts and builds again compares equal to the old one, so elements of
    both still combine."""
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
        """At d > 1, Residues.inv of its residues."""
        ctx = self.ctx
        if ctx.d == 1:
            a = self.c[0]
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return FieldElement(ctx, (pow(a, -1, ctx.p),))
        R = residues(ctx)
        return R.elements(R.inv(np.array(self.c)).T)[0]

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


class Residues:
    """Arithmetic on (..., d, n) residue arrays of one field, d = 1 included.

    A vector of n elements of F_p[t]/(f) is a (d, n) array of residues mod
    p; products use the multiplication table of F_p[t]/(f), and polynomial
    products are d^2 residue convolutions folded by it.  Arrays are stored
    in `dtype`, int64 while an entrywise product and its fold stay below
    2^62, else object (Python ints), with the same code.  The long sums
    (conv, evaluate, combine, dot) choose their own accumulation dtype by
    sum_dtype from the number of products they add and return the storage
    dtype, or object when an operand is object.

    Polynomial products choose their method by size, as sum_dtype chooses
    the dtype: long ones are exact float64 FFT products of the b-bit limbs
    that fft_limbs picks within Percival's rounding bound, cyclic when they
    just pass a power of two (_plan), short ones np.convolve calls or one
    skewed product table (conv_sum).

    Callers never branch on d; the prime-field shortcuts are here.  inv
    is the extended Euclid of each scalar's residue list and f, at d = 1
    pow(s, -1, p) of Python ints.  At d = 1 emul and mul are one product,
    scale one broadcast multiply left unreduced, combine and dot one product
    of residue rows, and the residue-pair fold a view.  One float64 product
    sums f64_terms = (2^53 - 1) // (d (p - 1)^2) scalar products exactly.
    """

    def __init__(self, ctx: FieldCtx):
        p, d = ctx.p, ctx.d
        self.ctx, self.p, self.d = ctx, p, d
        self._int64_terms = (_INT64_SAFE - 1) // (d * (p - 1) ** 2) - d
        self.dtype = self.sum_dtype(0)
        self.f64_terms = (2**53 - 1) // (d * (p - 1) ** 2) if self.dtype is np.int64 else 0
        powers = [[1] + [0] * (d - 1)]  # t^e mod f, e < 2d - 1
        for _ in range(2 * d - 2):
            prev = powers[-1]
            shifted = zip([0] + prev[:-1], ctx.modulus)
            powers.append([(lo - prev[-1] * f) % p for lo, f in shifted])
        # table[a, b, k]: coefficient of t^k in t^(a+b) mod f
        table = np.array(
            [[powers[a + b] for b in range(d)] for a in range(d)], dtype=self.dtype
        )
        self._by_scalar = table.transpose(0, 2, 1).reshape(d, d * d)
        self._fold = table.reshape(d * d, d).T.copy()

    def sum_dtype(self, terms: int):
        """int64 while d*(p-1)^2*(terms + d) < 2^62, object above: the dtype
        for sums of `terms` products of field elements in residue form (a
        fold of d^2 residue products included), left unreduced."""
        return np.int64 if terms <= self._int64_terms else object

    def fft_limbs(self, n: int, terms: int):
        """(k, b): the fewest b-bit limbs per residue, k <= 2, for which
        float64 FFT products of operands up to n long, `terms` of them
        summed per coefficient, round exactly; None if two are not enough.

        With limbs below 2^b, a sum of t cyclic convolutions at length 2^L
        is off by less than t * n * (2^b - 1)^2 * (13 L + 3) * 2^-53
        (Percival, Math. Comp. 2003, unit roundoff and twiddle error 2^-53),
        which must stay below 1/2: n (2^b - 1)^2 bounds the product of the
        operands' Euclidean norms, cyclic products (_plan) included, and
        2^L >= 2n - 1 their length.  The inverse transforms take the limb
        products of equal shift together, so t = terms * k.
        """
        L = (2 * n - 2).bit_length()
        bits = (self.p - 1).bit_length()
        for k in (1, 2):
            b = -(-bits // k)
            if terms * k * n * ((1 << b) - 1) ** 2 * (13 * L + 3) < 1 << 52:
                return k, b
        return None

    def _dtypes(self, terms: int, a: np.ndarray, b: np.ndarray):
        """Accumulation and result dtypes for sums of `terms` products of
        entries of a and b: object throughout when an operand is object."""
        if self.dtype is object or a.dtype.hasobject or b.dtype.hasobject:
            return object, object
        return self.sum_dtype(terms), np.int64

    def array(self, elems) -> np.ndarray:
        """(d, n) residues of n FieldElements."""
        flat = itertools.chain.from_iterable(e.c for e in elems)
        flat = np.fromiter(flat, self.dtype, len(elems) * self.d)
        return flat.reshape(len(elems), self.d).T.copy()

    def elements(self, a: np.ndarray) -> list:
        return [FieldElement(self.ctx, tuple(c)) for c in a.T.tolist()]

    def zeros(self, n: int) -> np.ndarray:
        return np.zeros((self.d, n), dtype=self.dtype)

    def unit(self, n: int, i: int) -> np.ndarray:
        e = self.zeros(n)
        e[0, i] = 1
        return e

    def is_zero(self, a: np.ndarray) -> bool:
        return not np.count_nonzero(a)

    def inv(self, *s: np.ndarray) -> np.ndarray:
        """Inverses of the scalars s, each (d,), stacked as (len(s), d);
        DivisionByZero on a zero.  At d = 1 each is one pow(x, -1, p) of a
        Python int, else the extended Euclid (_pxgcd) of its residue list
        and the modulus, whose gcd is a nonzero constant unless it is zero."""
        if self.d == 1:
            try:
                return np.array([[pow(int(x[0]), -1, self.p)] for x in s], self.dtype)
            except ValueError:
                raise DivisionByZero("inverse of zero") from None
        p, out = self.p, []
        for x in s:
            g, inv = _pxgcd(x.tolist(), self.ctx.modulus, p)
            if len(g) != 1:
                raise DivisionByZero("inverse of zero")
            c = pow(g[0], -1, p)
            out.append([v * c % p for v in inv] + [0] * (self.d - len(inv)))
        return np.array(out, self.dtype)

    def inv_each(self, a: np.ndarray) -> np.ndarray:
        """Entrywise inverses of a (..., d, n) array without zero entries,
        as a^(|F| - 2) by repeated squaring."""
        out = np.zeros_like(a, dtype=self.dtype)
        out[..., 0, :] = 1
        e = self.ctx.order - 2
        while e:
            if e & 1:
                out = self.emul(out, a)
            a = self.emul(a, a)
            e >>= 1
        return out

    def mul_matrix(self, c: np.ndarray) -> np.ndarray:
        """(..., d, d) matrices of multiplication by the scalars c (..., d)."""
        m = self._matmul(c.reshape(-1, self.d), self._by_scalar, 1) % self.p
        return m.reshape(c.shape[:-1] + (self.d, self.d))

    def mul(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Scalars c (..., d) times scalars s (..., d), broadcast, reduced."""
        if self.d == 1:
            return c * s % self.p
        return self.emul(c[..., None], s[..., None])[..., 0]

    def _fold_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """(..., d, d, n) reduced products of residue pairs (a, b) folded by
        t^(a+b) mod f into (..., d, n), reduced; for d = 1 the fold is the
        identity."""
        if self.d == 1:
            return pairs[..., 0, :, :]
        flat = pairs.reshape(pairs.shape[:-3] + (self.d * self.d, pairs.shape[-1]))
        return self._matmul(self._fold, flat, self.d) % self.p

    def emul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entrywise products of (..., d, n) arrays, reduced; at d = 1 one
        product and one reduction."""
        if self.d == 1:
            return a * b % self.p
        return self._fold_pairs((a[..., :, None, :] * b[..., None, :, :]) % self.p)

    def scale(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The vectors v (..., d, n) times the scalars a (..., d), leading
        axes broadcast, each entry below p^2.  At d = 1 it is one broadcast
        multiply, left unreduced; above, one product of a's multiplication
        matrices with v, reduced."""
        if self.d == 1:
            return a[..., None] * v
        return self._matmul(self.mul_matrix(a), v, 1) % self.p

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Values of the polynomials with (..., d, L) coefficient arrays at
        every entry of x (d, n), as (..., d, n): one product with the table
        of the powers x^s, s < L, which takes log L entrywise products.
        Its sums add L products."""
        L = coeffs.shape[-1]
        acc, out = self._dtypes(L, coeffs, x)
        powers = np.zeros((L,) + x.shape, dtype=x.dtype)
        powers[:1, 0] = 1  # x^0, none for the zero polynomial (L = 0)
        k, xk = 1, x
        while k < L:
            take = min(k, L - k)
            powers[k : k + take] = self.emul(powers[:take], xk)
            k, xk = 2 * k, self.emul(xk, xk)
        pairs = coeffs.astype(acc, copy=False) @ powers.astype(acc, copy=False).reshape(L, x.size)
        pairs = pairs.reshape(coeffs.shape[:-1] + x.shape) % self.p
        return self._fold_pairs(pairs).astype(out, copy=False)

    def combine(self, c: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """sum_j c_j * vs_j for scalars c (..., J, d) and vectors vs
        (..., J, d, n), leading axes broadcast, as (..., d, n), reduced: one
        product, at d = 1 of c with vs, above of c's multiplication matrices
        with vs.  Where vs is shared along c's last leading axis, that axis
        joins the product's rows: one BLAS call, not one per row."""
        J, d = c.shape[-2:]
        lead, n = c.shape[:-2], vs.shape[-1]
        if d == 1:
            flat = c.swapaxes(-1, -2)
        else:
            flat = self.mul_matrix(c).swapaxes(-3, -2).reshape(lead + (d, J * d))
        vs = vs.reshape(vs.shape[:-3] + (J * d, n))
        shared = len(lead) > 0 and (vs.ndim == 2 or vs.shape[-3] == 1)
        if shared:
            flat = flat.reshape(lead[:-1] + (lead[-1] * d, J * d))
            vs = vs if vs.ndim == 2 else vs[..., 0, :, :]
        if c.dtype == vs.dtype == _INT64 and J <= self._int64_terms:  # no casts, ~2% of a step
            sums = self.reduce(self._matmul(flat, vs, J))
        else:
            acc, out = self._dtypes(J, c, vs)
            sums = (flat.astype(acc, copy=False) @ vs % self.p).astype(out, copy=False)
        return sums.reshape(sums.shape[:-2] + (lead[-1], d, n)) if shared else sums

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x mod p in place: x - (x // p) * p takes half of %'s int64 time."""
        x -= x // self.p * self.p
        return x

    def _matmul(self, a: np.ndarray, b: np.ndarray, terms: int) -> np.ndarray:
        """a @ b of residues below p in absolute value, sums of d * terms
        scalar products: one float64 product over int64 (BLAS, ~20x numpy's
        int64 matmul) up to f64_terms, exact below 2^53, else a @ b."""
        if terms <= self.f64_terms and a.dtype == b.dtype == _INT64:
            return (a.astype(np.float64) @ b.astype(np.float64)).astype(_INT64)
        return a @ b

    def dot(self, a: np.ndarray, b: np.ndarray):
        """sum_u a[..., :, u] * b[u] of (..., d, n) vectors and an (n, d)
        one, as reduced scalars (..., d), in b's dtype, which the caller casts
        to sum_dtype(n) once for many dots: one product.  At d = 1 one vector
        is one np.vdot, which reads both flat, and its scalar a number."""
        if self.d == 1:
            if a.size == b.size:
                return np.vdot(a, b) % self.p
            return (a[..., 0, :] @ b[:, 0] % self.p)[..., None]
        pairs = (a @ b) % self.p
        return pairs.reshape(a.shape[:-2] + (-1,)) @ self._fold.T % self.p

    def _plan(self, count: int, n: int, m: int, terms: int):
        """(length, k, bits) of the FFT products of `count` residue-row pairs
        of lengths n >= m, `terms` of them summed per coefficient, when the
        pairs times m^2 reach _FFT_WORK over int64 residues and fft_limbs
        finds limbs; None when they are not FFT products.  The length is the
        power of two at or above n + m - 1, or half that when n + m - 1 passes
        it by w < m with w^2 <= _WRAP * length: cyclic products (_unwrap)."""
        if self.dtype is not np.int64 or count * m * m < _FFT_WORK:
            return None
        length = 1 << (n + m - 2).bit_length()
        w = n + m - 1 - length // 2
        if w < m and w * w <= _WRAP * length // 2:
            length //= 2
        limbs = self.fft_limbs(n, terms)
        return limbs and (length,) + limbs

    def transform(self, x: np.ndarray, m: int):
        """x (c, ..., d, n) as a Spectrum for its products with operands up
        to m long (conv_sum over c, conv and corr) when those are FFT
        products, decided from the sizes as conv_sum decides; else x."""
        n = x.shape[-1]
        plan = self._plan(math.prod(x.shape[:-2]) * self.d**2, max(n, m), min(n, m), len(x))
        if plan is None:
            return x
        both = _limb_spectra(np.stack([x, x[..., ::-1]]), *plan)
        return Spectrum(x, plan, both[:, 0], both[:, 1])

    def conv(self, a: np.ndarray, b: np.ndarray, keep=slice(None)) -> np.ndarray:
        """Polynomial products of (..., d, n) and (..., d, m) arrays of
        reduced residues, leading axes broadcast, as (..., d, n + m - 1),
        reduced, or only the coefficients `keep`.  Either operand may be a
        Spectrum.

        One pair of int64 residue rows (d = 1, all leading axes of length
        1) below the FFT crossover is one np.convolve and one reduction.
        Otherwise, over int64 residues, once the residue-row products times
        m^2 (m the shorter length) reach _FFT_WORK and fft_limbs finds limbs,
        these are float64 FFT products of b-bit limbs, taking a Spectrum's
        kept limb spectra.  Below that, short products (_SKEW_PAIR) run at
        once as one table of every y_u * x skewed by u and summed, or each
        pair of residue rows is one np.convolve, or with Python ints one
        product of two long integers (Kronecker substitution).
        """
        if a.shape[-1] < b.shape[-1]:
            a, b = b, a
        d, n, m = self.d, a.shape[-1], b.shape[-1]
        if (
            type(a) is type(b) is np.ndarray
            and a.size == n
            and b.size == m
            and m <= self._int64_terms
            and m * m < _FFT_WORK
            and a.dtype == b.dtype == _INT64
        ):
            out = np.convolve(a.ravel(), b.ravel())[keep] % self.p
            return out[(None,) * (max(a.ndim, b.ndim) - 1)]  # the leading axes
        acc, out = self._dtypes(m, a, b)
        lead = a.shape[:-2]
        if lead != b.shape[:-2]:
            lead = np.broadcast_shapes(lead, b.shape[:-2])
        count = math.prod(lead) * d * d
        plan = self._plan(count, n, m, 1)
        if plan:
            pairs = self._fft_pairs(a[None], b[None], keep, plan)  # sums of one term
            return self._fold_pairs(pairs).astype(out, copy=False)
        a, b = _array(a).astype(acc, copy=False), _array(b).astype(acc, copy=False)
        cells = m * (n + m)
        if count * (_SKEW_PAIR - cells) > _SKEW_PAIR and count * cells <= _SKEW_CELLS:
            table = np.zeros(lead + (d, d, m, n + m), dtype=acc)
            table[..., :n] = a[..., :, None, None, :] * b[..., None, :, :, None]
            flat = table.reshape(lead + (d, d, m * (n + m)))[..., : m * (n + m - 1)]
            pairs = flat.reshape(lead + (d, d, m, n + m - 1)).sum(axis=-2)
        else:
            if a.shape[:-2] != b.shape[:-2]:
                a, b = np.broadcast_to(a, lead + (d, n)), np.broadcast_to(b, lead + (d, m))
            lead += (d, d)
            rows = zip(a.reshape(-1, d, n), b.reshape(-1, d, m))
            one = np.convolve if acc is np.int64 else _kronecker
            pairs = [one(x, y) for xs, ys in rows for x in xs for y in ys]
            pairs = np.array(pairs, dtype=acc).reshape(lead + (n + m - 1,))
        return self._fold_pairs(pairs[..., keep] % self.p).astype(out, copy=False)

    def conv_sum(self, a: np.ndarray, b: np.ndarray, keep=slice(None)) -> np.ndarray:
        """sum_c conv(a_c, b_c) over the first axis of (c, ..., d, n) and
        (c, ..., d, m) arrays or Spectra, reduced; FFT products are summed
        over c in the frequency domain before the inverse transforms."""
        n, m = max(a.shape[-1], b.shape[-1]), min(a.shape[-1], b.shape[-1])
        count = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])) * self.d**2
        plan = self._plan(count, n, m, a.shape[0])
        if not plan:
            return self.conv(_array(a), _array(b), keep).sum(axis=0) % self.p
        out = self._dtypes(0, a, b)[1]
        return self._fold_pairs(self._fft_pairs(a, b, keep, plan)).astype(out, copy=False)

    def _fft_pairs(self, a, b, keep, plan) -> np.ndarray:
        """Products of (c, ..., d, n) and (c, ..., d, m) arrays or Spectra
        summed over c, as (..., d, d, n + m - 1) residue-row pairs before the
        fold, reduced, or only the coefficients `keep` (a slice).  Each
        operand's k limbs of `bits` bits are transformed at `length` (a
        Spectrum made for this plan brings them).  The output is made in
        chunks along its first leading axis whose limb products take at most
        _FFT_CHUNK bytes (_fft_chunk), and unwrapped if cyclic (_unwrap)."""
        nd = max(len(a.shape), len(b.shape))  # align the leading axes of both
        a, b = (x[(slice(None),) + (None,) * (nd - len(x.shape))] for x in (a, b))
        A, B = (
            x.data if isinstance(x, Spectrum) and x.plan == plan else _limb_spectra(_array(x), *plan)
            for x in (a, b)
        )
        lead = tuple(map(max, A.shape[2:-2], B.shape[2:-2]))  # the broadcast shape
        size = a.shape[-1] + b.shape[-1] - 1
        lo, hi, _ = keep.indices(size)
        cyclic = slice(lo, min(hi, plan[0]))
        row = plan[1] ** 2 * math.prod(lead[1:]) * A.shape[-2] * B.shape[-2] * A.shape[-1] * 16
        step = max(1, _FFT_CHUNK // row)  # rows of complex128 limb products per chunk
        if not lead or step >= lead[0]:
            out = self._fft_chunk(A, B, cyclic, plan)
        else:
            rows = [slice(i, i + step) for i in range(0, lead[0], step)]
            A, B = ([x[:, :, r] if x.shape[2] > 1 else x for r in rows] for x in (A, B))
            out = np.concatenate([self._fft_chunk(x, y, cyclic, plan) for x, y in zip(A, B)])
        return out if size <= plan[0] else self._unwrap(_array(a), _array(b), out, lo, hi, plan[0])

    def _fft_chunk(self, A, B, keep, plan) -> np.ndarray:
        """_fft_pairs of limb spectra: the limb products summed over c and
        over i + j = s in the frequency domain, and after 2k - 1 inverse
        transforms the rounded sums at `keep` recombined mod p.  A merged sum
        holds up to k limb products; fft_limbs allows for them."""
        (length, k, bits), p = plan, self.p
        prods = np.einsum("kc...iz,lc...jz->kl...ijz", A, B)
        prods = prods.reshape((k * k,) + prods.shape[2:])
        if k == 2:  # rows 0, 1, 2 become the limb shifts 0, 1, 2
            prods[1] += prods[2]
            prods[2] = prods[3]
        sums = np.fft.irfft(prods[: 2 * k - 1], length)[..., keep]
        sums += 0.5  # each is within 1/2 of an integer in [0, 2^52): truncation rounds
        sums = sums.astype(np.int64)
        out = sums[-1] % p
        for s in range(len(sums) - 2, -1, -1):  # sum_s 2^(bits s) sums[s]
            out <<= bits
            out += sums[s]
            out %= p
        return out

    def _unwrap(self, a, b, out, lo, hi, length) -> np.ndarray:
        """Coefficients lo..hi-1 of _fft_pairs' products from `out`, their
        cyclic ones at `length` from lo on.  Coefficient length + i, i < w,
        wrapped onto coefficient i: it is sum_c,r a_c[n-1-r] b_c[m-w+i+r],
        a's last w coefficients against the w x w Hankel matrix of b's."""
        p, w = self.p, a.shape[-1] + b.shape[-1] - 1 - length
        acc = self.sum_dtype(max(len(a), len(b)) * w)
        tail = np.zeros(b.shape[:-1] + (2 * w - 1,), acc)
        tail[..., :w] = b[..., -w:]
        hankel = tail[..., None, :, np.add.outer(np.arange(w), np.arange(w))]  # [r, i]: b[m-w+i+r]
        wrapped = (a[..., None, None, : -w - 1 : -1].astype(acc) @ hankel).sum(0)[..., 0, :]
        wrapped = (wrapped % p).astype(np.int64, copy=False)
        head = out[..., : max(min(hi, w) - lo, 0)]  # the kept coefficients below w
        head -= wrapped[..., lo : lo + head.shape[-1]]
        head %= p
        return np.concatenate([out, wrapped[..., max(lo - length, 0) : max(hi - length, 0)]], -1)

    def corr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """out[t] = sum_u a[t+u] * b[u] for t < len(a); either operand may
        be a Spectrum."""
        m = b.shape[-1]
        return self.conv(a, flip(b), slice(m - 1, m - 1 + a.shape[-1]))


class Spectrum:
    """A (c, ..., d, n) residue array kept with the limb spectra its FFT
    products take: the rfft at transform length `length` of its k limbs of
    `bits` bits, plan = (length, k, bits), and those of the array reversed.
    Residues.transform makes one; conv, conv_sum and corr take it in place
    of the array, so an operand of many products is transformed once, and
    its leading axes index like the array's."""

    __slots__ = ("array", "shape", "dtype", "plan", "data", "rev")

    def __init__(self, array: np.ndarray, plan: tuple, data: np.ndarray, rev: np.ndarray):
        self.array, self.shape, self.dtype = array, array.shape, array.dtype
        self.plan, self.data, self.rev = plan, data, rev

    def __getitem__(self, key):
        at = (slice(None),) + (key if isinstance(key, tuple) else (key,))  # past the limbs
        return Spectrum(self.array[at[1:]], self.plan, self.data[at], self.rev[at])


def flip(x):
    """x reversed along its last axis: a view of an array, or a Spectrum of
    the reversal, whose limb spectra x keeps."""
    if isinstance(x, Spectrum):
        return Spectrum(x.array[..., ::-1], x.plan, x.rev, x.data)
    return x[..., ::-1]


def _array(x):
    return x.array if isinstance(x, Spectrum) else x


def _limb_spectra(x: np.ndarray, length: int, k: int, bits: int) -> np.ndarray:
    """rfft at `length` of the k limbs of `bits` bits of the residues x, as
    (k,) + x.shape[:-1] + (length // 2 + 1,)."""
    x = x.astype(np.int64, copy=False)
    mask = (1 << bits) - 1
    return np.fft.rfft(np.stack([(x >> bits * i) & mask for i in range(k)]), length)


def _kronecker(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact convolution of two arrays of nonnegative Python ints: each is
    packed into one integer with a slot wide enough for any output
    coefficient, the two are multiplied, and the product is unpacked."""
    bound = min(len(x), len(y)) * max(int(x.max()), 1) * max(int(y.max()), 1)
    width = bound.bit_length() // 8 + 1
    packed = [
        int.from_bytes(b"".join(int(c).to_bytes(width, "little") for c in v), "little")
        for v in (x, y)
    ]
    out = (packed[0] * packed[1]).to_bytes(width * (len(x) + len(y) - 1), "little")
    slots = range(0, len(out), width)
    return np.array([int.from_bytes(out[s : s + width], "little") for s in slots], dtype=object)


def residues(ctx: FieldCtx) -> Residues:
    """The residue layer of ctx, built once per context."""
    if ctx._residues is None:
        ctx._residues = Residues(ctx)
    return ctx._residues


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
