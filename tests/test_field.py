import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvinterp.errors import CtxMismatch, DivisionByZero
from mvinterp.field import (
    FieldCtx,
    Spectrum,
    build_extension,
    flip,
    is_probable_prime,
    prime_field,
    residues,
    _kronecker,
)
import mvinterp.field as field_module
from mvinterp.struct_solve import _draw

# ---------------------------------------------------------------- primality


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in primes)


def test_is_probable_prime_word_sized():
    assert is_probable_prime(65537)
    assert is_probable_prime(2**31 - 1)
    assert not is_probable_prime(65537 * 65539)


def test_ctx_rejects_composite():
    with pytest.raises(ValueError):
        FieldCtx(15)


@pytest.mark.parametrize(
    # the smallest strong pseudoprimes to the first 12 and 13 prime bases
    "n", [318665857834031151167461, 3317044064679887385961981]
)
def test_ctx_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError):
        FieldCtx(n)

# ---------------------------------------------------------------- prime fields


def test_prime_field_basic_arith():
    F = prime_field(7)
    a, b = F.el(3), F.el(5)
    assert (a + b).c == (1,)
    assert (a - b).c == (5,)
    assert (a * b).c == (1,)
    assert (-a).c == (4,)
    # 3 * 5 = 15 = 1 mod 7, so inv(3) = 5
    assert a.inv() == b
    assert (a / b).c == ((3 * pow(5, -1, 7)) % 7,)


def test_prime_field_cache_is_bounded():
    # no unbounded cache: past its maxsize the oldest context is evicted,
    # and one built again is equal to it, so their elements still combine
    limit = prime_field.cache_info().maxsize
    assert limit is not None
    old = prime_field(1009)
    a = old.el(3)
    primes = [q for q in range(1013, 3000) if all(q % r for r in range(2, math.isqrt(q) + 1))]
    for q in primes[:100]:
        prime_field(q)
        assert prime_field.cache_info().currsize <= limit
    new = prime_field(1009)
    assert new is not old and new == old and hash(new) == hash(old)
    b = new.el(5)
    assert a + b == new.el(8) and b * a == old.el(15)


def test_exhaustive_inverses_f101():
    F = prime_field(101)
    one = F.one()
    for v in range(1, 101):
        a = F.el(v)
        assert a * a.inv() == one


def test_zero_inverse_raises():
    F = prime_field(5)
    with pytest.raises(DivisionByZero):
        F.zero().inv()
    with pytest.raises(DivisionByZero):
        F.el(3) / F.zero()


def test_pow_matches_repeated_mul():
    F = prime_field(13)
    a = F.el(6)
    acc = F.one()
    for e in range(10):
        assert a**e == acc
        acc = acc * a
    assert a**-1 == a.inv()
    assert a**-3 == (a.inv()) ** 3


def test_ctx_mismatch():
    a = prime_field(5).el(2)
    b = prime_field(7).el(2)
    with pytest.raises(CtxMismatch):
        a + b


# ---------------------------------------------------------------- extensions


def test_f4_multiplication_table():
    # F_4 = F_2[t]/(t^2 + t + 1): t * t = t + 1
    F = FieldCtx(2, (1, 1, 1))
    t = F.el((0, 1))
    assert (t * t).c == (1, 1)
    assert (t * t * t) == F.one()  # t^3 = 1
    assert t.inv() == t * t


def test_extension_exhaustive_f9():
    rng = random.Random(0)
    F = build_extension(prime_field(3), 2, rng)
    assert F.order == 9
    els = [F.from_index(i) for i in range(9)]
    assert len(set(els)) == 9
    one = F.one()
    for a in els:
        if not a.is_zero():
            assert a * a.inv() == one
        # Frobenius sanity: a^9 = a in F_9
        assert a**9 == a
    # distributivity spot check over all pairs
    for a in els:
        for b in els:
            assert (a + b) * (a - b) == a * a - b * b


GF256 = FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))
F31_2 = build_extension(prime_field(2**31 - 1), 2, random.Random(0))  # object residues


@pytest.mark.parametrize(
    "ctx", [prime_field(101), prime_field(2**61 - 1), GF256, F31_2], ids=repr
)
def test_residue_inverses_round_trip(ctx):
    # Residues.inv: pow(s, -1, p) at d = 1, above the extended Euclid of the
    # scalar's residues and the modulus (FieldElement.inv calls it too);
    # s * s^-1 is one and the inverse of the inverse is s, for both residue
    # dtypes and both kinds of field
    R = residues(ctx)
    rng = random.Random(ctx.order % 1000)
    for _ in range(50):
        a = ctx.from_index(rng.randrange(1, ctx.order))
        s = R.array([a])[:, 0]
        inv = R.inv(s)
        assert inv.shape == (1, ctx.d) and inv.dtype == R.dtype
        assert R.elements(inv.T) == [a.inv()]
        assert R.emul(s[:, None], inv.T).tolist() == R.unit(1, 0).tolist()
        assert R.inv(inv[0]).tolist() == [s.tolist()]


F25_2 = build_extension(prime_field(33554393), 2, random.Random(0))  # 2^53 past 4 terms
F26_2 = build_extension(prime_field(67108859), 2, random.Random(0))  # 2^53 past 1 term


@pytest.mark.parametrize("ctx", [GF256, FieldCtx(13, (6, 12, 6, 0, 1)), F25_2, F26_2], ids=repr)
def test_matrix_products_match_element_arithmetic(ctx):
    # at d > 1 combine and scale multiply by multiplication matrices, and
    # emul and conv fold their residue pairs by the table of t^(a+b) mod f,
    # in float64 while the sums stay below 2^53 (up to f64_terms scalar
    # products, d of them in a fold) and in int64 above it: all agree with
    # FieldElement arithmetic, on random residues and on residues within p/64
    # of p, whose sums are the largest, at each side of F25_2's and F26_2's
    # bounds (F26_2 folds in int64, its multiplication matrices at the bound)
    R = residues(ctx)
    rng = random.Random(ctx.p)
    f = R.f64_terms
    for J in sorted({1, min(f, 12), min(f + 1, 13), min(3 * f, 13)}):
        for lo in (0, ctx.p - 1 - ctx.p // 64):
            c, vs = (
                np.array([[rng.randrange(lo, ctx.p) for _ in range(n)] for _ in range(J)])
                for n in (ctx.d, ctx.d * 5)
            )
            vs = vs.reshape(J, ctx.d, 5)
            cs = R.elements(c.T)
            cols = zip(*(R.elements(v) for v in vs))
            want = [sum((a * b for a, b in zip(cs, col)), ctx.zero()) for col in cols]
            assert R.elements(R.combine(c, vs)) == want
            assert R.elements(R.scale(c[0], vs[0])) == [cs[0] * b for b in R.elements(vs[0])]
            x, y = R.elements(vs[0]), R.elements(vs[-1])
            assert R.elements(R.emul(vs[0], vs[-1])) == [a * b for a, b in zip(x, y)]
            mat = R.mul_matrix(c[0]).astype(object)
            assert R.elements(mat @ vs[0].astype(object) % ctx.p) == [cs[0] * b for b in x]
            prod = [sum((x[i] * y[k - i] for i in range(5) if 0 <= k - i < 5), ctx.zero()) for k in range(9)]
            assert R.elements(R.conv(vs[0], vs[-1])) == prod
    assert f == 4 if ctx is F25_2 else f == 1 if ctx is F26_2 else f > 13


@pytest.mark.parametrize("p, f", [(16777213, 32), (94906249, 1)])
def test_prime_field_products_at_the_float64_bound_are_exact(p, f):
    # at d = 1 one float64 product sums f64_terms = (2^53 - 1) // (p - 1)^2
    # residue products exactly: 32 at p = 16777213 and 1 at p = 94906249;
    # longer sums (33 at p = 16777213) are int64 products.  On residues
    # within p/1024 of p, whose f + 1 products would pass 2^53, combine
    # agrees with object-dtype products at f, f + 1 and 33 terms: rows of
    # scalars against shared vectors (one product), against their own
    # vectors (a batch of products), and one vector of scalars
    R = residues(prime_field(p))
    assert R.f64_terms == f and (p - 1) ** 2 * (f + 1) >= 2**53
    rng = random.Random(p)

    def near_p(*shape):
        flat = [rng.randrange(p - p // 1024, p) for _ in range(math.prod(shape))]
        return np.array(flat, dtype=np.int64).reshape(shape)

    for J in sorted({f, f + 1, 33}):
        c, vs, own = near_p(4, J, 1), near_p(J, 1, 9), near_p(4, J, 1, 9)
        want = (c[..., 0].astype(object) @ vs[:, 0].astype(object)) % p
        assert R.combine(c, vs)[:, 0].tolist() == want.tolist()
        assert R.combine(c[0], vs)[0].tolist() == want[0].tolist()
        want = np.einsum("ij,ijn->in", c[..., 0].astype(object), own[:, :, 0].astype(object)) % p
        assert R.combine(c, own)[:, 0].tolist() == want.tolist()


LIMB_FIELDS = [prime_field(33554467), prime_field(998244353), prime_field(2**31 - 1), F25_2]


@pytest.mark.parametrize("ctx", LIMB_FIELDS, ids=repr)
def test_limb_products_are_exact_at_their_bound(ctx):
    # past f64_terms, _matmul sums two float64 products of one operand's
    # 16-bit limbs while d terms 2^16 (p - 1) < 2^53 (_limb_terms terms),
    # and past that numpy's product in the dtype its sums need.  On residues
    # in (-p, p), with rows and columns of p - 1, 1 - p and -1 (whose low
    # limb is 2^16 - 1), whose sums are the largest, _matmul and combine
    # agree with object products at the limb bound and one term past it
    R = residues(ctx)
    p, d, bound = ctx.p, ctx.d, R._limb_terms
    assert R.f64_terms < bound and d * bound * (p - 1) << 16 < 2**53
    assert d * (bound + 1) * (p - 1) << 16 >= 2**53
    rng = random.Random(p)

    def extremes(rows, cols):  # random residues below three extreme rows
        x = np.array([[rng.randrange(1 - p, p) for _ in range(cols)] for _ in range(rows)])
        x[:3] = np.array([p - 1, 1 - p, -1])[:, None]
        return x

    for terms in (bound, bound + 1):
        a, b = extremes(4, d * terms), extremes(5, d * terms).T
        want = a.astype(object) @ b.astype(object) % p
        assert (R._matmul(a, b, terms) % p).tolist() == want.tolist()
        c, vs = extremes(4, terms * d).reshape(4, terms, d), b[:, :4].reshape(terms, d, 4)
        got = R.combine(c, vs)
        assert got.dtype == np.int64
        assert got.tolist() == R.combine(c.astype(object), vs.astype(object)).tolist()
    if p == 998244353:  # an alpha = 10 generator's first row sums in int64
        c, vs = extremes(4, 10), extremes(9, 10).T
        assert R._matmul(c, vs, 10).dtype == np.int64
        got = R.combine(c[..., None], vs[:, None])
        want = c.astype(object) @ vs.astype(object) % p
        assert got.dtype == np.int64 and got[:, 0].tolist() == want.tolist()


@pytest.mark.parametrize("ctx", [prime_field(13), FieldCtx(13, (6, 12, 6, 0, 1)), GF256], ids=repr)
def test_evaluate_zero_and_constant_polynomials(ctx):
    # the zero polynomial, a (d, 0) coefficient array, is 0 at every entry of
    # x, and a constant (L = 1) is itself, alone and stacked
    R = residues(ctx)
    rng = random.Random(ctx.order)
    x = R.array([ctx.from_index(rng.randrange(ctx.order)) for _ in range(6)])
    for lead in ((), (3,)):
        zero = np.zeros(lead + (ctx.d, 0), R.dtype)
        out = R.evaluate(zero, x)
        assert out.dtype == R.dtype and out.tolist() == np.zeros(lead + x.shape, int).tolist()
        c = R.array([ctx.from_index(rng.randrange(ctx.order)) for _ in range(3)]).T[:, :, None]
        c = c[0] if not lead else c
        assert R.evaluate(c, x).tolist() == np.broadcast_to(c, lead + x.shape).tolist()


@pytest.mark.parametrize("ctx", [prime_field(101), GF256], ids=repr)
def test_residue_inverse_of_zero_raises(ctx):
    R = residues(ctx)
    with pytest.raises(DivisionByZero):
        R.inv(R.zeros(1)[:, 0])


def _monic(p, d):
    """Every monic coefficient list of degree d over F_p."""
    for i in range(p**d):
        yield [i // p**k % p for k in range(d)] + [1]


# Gauss's count of monic irreducibles of degree d, (1/d) sum_{e | d} mu(e) p^(d/e)
GAUSS = {2: {2: 1, 3: 2, 4: 3, 5: 6, 6: 9}, 3: {2: 3, 3: 8, 4: 18}}


@pytest.mark.parametrize("p", sorted(GAUSS))
def test_irreducible_counts_match_gauss(p):
    # Rabin's test through the extended Euclid's gcd: reducibles without a
    # root, such as (t^2 + t + 1)^2 over F_2, fail only its gcd condition
    for d, count in GAUSS[p].items():
        assert sum(field_module._is_irreducible(f, p) for f in _monic(p, d)) == count
    assert not field_module._is_irreducible([1, 0, 1, 0, 1], 2)  # (t^2 + t + 1)^2


def test_reducible_modulus_rejected():
    # t^2 - 1 = (t-1)(t+1) over F_5
    with pytest.raises(ValueError):
        FieldCtx(5, (4, 0, 1))


def test_build_extension_d1_is_base():
    F = prime_field(11)
    assert build_extension(F, 1, random.Random(0)) is F


def test_from_index_to_index_roundtrip():
    F = FieldCtx(3, (2, 2, 1))  # some irreducible over F_3 or raise; pick known one
    for i in range(F.order):
        assert F.from_index(i).to_index() == i


def test_known_irreducible_f3():
    # t^2 + 1 is irreducible over F_3 (since -1 is a non-residue mod 3)
    F = FieldCtx(3, (1, 0, 1))
    t = F.el((0, 1))
    assert (t * t).c == (2, 0)


# ---------------------------------------------------------------- sampling


def _draws(F, min_size, rng, k):
    """k draws of the structured solver's sampler over a prime field."""
    return _draw(residues(F), min_size, rng, k)[0].tolist()


def test_sample_subset_small_field_uses_whole_field():
    # |F_101| = 101 < 2*min_size = 120 -> whole field
    F = prime_field(101)
    rng = random.Random(1)
    seen = set(_draws(F, 60, rng, 3000))
    assert max(seen) > 60  # draws exceed the min_size prefix


def test_sample_subset_large_field_uses_prefix():
    F = prime_field(65537)
    rng = random.Random(2)
    for v in _draws(F, 50, rng, 2000):
        assert 0 <= v < 50


def test_sample_subset_roughly_uniform():
    F = prime_field(13)
    rng = random.Random(3)
    counts = [0] * 13
    n = 13 * 500
    for v in _draws(F, 7, rng, n):
        counts[v] += 1
    # chi-squared against uniform; 12 dof, 99.9% quantile ~ 32.9
    expected = n / 13
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 40


# ---------------------------------------------------------------- FFT products


def kronecker_conv_sum(R, a, b):
    """conv_sum on Python ints: one Kronecker product per residue-row pair,
    summed over the first axis, folded by the multiplication table."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:]).astype(object)
    b = np.broadcast_to(b, lead + b.shape[-2:]).astype(object)
    rows = zip(a.reshape(-1, R.d, a.shape[-1]), b.reshape(-1, R.d, b.shape[-1]))
    pairs = [_kronecker(x, y) for xs, ys in rows for x in xs for y in ys]
    pairs = np.array(pairs, dtype=object).reshape(lead + (R.d, R.d, -1)).sum(axis=0) % R.p
    return R._fold_pairs(pairs) % R.p


def longest_length(R, terms, k):
    """The longest operand length for which fft_limbs picks k limbs."""
    lo, hi = 1, 1 << 24
    while lo < hi:
        mid = (lo + hi + 1) // 2
        limbs = R.fft_limbs(mid, terms)
        lo, hi = (mid, hi) if limbs and limbs[0] <= k else (lo, mid - 1)
    return lo


@pytest.mark.parametrize(
    "p, k, terms",
    [(131071, 1, 1), (131071, 1, 4), (2**31 - 1, 2, 1), (2**31 - 1, 2, 8)],
)
def test_fft_products_exact_at_the_rounding_bound(p, k, terms):
    # every residue p - 1 at the longest length the bound allows for k
    # limbs, summed over `terms` pairs as _apply sums its generator pairs
    R = residues(prime_field(p))
    n = longest_length(R, terms, k)
    assert R.fft_limbs(n, terms)[0] == k and R.fft_limbs(n + 1, terms) != R.fft_limbs(n, terms)
    assert terms * n * n >= field_module._FFT_WORK  # the FFT path runs
    a = np.full((terms, 1, n), p - 1, dtype=np.int64)
    got = R.conv_sum(a, a)
    ones = np.convolve(np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64))
    want = [terms * (p - 1) ** 2 * int(c) % p for c in ones]
    assert got.dtype == np.int64 and got[0].tolist() == want
    assert (got == kronecker_conv_sum(R, a, a)).all()
    # one operand passed as its kept spectra, and as those of its reversal
    spectrum = R.transform(a, n)
    assert isinstance(spectrum, Spectrum) and spectrum.plan[1:] == (k, R.fft_limbs(n, terms)[1])
    assert (R.conv_sum(spectrum, a) == got).all() and (R.conv_sum(a, flip(spectrum)) == got).all()


@pytest.mark.parametrize("p", [13, 16777213, 2**31 - 1])
def test_one_pair_products_match_python_ints(p, monkeypatch):
    # a (1, n) x (1, m) product below the FFT crossover is one np.convolve
    # while m products of residues fit int64; at 2^31 - 1 not even one does.
    # So is one pair with leading axes of length 1, as at a product tree's top
    R = residues(prime_field(p))
    rows = []
    real = np.convolve
    monkeypatch.setattr(np, "convolve", lambda x, y: rows.append(x.dtype) or real(x, y))
    rng = np.random.default_rng(p)
    crossover = math.isqrt(field_module._FFT_WORK - 1)  # the longest m off the FFT route
    for n, m in [(1, 1), (5, 3), (40, 40), (300, 7), (crossover + 20, crossover)]:
        for a in (rng.integers(0, p, (1, n)), np.full((1, n), p - 1)):
            b = rng.integers(0, p, (1, m))
            want = _kronecker(a[0].astype(object), b[0].astype(object)) % p
            rows.clear()
            got = R.conv(b, a)
            assert got.dtype == np.int64 and got.shape == (1, n + m - 1)
            assert got[0].tolist() == want.tolist()
            assert rows == ([np.dtype(np.int64)] if R._int64_terms >= m else [])
            keep = slice(m - 1, n + m - 1)
            assert R.corr(a, b[:, ::-1])[0].tolist() == want[keep].tolist()
            for x, y in ((b[None], a[None]), (b[None], a), (b, a[None])):
                rows.clear()
                got = R.conv(x, y)
                assert got.dtype == np.int64 and got.shape == (1, 1, n + m - 1)
                assert got.reshape(-1).tolist() == want.tolist()
                assert rows == ([np.dtype(np.int64)] if R._int64_terms >= m else [])


@pytest.mark.parametrize(
    "ctx", [prime_field(13), prime_field(16777213), FieldCtx(13, (6, 12, 6, 0, 1))], ids=repr
)
def test_unpickled_int64_operands_take_the_int64_paths(ctx, monkeypatch):
    # an unpickled int64 array's dtype can equal np.dtype(np.int64) without
    # being it; combine, and at d = 1 conv's one-row path, compare dtypes by
    # value, so such operands never reach _dtypes's casts (patched to
    # raise) and answer as fresh arrays do
    R = residues(ctx)
    rng = np.random.default_rng(ctx.p)
    c = rng.integers(0, ctx.p, (3, ctx.d))
    vs = rng.integers(0, ctx.p, (3, ctx.d, 7))
    a, b = rng.integers(0, ctx.p, (1, 9)), rng.integers(0, ctx.p, (1, 4))
    fresh = [R.combine(c, vs)] + ([R.conv(a, b)] if ctx.d == 1 else [])

    def unpickled(x):
        return pickle.loads(pickle.dumps(x))

    def no_casts(*args):
        raise AssertionError("_dtypes reached")

    monkeypatch.setattr(type(R), "_dtypes", no_casts)
    got = [R.combine(unpickled(c), unpickled(vs))]
    if ctx.d == 1:
        got.append(R.conv(unpickled(a), unpickled(b)))
    assert all(x.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(got, fresh))


@pytest.mark.parametrize("ctx", [prime_field(16777213), FieldCtx(13, (6, 12, 6, 0, 1))], ids=repr)
def test_chunked_fft_products_match_python_ints(ctx, monkeypatch):
    # an FFT product is made in chunks along its first leading output axis,
    # here one row each, whichever operand broadcasts along it, on arrays,
    # on a Spectrum and on a Spectrum's leading-axis view
    R = residues(ctx)
    rng = np.random.default_rng(7)
    a = rng.integers(0, ctx.p, (3, 4, 2, ctx.d, 300))
    b = rng.integers(0, ctx.p, (3, 1, 2, ctx.d, 300))
    want = kronecker_conv_sum(R, a, b)
    spectrum = R.transform(a, 300)
    assert isinstance(spectrum, Spectrum)
    chunks = []
    real = field_module.Residues._fft_chunk
    monkeypatch.setattr(field_module.Residues, "_fft_chunk", lambda *x: chunks.append(1) or real(*x))
    for size, count in ((1, 4), (1 << 62, 1)):
        monkeypatch.setattr(field_module, "_FFT_CHUNK", size)
        chunks.clear()
        assert (R.conv_sum(a, b) == want).all() and len(chunks) == count
        assert (R.conv_sum(spectrum, b) == want).all()
        assert (R.conv_sum(spectrum[:, 1:3], b) == want[1:3]).all()
        one = kronecker_conv_sum(R, a[:1], b[:1])
        assert (R.conv(a[0], b[0]) == one).all() and (R.conv(b[0, 0], a[0]) == one).all()


FFT_FIELDS = [
    prime_field(13),
    prime_field(16777213),
    prime_field(479001599),
    prime_field(998244353),
    prime_field(2**31 - 1),
    FieldCtx(2, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # GF(2^8) = F_2[t]/(t^8+t^4+t^3+t+1)
    FieldCtx(13, (6, 12, 6, 0, 1)),
]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FFT_FIELDS),
    st.integers(1, 4),
    st.integers(1, 600),
    st.integers(0, 40),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_conv_sum_matches_python_ints_across_the_crossover(ctx, terms, m, extra, broadcast, seed):
    R = residues(ctx)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ctx.p, (terms, 1 if broadcast else 2, ctx.d, m + extra))
    b = rng.integers(0, ctx.p, (terms, 2, ctx.d, m))
    assert (R.conv_sum(a, b) == kronecker_conv_sum(R, a, b)).all()
    keep = slice(m // 2, m + extra)
    assert (R.conv(a[0], b[0], keep) == kronecker_conv_sum(R, a[:1], b[:1])[..., keep]).all()


def wrap_cases():
    """(n, m, w, length): operand lengths with n + m - 1 = 2^L + w for w = 1,
    the largest w _plan takes cyclic at 2^L and one past it, and the
    transform length _plan must pick."""
    for base in (256, 512):
        top = math.isqrt(field_module._WRAP * base)
        for w in (1, top, top + 1):
            n = (base + w + 1) // 2
            yield n, base + w + 1 - n, w, base if w <= top else 2 * base


@pytest.mark.parametrize("n, m, w, length", list(wrap_cases()))
@pytest.mark.parametrize(
    "ctx",
    [prime_field(16777213), prime_field(2**31 - 1), FieldCtx(13, (6, 12, 6, 0, 1)),
     FieldCtx(2, (1, 1, 0, 1, 1, 0, 0, 0, 1))],
    ids=repr,
)
def test_cyclic_fft_products_match_python_ints(ctx, n, m, w, length):
    # just past a power of two, FFT products run cyclic at it and take the
    # wrapped coefficients apart: conv, corr and conv_sum, on arrays and on
    # kept spectra, whole and at kept slices inside and outside the wrapped
    # coefficients and the ones past the transform length
    R = residues(ctx)
    rng = np.random.default_rng(n + m + ctx.d)
    rows = -(-16 // ctx.d**2)
    a = rng.integers(0, ctx.p, (3, rows, ctx.d, n))
    b = rng.integers(0, ctx.p, (3, rows, ctx.d, m))
    assert R._plan(3 * rows * ctx.d**2, n, m, 3)[0] == length
    assert R._plan(rows * ctx.d**2, n, m, 1)[0] == length
    assert (R.conv_sum(a, b) == kronecker_conv_sum(R, a, b)).all()
    one = kronecker_conv_sum(R, a[:1], b[:1])
    assert (R.conv(a[0], b[0]) == one).all()
    for keep in (slice(w + 2), slice(w - 1, length), slice(length - 2, None), slice(n),
                 slice(m - 1, n + m - 1), slice(length, None)):
        assert (R.conv(a[0], b[0], keep) == one[..., keep]).all()
    flipped = kronecker_conv_sum(R, a[:1], b[:1, ..., ::-1])[..., m - 1 : m - 1 + n]
    assert (R.corr(a[0], b[0]) == flipped).all()
    spectrum = R.transform(a, m)
    assert isinstance(spectrum, Spectrum) and spectrum.plan[0] == length
    assert (R.conv_sum(spectrum, b) == kronecker_conv_sum(R, a, b)).all()
    assert (R.conv_sum(flip(spectrum), b) == kronecker_conv_sum(R, a[..., ::-1], b)).all()
    assert (R.corr(b[0], spectrum[0]) == kronecker_conv_sum(
        R, b[:1], a[:1, ..., ::-1])[..., n - 1 : n - 1 + m]).all()


def test_kernel_levels_plan_their_transform_lengths():
    # a level's pairs stacked as _kept stacks them: gs_wide's (alpha 4, size
    # 257) products run cyclic at 512, gs_deep's (alpha 10, size 385) at 1024
    R = residues(prime_field(16777213))
    assert R._plan(4 * 2, 257, 257, 4)[0] == 512
    assert R._plan(10 * 2, 385, 385, 10)[0] == 1024
    assert R._plan(4 * 2, 256, 256, 4)[0] == 512  # 511 coefficients, no wrap


@pytest.mark.parametrize(
    "p, k, terms",
    [(131071, 1, 1), (131071, 1, 4), (2**31 - 1, 2, 1), (2**31 - 1, 2, 8)],
)
def test_cyclic_fft_products_exact_at_the_rounding_bound(p, k, terms):
    # every residue p - 1, the longer operand at the longest length the
    # bound allows for k limbs, the shorter one as long as a cyclic product
    # at the power of two at or above it allows
    R = residues(prime_field(p))
    n = longest_length(R, terms, k)
    length = 1 << (n - 1).bit_length()
    m = length + 1 + math.isqrt(field_module._WRAP * length) - n
    assert R.fft_limbs(n, terms)[0] == k and m <= n
    rows = -(-field_module._FFT_WORK // (terms * m * m))
    assert R._plan(terms * rows, n, m, terms)[0] == length
    a = np.full((terms, rows, 1, n), p - 1, dtype=np.int64)
    b = np.full((terms, rows, 1, m), p - 1, dtype=np.int64)
    ones = np.convolve(np.ones(n, dtype=np.int64), np.ones(m, dtype=np.int64))
    want = [terms * (p - 1) ** 2 * int(c) % p for c in ones]
    got = R.conv_sum(a, b)
    assert got.shape == (rows, 1, n + m - 1)
    assert all(row.tolist() == want for row in got[:, 0])
