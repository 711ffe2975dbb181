import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import extend_recurrence, from_ints, poly_mod, rand_el, res, trunc
from mvinterp.errors import BadLength, DivisionByZero, DuplicateNode, NotInvertible
from mvinterp.field import FieldCtx, prime_field, residues
from mvinterp.poly import (
    Poly,
    lagrange_interp,
    poly_divrem,
    reverse,
    series_inv,
    weighted_product,
)

F13 = prime_field(13)

# int64 prime fields (small and 24-bit), Python-int residues (2^61 - 1), an
# odd-characteristic extension and GF(2^8)
EVERY_FIELD = pytest.mark.parametrize(
    "ctx",
    [
        F13,
        prime_field(16777213),
        prime_field(2**61 - 1),
        FieldCtx(13, (6, 12, 6, 0, 1)),
        FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
    ],
    ids=["F13", "P24", "M61", "F13^4", "GF256"],
)


def P13(*ints):
    return from_ints(F13, ints)


def rand(ctx, rng, low=0):
    """Uniform element of index >= low (an int mod p on F13)."""
    return ctx.from_index(rng.randrange(low, ctx.order))


def naive_mul(a, b):
    """Schoolbook reference product (any field)."""
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.ctx)
    z = a.ctx.zero()
    out = [z] * (a.deg + b.deg + 1)
    for i, ai in enumerate(a.c):
        for j, bj in enumerate(b.c):
            out[i + j] = out[i + j] + ai * bj
    return Poly(a.ctx, out)


# ---------------------------------------------------------------- basics


def test_normalization_and_deg():
    assert P13(0).is_zero()
    assert P13().deg == -1
    assert P13(5, 3, 1).deg == 2
    assert P13(5, 3, 1, 0, 0) == P13(5, 3, 1)


def test_add_sub_neg():
    a, b = P13(1, 2), P13(3, 0, 7)
    assert a + b == P13(4, 2, 7)
    assert b - a == P13(2, 11, 7)
    assert -a == P13(12, 11)
    assert (a - a).is_zero()


def test_eval_horner():
    f = P13(5, 3, 1)  # X^2 + 3X + 5
    assert f.eval(F13.el(0)) == F13.el(5)
    assert f.eval(F13.el(2)) == F13.el((4 + 6 + 5) % 13)


@pytest.mark.parametrize(
    "ctx", [F13, FieldCtx(13, (6, 12, 6, 0, 1)), FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))],
    ids=repr,
)
def test_eval_matches_horner(ctx):
    # Poly.eval is Residues.evaluate at one point: the Horner definition
    # sum_i c_i x^i in element arithmetic, the zero polynomial included
    rng = random.Random(ctx.order)

    def horner(f, x):
        acc = ctx.zero()
        for v in reversed(f.c):
            acc = acc * x + v
        return acc

    polys = [Poly.zero(ctx), Poly.one(ctx)]
    polys += [Poly(ctx, [rand(ctx, rng) for _ in range(rng.randint(1, 12))]) for _ in range(20)]
    for f in polys:
        for x in (ctx.zero(), ctx.one(), rand(ctx, rng), rand(ctx, rng)):
            assert f.eval(x) == horner(f, x)
    assert Poly.zero(ctx).eval(rand(ctx, rng, low=1)) == ctx.zero()


def test_shift_scale_monic():
    f = P13(1, 2)
    assert f.shift(2) == P13(0, 0, 1, 2)
    assert f.scale(F13.el(3)) == P13(3, 6)
    g = P13(1, 0, 2).monic()
    assert g.lead() == F13.el(1)
    assert g == P13(1, 0, 2).scale(F13.el(2).inv())


def test_pow():
    f = P13(1, 1)  # X + 1
    assert f**0 == Poly.one(F13)
    assert f**3 == P13(1, 3, 3, 1)


# ---------------------------------------------------------------- multiplication


def test_mul_small_known():
    assert P13(1, 1) * P13(12, 1) == P13(12, 0, 1)  # (X+1)(X-1) = X^2 - 1


def test_mul_matches_naive_random():
    rng = random.Random(7)
    for _ in range(40):
        a = from_ints(F13, [rng.randrange(13) for _ in range(rng.randrange(1, 12))])
        b = from_ints(F13, [rng.randrange(13) for _ in range(rng.randrange(1, 12))])
        assert a * b == naive_mul(a, b)


def test_mul_large_characteristic_bigint_path():
    # (p-1)^2 * len overflows int64, forcing the arbitrary-precision branch
    p = (1 << 61) - 1
    F = prime_field(p)
    rng = random.Random(11)
    a = from_ints(F, [rng.randrange(p) for _ in range(40)])
    b = from_ints(F, [rng.randrange(p) for _ in range(37)])
    assert a * b == naive_mul(a, b)


def test_mul_extension_field():
    F4 = FieldCtx(2, (1, 1, 1))
    t = F4.el((0, 1))
    one = F4.one()
    a = Poly(F4, (one, t))  # t*X + 1
    b = Poly(F4, (t, one))  # X + t
    # (1 + tX)(t + X) = t + (1 + t^2)X + tX^2 = t + tX + tX^2  (t^2 = t+1, char 2)
    assert a * b == Poly(F4, (t, t, t))


def test_mul_extension_long_operands():
    F4 = FieldCtx(2, (1, 1, 1))
    rng = random.Random(3)
    a = Poly(F4, [F4.from_index(rng.randrange(4)) for _ in range(70)])
    b = Poly(F4, [F4.from_index(rng.randrange(4)) for _ in range(65)])
    assert a * b == naive_mul(a, b)


def int_product(a, b, p):
    """Exact product of int coefficient lists mod p on Python ints: a
    schoolbook sum for each of the sampled coefficients t."""
    return {
        t: sum(a[u] * b[t - u] for u in range(max(0, t - len(b) + 1), min(t + 1, len(a)))) % p
        for t in {0, len(a) - 1, (len(a) + len(b)) // 2, len(a) + len(b) - 2}
    }


@pytest.mark.parametrize("p, n", [(2**31 - 1, 40), (16777213, (1 << 14) + 8)])
def test_mul_crosses_the_int64_bound(p, n):
    # each product sums n products of residues, which passes 2^62: the
    # convolution runs on Python ints and must agree with plain int sums
    F = prime_field(p)
    rng = random.Random(p)
    a = [rng.randrange(p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n - 3)] + [p - 1] * 3
    assert from_ints(F, a).a.dtype == np.int64  # stored as int64 residues
    assert residues(F).sum_dtype(n) is object
    got = (from_ints(F, a) * from_ints(F, b)).to_ints()
    assert len(got) == 2 * n - 1
    assert {t: got[t] for t in int_product(a, b, p)} == int_product(a, b, p)
    if n < 100:
        assert from_ints(F, a) * from_ints(F, b) == naive_mul(
            from_ints(F, a), from_ints(F, b)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=9),
    st.lists(st.integers(0, 12), max_size=9),
    st.lists(st.integers(0, 12), max_size=9),
)
def test_ring_laws(ai, bi, ci):
    a, b, c = (from_ints(F13, v) for v in (ai, bi, ci))
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


# ---------------------------------------------------------------- divrem


def test_divrem_known():
    a = P13(12, 0, 1)  # X^2 - 1
    b = P13(1, 1)  # X + 1
    q, r = poly_divrem(a, b)
    assert q == P13(12, 1)  # X - 1
    assert r.is_zero()
    assert poly_mod(P13(0, 0, 1), P13(12, 0, 1)) == P13(1)  # X^2 mod (X^2-1) = 1


@EVERY_FIELD
def test_divrem_property_small_and_newton(ctx):
    rng = random.Random(5)
    for da, db in [(6, 3), (10, 1), (4, 4), (7, 0), (90, 40), (200, 64)]:
        a = Poly(ctx, [rand(ctx, rng) for _ in range(da)] + [ctx.one()])
        b = Poly(ctx, [rand(ctx, rng) for _ in range(db)] + [rand(ctx, rng, 1)])
        q, r = poly_divrem(a, b)
        assert a == q * b + r
        assert r.deg < b.deg


def test_divrem_smaller_degree_and_zero_divisor():
    q, r = poly_divrem(P13(1, 1), P13(0, 0, 1))
    assert q.is_zero() and r == P13(1, 1)
    with pytest.raises(DivisionByZero):
        poly_divrem(P13(1), Poly.zero(F13))


# ---------------------------------------------------------------- reverse / series


def test_reverse_known():
    f = P13(5, 3, 1)  # X^2 + 3X + 5
    assert reverse(f, 2) == P13(1, 3, 5)  # 5X^2 + 3X + 1
    assert reverse(f, 4) == P13(0, 0, 1, 3, 5)
    with pytest.raises(BadLength):
        reverse(f, 1)


def test_reverse_involution():
    f = P13(2, 0, 0, 7)
    assert reverse(reverse(f, 5), 5) == f


def test_series_inv_known():
    f = P13(1, 12)  # 1 - X
    assert series_inv(f, 4) == P13(1, 1, 1, 1)


@EVERY_FIELD
def test_series_inv_property(ctx):
    rng = random.Random(9)
    for n in (1, 2, 7, 50, 129):
        f = Poly(ctx, [rand(ctx, rng, 1)] + [rand(ctx, rng) for _ in range(20)])
        g = series_inv(f, n)
        assert trunc(f * g, n) == Poly.one(ctx)
        assert g.deg < n


def test_series_inv_requires_unit():
    with pytest.raises(NotInvertible):
        series_inv(P13(0, 1), 4)
    with pytest.raises(NotInvertible):
        series_inv(Poly.zero(F13), 4)
    assert series_inv(P13(3), 0).is_zero()


def test_series_inv_char2():
    F4 = FieldCtx(2, (1, 1, 1))
    t = F4.el((0, 1))
    f = Poly(F4, (F4.one(), t, t))
    g = series_inv(f, 9)
    assert trunc(f * g, 9) == Poly.one(F4)


# ---------------------------------------------------------------- interpolation / products


def test_lagrange_known():
    f = lagrange_interp(F13, res(F13, (0, 1, 2)), res(F13, (1, 2, 5))[None])[0][0]
    assert f == P13(1, 0, 1)  # X^2 + 1


def test_lagrange_roundtrip_random():
    rng = random.Random(17)
    F = prime_field(101)
    for n in (1, 2, 5, 11):
        xs = rng.sample(range(101), n)
        ys = [rng.randrange(101) for _ in range(n)]
        f = lagrange_interp(F, res(F, xs), res(F, ys)[None])[0][0]
        assert f.deg < n
        for x, y in zip(xs, ys):
            assert f.eval(F.el(x)) == F.el(y)


@pytest.mark.parametrize(
    "ctx, n",
    [
        (FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1)), 40),  # GF(2^8)
        (FieldCtx(3, (1, 0, 1)), 9),  # F_9, every element a node
        (prime_field(2147483659), 30),  # first prime above 2^31
        (prime_field(2**61 - 1), 30),
        (prime_field(16777213), 256),
    ],
)
def test_lagrange_roundtrip_every_field(ctx, n):
    rng = random.Random(n)
    xs = [ctx.from_index(i) for i in rng.sample(range(min(ctx.order, 10**9)), n)]
    ys = [rand_el(ctx, rng) for _ in range(n)]
    # a polynomial of degree < n comes back unchanged, from the same tree
    g = Poly(ctx, ys)
    (f, h), M = lagrange_interp(ctx, res(ctx, xs), np.stack([res(ctx, ys), res(ctx, [g.eval(x) for x in xs])]))
    assert f.deg < n
    assert [f.eval(x) for x in xs] == ys
    assert h == g
    assert M == weighted_product(ctx, res(ctx, xs), [1] * n)


def test_lagrange_errors():
    with pytest.raises(DuplicateNode):
        lagrange_interp(F13, res(F13, (1, 1)), res(F13, (2, 3))[None])
    with pytest.raises(BadLength):
        lagrange_interp(F13, res(F13, (1, 2)), res(F13, (3,))[None])
    assert lagrange_interp(F13, res(F13, ()), res(F13, ())[None]) == ([Poly.zero(F13)], Poly.one(F13))


def test_weighted_product_known():
    g = weighted_product(F13, res(F13, (0, 1, 2)), (1, 1, 1))
    assert g == P13(0, 2, 10, 1)  # X^3 + 10X^2 + 2X


def test_weighted_product_multiplicities():
    g = weighted_product(F13, res(F13, (3, 5)), (2, 1))
    ref = P13(10, 1) * P13(10, 1) * P13(8, 1)
    assert g == ref
    assert weighted_product(F13, res(F13, ()), ()) == Poly.one(F13)
    assert weighted_product(F13, res(F13, (4,)), (0,)) == Poly.one(F13)


def test_weighted_product_duplicate_nodes():
    with pytest.raises(DuplicateNode):
        weighted_product(F13, res(F13, (2, 2)), (1, 1))


# ------------------------------------ recurrences (helpers.extend_recurrence)


def test_extend_recurrence_known():
    # b_{i+2} = b_i with init (0, 1): alternating 0,1,0,1,...
    ch = P13(12, 0, 1)  # X^2 - 1
    seq = extend_recurrence((0, 1), ch, 5)
    assert [e.c[0] for e in seq] == [0, 1, 0, 1, 0]


def test_extend_recurrence_fibonacci():
    ch = P13(12, 12, 1)  # X^2 - X - 1
    seq = extend_recurrence((0, 1), ch, 10)
    fib = [0, 1]
    while len(fib) < 10:
        fib.append((fib[-1] + fib[-2]) % 13)
    assert [e.c[0] for e in seq] == fib


def test_extend_recurrence_matches_naive():
    rng = random.Random(23)
    F = prime_field(101)
    for _ in range(20):
        m = rng.randrange(1, 5)
        pc = [rng.randrange(101) for _ in range(m)] + [1]
        ch = from_ints(F, pc)
        init = [rng.randrange(101) for _ in range(m)]
        count = 40
        seq = extend_recurrence(init, ch, count)
        ref = [F.el(v) for v in init]
        while len(ref) < count:
            acc = F.zero()
            for j in range(m):
                acc = acc - F.el(pc[j]) * ref[len(ref) - m + j]
            ref.append(acc)
        assert seq == ref


def test_extend_recurrence_validation():
    ch = P13(12, 0, 1)
    with pytest.raises(BadLength):
        extend_recurrence((1,), ch, 5)  # wrong init length
    with pytest.raises(BadLength):
        extend_recurrence((1, 2), P13(2, 3), 5)  # not monic
    assert extend_recurrence((4, 7), ch, 1) == [F13.el(4)]
