import random

import numpy as np
import pytest

from helpers import (
    apply_generator,
    dense_from_halves,
    dense_matvec,
    dense_toeplitz,
    displacement_of_dense,
    elements,
    gen_from_dense,
    generator,
    generator_product,
    low_rank_matrix,
    mat_vec,
    rand_el,
    rand_generator,
    rand_matrix,
    reconstruct_dense,
    spread_seeds,
)
from mvinterp.errors import TooLarge, WrongTag
from mvinterp.field import FieldCtx, Residues, build_extension, prime_field
from mvinterp.linalg import matrix_rank
from mvinterp.outcomes import NoSolution, Solution
from mvinterp.struct_solve import (
    GeneratorPair,
    _apply,
    _apply_last,
    _compress,
    _eliminate,
    _precondition,
    hankel_to_toeplitz,
    nullspace_structured,
    pad_to_square,
    subset_floor,
    unpad_solution,
)

F13 = prime_field(13)
F65537 = prime_field(65537)

# one field per residue kind: int64 prime, int64 extension, object dtype
KERNEL_FIELDS = pytest.mark.parametrize(
    "ctx",
    [F65537, FieldCtx(13, (6, 12, 6, 0, 1)), prime_field(2**61 - 1)],
    ids=["F65537", "F13^4", "M61"],
)


def residues(ctx):
    R = Residues(ctx)
    assert (R.dtype is object) == (ctx.p > 2**31)
    return R


def mat_mul(A, B, ctx):
    n = len(B[0])
    return [
        [sum((a * B[k][j] for k, a in enumerate(row)), ctx.zero()) for j in range(n)]
        for row in A
    ]


def assert_same_matrix(A, B):
    assert len(A) == len(B)
    for ra, rb in zip(A, B):
        assert list(ra) == list(rb)


# ------------------------------------------------------------ reconstruction


def test_reconstruct_triangle_of_ones():
    # ones column against a first-unit row: the displacement unrolls to the
    # lower-left triangle of ones
    n = 5
    ones = tuple(F13.one() for _ in range(n))
    e0 = tuple(F13.one() if j == 0 else F13.zero() for j in range(n))
    G = generator("toeplitz", n, n, (ones,), (e0,), F13)
    A = reconstruct_dense(G)
    for i in range(n):
        for j in range(n):
            expect = F13.one() if i >= j else F13.zero()
            assert A[i][j] == expect


def test_reconstruct_zero_generator():
    z = tuple(F13.zero() for _ in range(3))
    for tag in ("toeplitz", "hankel"):
        G = generator(tag, 3, 3, (z,), (z,), F13)
        A = reconstruct_dense(G)
        assert all(e.is_zero() for row in A for e in row)


@pytest.mark.parametrize("tag", ["toeplitz", "hankel"])
def test_reconstruct_displacement_roundtrip(tag):
    rng = random.Random(101)
    for _ in range(25):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        G = rand_generator(tag, F13, m, n, rng.randint(0, 3), rng)
        A = reconstruct_dense(G)
        assert_same_matrix(displacement_of_dense(tag, A, F13), generator_product(G))


def test_reconstruct_guard():
    z = tuple(F13.zero() for _ in range(200))
    G = generator("toeplitz", 200, 200, (z,), (z,), F13)
    with pytest.raises(TooLarge):
        reconstruct_dense(G)


def test_dense_matches_gen_from_dense():
    rng = random.Random(5)
    for tag in ("toeplitz", "hankel"):
        for _ in range(10):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_matrix(F13, m, n, rng)
            G = gen_from_dense(tag, A, F13)
            assert_same_matrix(reconstruct_dense(G), A)


# ------------------------------------------------------------ flip and pad


def test_flip_reverses_columns():
    rng = random.Random(7)
    for _ in range(15):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        G = rand_generator("hankel", F13, m, n, 2, rng)
        B = reconstruct_dense(hankel_to_toeplitz(G))
        A = reconstruct_dense(G)
        assert_same_matrix(B, [list(reversed(row)) for row in A])


def test_flip_wrong_tag():
    G = rand_generator("toeplitz", F13, 2, 2, 1, random.Random(0))
    with pytest.raises(WrongTag):
        hankel_to_toeplitz(G)
    with pytest.raises(WrongTag):
        pad_to_square(rand_generator("hankel", F13, 2, 2, 1, random.Random(0)))


def test_pad_wide_example():
    A = [[F13.one(), F13.zero()]]
    G = gen_from_dense("toeplitz", A, F13)
    P, info = pad_to_square(G)
    assert (info.kind, info.offset) == ("wide", 1)
    padded = reconstruct_dense(P)
    assert_same_matrix(padded, [[F13.zero(), F13.zero()], [F13.one(), F13.zero()]])
    assert unpad_solution(info, [1, 2]) == [1, 2]


def test_pad_tall_example():
    A = [[F13.one()], [F13.zero()]]
    G = gen_from_dense("toeplitz", A, F13)
    P, info = pad_to_square(G)
    assert (info.kind, info.offset) == ("tall", 1)
    padded = reconstruct_dense(P)
    assert_same_matrix(padded, [[F13.zero(), F13.one()], [F13.zero(), F13.zero()]])
    assert unpad_solution(info, [5, 7]) == [7]


def test_pad_random_consistency():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_matrix(F13, m, n, rng)
        G = gen_from_dense("toeplitz", A, F13)
        P, info = pad_to_square(G)
        assert P.nrows == P.ncols == max(m, n)
        padded = reconstruct_dense(P)
        z = F13.zero()
        if m <= n:
            expect = [[z] * n for _ in range(n - m)] + A
        else:
            expect = [[z] * (m - n) + row for row in A]
        assert_same_matrix(padded, expect)


# ------------------------------------------------------------ apply / compress


@pytest.mark.parametrize("tag", ["toeplitz", "hankel"])
def test_apply_generator_matches_dense(tag):
    # the kernel applies toeplitz-tagged generators; hankel ones after the
    # column-reversing flip, on the reversed vector
    rng = random.Random(13)
    for _ in range(15):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        G = rand_generator(tag, F13, m, n, 2, rng)
        x = [rand_el(F13, rng) for _ in range(n)]
        T = hankel_to_toeplitz(G) if tag == "hankel" else G
        y = x[::-1] if tag == "hankel" else x
        R = residues(F13)
        got = _apply(R, T.v, T.w, R.array(y), m)
        assert R.elements(got) == apply_generator(G, x)


@KERNEL_FIELDS
def test_compress_preserves_product_and_reaches_rank(ctx):
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        alpha = rng.randint(0, 6)
        G = rand_generator("toeplitz", ctx, m, n, alpha, rng)
        R = residues(ctx)
        cv, cw = _compress(R, G.v, G.w)
        H = GeneratorPair("toeplitz", m, n, cv, cw, ctx)
        prod = generator_product(G)
        assert_same_matrix(generator_product(H), prod)
        assert len(cv) == matrix_rank(ctx, prod, n)


# ------------------------------------------------------------ preconditioner


def dense_unit_upper(ctx, coefs, size):
    rows = [[ctx.zero()] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = ctx.one()
        for k in range(1, size - i):
            rows[i][i + k] = coefs[k - 1]
    return rows


def dense_unit_lower(ctx, coefs, size):
    rows = [[ctx.zero()] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = ctx.one()
        for k in range(1, i + 1):
            rows[i][i - k] = coefs[k - 1]
    return rows


@KERNEL_FIELDS
def test_precondition_matches_dense_oracle(ctx):
    rng = random.Random(19)
    for size in (1, 2, 3, 5, 8):
        for _ in range(6):
            A = rand_matrix(ctx, size, size, rng)
            G = gen_from_dense("toeplitz", A, ctx)
            R = residues(ctx)
            u_coefs = [rand_el(ctx, rng) for _ in range(size - 1)]
            l_coefs = [rand_el(ctx, rng) for _ in range(size - 1)]
            pv, pw = _precondition(
                R,
                G.v,
                G.w,
                R.array([ctx.one()] + u_coefs),
                R.array([ctx.one()] + l_coefs),
            )
            got = GeneratorPair("toeplitz", size, size, pv, pw, ctx)
            U = dense_unit_upper(ctx, u_coefs, size)
            L = dense_unit_lower(ctx, l_coefs, size)
            UAL = mat_mul(mat_mul(U, A, ctx), L, ctx)
            assert_same_matrix(
                generator_product(got), displacement_of_dense("toeplitz", UAL, ctx)
            )


def test_eliminate_certifies_rank():
    rng = random.Random(23)
    ctx = F65537
    for _ in range(25):
        size = rng.randint(1, 10)
        r = rng.randint(0, size)
        A = low_rank_matrix(ctx, size, size, r, rng)
        true_rank = matrix_rank(ctx, A, size)
        G = gen_from_dense("toeplitz", A, ctx)
        R = residues(ctx)
        coefs = [ctx.el(rng.randrange(ctx.p)) for _ in range(2 * size - 2)]
        pv, pw = _precondition(
            R,
            G.v,
            G.w,
            R.array([ctx.one()] + coefs[: size - 1]),
            R.array([ctx.one()] + coefs[size - 1 :]),
        )
        rows, rest = _eliminate(R, pv, pw, size)
        assert rest is None
        assert len(rows) == true_rank


# ------------------------------------------------------------ the solver


def test_nullspace_identity_nosolution():
    ctx = F65537
    I2 = [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]]
    G = gen_from_dense("toeplitz", I2, ctx)
    out = nullspace_structured(G, random.Random(1), 8)
    assert isinstance(out, NoSolution)


def test_nullspace_shift_matrix_solution():
    ctx = F65537
    A = [[ctx.zero(), ctx.zero()], [ctx.one(), ctx.zero()]]
    G = gen_from_dense("toeplitz", A, ctx)
    out = nullspace_structured(G, random.Random(2), 8)
    assert isinstance(out, Solution)
    v = out.value
    assert not v[:, 0].any() and v[:, 1].any()


def test_nullspace_solves_a_hankel_tagged_generator():
    # the kernel flips a hankel-tagged generator itself and reverses its
    # answer back, so the same draws give the flipped answer reversed
    ctx = F65537
    rng = random.Random(3)
    for seed in range(10):
        m = rng.randint(1, 7)
        G = rand_generator("hankel", ctx, m, m + rng.randint(1, 2), 2, rng)
        out = nullspace_structured(G, random.Random(seed), 8)
        assert isinstance(out, Solution)  # more unknowns than equations
        assert out.value.any()
        y = mat_vec(reconstruct_dense(G), elements(ctx, out.value), ctx)
        assert all(e.is_zero() for e in y)
        flipped = nullspace_structured(hankel_to_toeplitz(G), random.Random(seed), 8)
        assert out.value.tolist() == flipped.value[:, ::-1].tolist()


def test_nullspace_field_too_small():
    # F_5 is far below subset_floor(20): the kernel samples the whole field
    # and never refuses it; what it returns is still verified or certified
    F5 = prime_field(5)
    rng = random.Random(37)
    A = rand_matrix(F5, 20, 20, rng)
    G = gen_from_dense("toeplitz", A, F5)
    assert F5.order < subset_floor(20)
    out = nullspace_structured(G, rng, 8)
    if isinstance(out, Solution):
        assert out.value.any()
        y = mat_vec(reconstruct_dense(G), elements(F5, out.value), F5)
        assert all(e.is_zero() for e in y)
    elif isinstance(out, NoSolution):
        assert matrix_rank(F5, A, 20) == 20


def test_subset_floor_value():
    assert subset_floor(12) == 6 * 13 * 13


def test_nullspace_random_agreement():
    # 12x13 generators of displacement rank <= 5: solver verdict must match
    # dense elimination every time, structured path forced
    ctx = F65537
    rng = random.Random(41)
    solved = 0
    for seed in spread_seeds(43, 100):
        r = random.Random(seed)
        A = low_rank_matrix(ctx, 12, 13, r.randint(1, 11), r)
        G = gen_from_dense("toeplitz", A, ctx)
        out = nullspace_structured(G, rng, 8)
        assert isinstance(out, Solution)  # 13 unknowns, 12 equations
        y = mat_vec(A, elements(ctx, out.value), ctx)
        assert all(e.is_zero() for e in y)
        solved += 1
    assert solved == 100


def test_nullspace_square_verdicts_match_dense():
    ctx = F65537
    rng = random.Random(47)
    for seed in spread_seeds(53, 60):
        r = random.Random(seed)
        n = r.randint(2, 12)
        rank = r.randint(1, n)
        A = low_rank_matrix(ctx, n, n, rank, r)
        G = gen_from_dense("toeplitz", A, ctx)
        out = nullspace_structured(G, rng, 8)
        if matrix_rank(ctx, A, n) == n:
            assert isinstance(out, NoSolution)
        else:
            assert isinstance(out, Solution)
            y = mat_vec(A, elements(ctx, out.value), ctx)
            assert all(e.is_zero() for e in y)


def test_nullspace_tall_pad_path():
    ctx = F65537
    rng = random.Random(59)
    for seed in spread_seeds(61, 25):
        r = random.Random(seed)
        m = r.randint(4, 9)
        n = r.randint(1, m - 1)
        rank = r.randint(0, n)
        A = low_rank_matrix(ctx, m, n, rank, r)
        G = gen_from_dense("toeplitz", A, ctx)
        out = nullspace_structured(G, rng, 8)
        if matrix_rank(ctx, A, n) == n:
            assert isinstance(out, NoSolution)
        else:
            assert isinstance(out, Solution)
            assert out.value.any()
            y = mat_vec(A, elements(ctx, out.value), ctx)
            assert all(e.is_zero() for e in y)


def test_nullspace_object_ops_extension_field():
    base = prime_field(3)
    ext = build_extension(base, 7, random.Random(67))  # 3^7 = 2187 elements
    rng = random.Random(71)
    for seed in spread_seeds(73, 8):
        r = random.Random(seed)
        m, n = 5, 6
        A = low_rank_matrix(ext, m, n, r.randint(1, 4), r)
        G = gen_from_dense("toeplitz", A, ext)
        out = nullspace_structured(G, rng, 8)
        assert isinstance(out, Solution)
        y = mat_vec(A, elements(ext, out.value), ext)
        assert all(e.is_zero() for e in y)


# ------------------------------------------------------------ batched applies


@pytest.mark.parametrize(
    "ctx, size, alpha",
    [
        (F65537, 40, 3),
        (F65537, 600, 3),  # above the FFT crossover
        (build_extension(F13, 4, random.Random(5)), 40, 3),
        (build_extension(F13, 4, random.Random(5)), 200, 3),  # FFT, 16 row pairs
    ],
)
def test_batched_applies_match_the_dense_matrix(ctx, size, alpha):
    R = residues(ctx)
    rng = np.random.default_rng(size)
    shapes = [(alpha, ctx.d, size)] * 2 + [(ctx.d, size)] * 3
    v, w, x, u, l = (rng.integers(0, ctx.p, s) for s in shapes)
    u[:, 0], l[:, 0] = R.unit(1, 0)[:, 0], R.unit(1, 0)[:, 0]
    A = dense_from_halves(R, v, w)
    assert np.array_equal(_apply(R, v, w, x, size), dense_matvec(R, A, x))
    assert np.array_equal(_apply_last(R, v, w, size), A[:, :, -1].T)
    pv, pw = _precondition(R, v, w, u, l)
    U, L = dense_toeplitz(R, u, True), dense_toeplitz(R, l, False)
    UALx = dense_matvec(R, U, dense_matvec(R, A, dense_matvec(R, L, x)))
    assert np.array_equal(dense_matvec(R, dense_from_halves(R, pv, pw), x), UALx)
    assert np.array_equal(_apply(R, pv, pw, x, size), UALx)
