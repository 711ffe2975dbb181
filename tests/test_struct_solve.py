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
from mvinterp import struct_solve
from mvinterp.errors import TooLarge, WrongTag
import mvinterp.field as field_module
from mvinterp.field import FieldCtx, Residues, Spectrum, build_extension, prime_field
from mvinterp.linalg import matrix_rank
from mvinterp.outcomes import NoSolution, Solution
from mvinterp.struct_solve import (
    GeneratorPair,
    _apply,
    _apply_last,
    _compress,
    _eliminate,
    _kept,
    _precondition,
    hankel_to_toeplitz,
    nullspace_structured,
    subset_floor,
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
        GeneratorPair("circulant", 2, 2, G.v, G.w, F13)
    with pytest.raises(WrongTag):
        GeneratorPair("toeplitz", 2, 3, G.v, G.w, F13)  # halves of a 2x2 matrix


def kept_dense(A, ctx):
    """The dense matrix of _kept's pairs for A's generator, padded to
    size max(m, n), as FieldElement rows."""
    G = gen_from_dense("toeplitz", A, ctx)
    R = residues(ctx)
    size = max(G.nrows, G.ncols)
    kept, _ = _kept(R, G.v, G.w, size)
    assert kept.shape == (G.alpha, 2, ctx.d, size)
    return [R.elements(row) for row in dense_from_halves(R, kept[:, 0], kept[:, 1])]


def test_pad_wide_example():
    # a wide matrix sits under zero rows
    z, one = F13.zero(), F13.one()
    assert_same_matrix(kept_dense([[one, z]], F13), [[z, z], [one, z]])


def test_pad_tall_example():
    # a tall matrix sits right of zero columns
    z, one = F13.zero(), F13.one()
    assert_same_matrix(kept_dense([[one], [z]], F13), [[z, one], [z, z]])


def test_pad_random_consistency():
    rng = random.Random(11)
    z = F13.zero()
    for _ in range(20):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_matrix(F13, m, n, rng)
        if m <= n:
            expect = [[z] * n for _ in range(n - m)] + A
        else:
            expect = [[z] * (m - n) + row for row in A]
        assert_same_matrix(kept_dense(A, F13), expect)


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


@pytest.mark.parametrize("p", [2**31 - 1, 998244353, 16777213])
def test_compress_keeps_the_matrix_past_int64_updates(p):
    # _echelon leaves the rows below a pivot unreduced only while one more
    # update of products below p^2 stays within int64 (R.sum_dtype): over
    # 2^31 - 1 it reduces before every update, over 998244353 before every
    # fourth, over 16777213 never.  Halves of alpha = 8 with 4 random pairs
    # repeated in shuffled order (rank 4), and halves all p - 1 (rank 1),
    # compress to halves of the same matrix, both read in object arithmetic
    ctx = prime_field(p)
    R = residues(ctx)
    rng = random.Random(p)
    full = np.full((8, 1, 12), p - 1, dtype=np.int64)
    cases = [(full, full.copy(), 1)]
    for _ in range(100):
        pairs = [[rng.randrange(p) for _ in range(24)] for _ in range(4)] * 2
        rng.shuffle(pairs)
        halves = np.array(pairs, dtype=np.int64).reshape(8, 2, 1, 12)
        cases.append((halves[:, 0].copy(), halves[:, 1].copy(), 4))
    for v, w, rank in cases:
        cv, cw = _compress(R, v, w)
        want = dense_from_halves(R, v.astype(object), w.astype(object))
        assert np.array_equal(dense_from_halves(R, cv.astype(object), cw.astype(object)), want)
        assert len(cv) == rank


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
                *_kept(R, G.v, G.w, size),
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


def test_eliminate_certifies_rank(monkeypatch):
    # a preconditioned matrix has a generic rank profile: its leading r x r
    # block is invertible, so Schur steps alone (the dense tail pinned to 0)
    # take pivots in columns 0..r-1 and certify the rank, and the pivoting
    # dense tail at the crossover finds the same pivots
    for width in (0, struct_solve._DENSE_WIDTH):
        monkeypatch.setattr(struct_solve, "_DENSE_WIDTH", width)
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
                *_kept(R, G.v, G.w, size),
                R.array([ctx.one()] + coefs[: size - 1]),
                R.array([ctx.one()] + coefs[size - 1 :]),
            )
            rows, cols, rest = _eliminate(R, pv, pw)
            assert rest is None
            assert cols == list(range(true_rank))


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
    # the answer is the padded vector without the pad's zero columns
    rng = random.Random(59)
    for ctx, seed in zip([F65537] * 25 + [F13] * 20, spread_seeds(61, 45)):
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
            assert out.value.shape == (1, n) and out.value.any()
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
    "ctx, size, alpha, fft",
    [
        (F65537, 40, 3, False),
        (build_extension(F13, 4, random.Random(5)), 200, 3, True),
        (prime_field(16777213), 257, 4, True),  # gs_wide's
        (prime_field(2**61 - 1), 30, 3, False),  # object residues
    ],
)
def test_precondition_takes_at_most_four_products(monkeypatch, ctx, size, alpha, fft):
    # one preconditioning makes at most four top-level Residues products, on
    # the stacked halves as arrays and as their kept spectra alike
    R = residues(ctx)
    rng = np.random.default_rng(size)
    v, w = (rng.integers(0, ctx.p, (alpha, ctx.d, size)) for _ in range(2))
    u, l = (rng.integers(0, ctx.p, (ctx.d, size)) for _ in range(2))
    u[:, 0], l[:, 0] = R.unit(1, 0)[:, 0], R.unit(1, 0)[:, 0]
    kept, last = _kept(R, v, w, size)
    assert isinstance(kept, Spectrum) == fft
    calls, depth = [], [0]
    for name in ("conv", "corr", "conv_sum"):

        def counted(self, *args, real=getattr(Residues, name), name=name):
            if not depth[0]:
                calls.append(name)
            depth[0] += 1
            try:
                return real(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Residues, name, counted)
    outs = []
    for halves in (np.stack([v, w], axis=1), kept):
        calls.clear()
        outs.append(_precondition(R, halves, last, u, l))
        assert 0 < len(calls) <= 4
    assert all(np.array_equal(a, b) for a, b in zip(*outs))


@pytest.mark.parametrize(
    "ctx, size, alpha",
    [
        (F65537, 40, 3),
        (F65537, 600, 3),  # above the FFT crossover
        (build_extension(F13, 4, random.Random(5)), 40, 3),
        (build_extension(F13, 4, random.Random(5)), 200, 3),  # FFT, 16 row pairs
        (prime_field(16777213), 257, 4),  # gs_wide's: FFT with the halves' spectra kept
    ],
)
def test_batched_applies_match_the_dense_matrix(ctx, size, alpha):
    # every apply of the kernel, on the halves and on their kept spectra
    R = residues(ctx)
    rng = np.random.default_rng(size)
    shapes = [(alpha, ctx.d, size)] * 2 + [(ctx.d, size)] * 3
    v, w, x, u, l = (rng.integers(0, ctx.p, s) for s in shapes)
    u[:, 0], l[:, 0] = R.unit(1, 0)[:, 0], R.unit(1, 0)[:, 0]
    A = dense_from_halves(R, v, w)
    U, L = dense_toeplitz(R, u, True), dense_toeplitz(R, l, False)
    UALx = dense_matvec(R, U, dense_matvec(R, A, dense_matvec(R, L, x)))
    kept, last = _kept(R, v, w, size)
    fft = alpha * ctx.d**2 * size**2 >= field_module._FFT_WORK
    assert [isinstance(h, Spectrum) for h in (kept[:, 0], kept[:, 1])] == [fft, fft]
    assert np.array_equal(last, np.stack([A[:, :, -1].T, A[-1]]))  # last column and row
    for halves in (np.stack([v, w], axis=1), kept):
        hv, hw = halves[:, 0], halves[:, 1]
        assert np.array_equal(_apply(R, hv, hw, x, size), dense_matvec(R, A, x))
        assert np.array_equal(_apply_last(R, hv, hw, size), A[:, :, -1].T)
        pv, pw = _precondition(R, halves, last, u, l)
        assert np.array_equal(dense_matvec(R, dense_from_halves(R, pv, pw), x), UALx)
        assert np.array_equal(_apply(R, pv, pw, x, size), UALx)
    # the final check applies the padded generator's kept spectra: a wide
    # matrix sits under zero rows, a tall one right of zero columns
    cut = size // 4
    for nrows, ncols in ((size - cut, size), (size, size - cut)):
        top, _ = _kept(R, v[:, :, :nrows], w[:, :, :ncols], size)
        assert [isinstance(h, Spectrum) for h in (top[:, 0], top[:, 1])] == [fft, fft]
        pairs = top.array if fft else top
        assert pairs.shape == (alpha, 2, ctx.d, size)
        A = dense_from_halves(R, pairs[:, 0], pairs[:, 1])
        rows, cols = size - nrows, size - ncols
        assert not A[:rows].any() and not A[:, :, :cols].any()
        unpadded = dense_from_halves(R, v[:, :, :nrows], w[:, :, :ncols])
        assert np.array_equal(A[rows:, :, cols:], unpadded)
        assert np.array_equal(_apply(R, top[:, 0], top[:, 1], x, size), dense_matvec(R, A, x))
