"""The structured kernel on every kind of field it accepts.

Prime fields with int64 residues, a large prime and 2^61 - 1 (Python-int
residues), an odd-characteristic extension, a quadratic extension of the
large prime (Python-int residues) and GF(2^8).  Verdicts are
checked against the dense matrix the generator represents; the golden
vectors pin the exact output for fixed draws, which depends only on the
matrix and the random stream (a kernel vector is determined by its
coordinates off the pivot columns, which are the matrix's column rank
profile).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_from_halves,
    dense_matvec,
    elements,
    gen_from_dense,
    generator,
    inverse_prefix,
    level0_passes_through,
    low_rank_matrix,
    mat_vec,
    rand_el,
    rand_generator,
    rand_matrix,
    reconstruct_dense,
    spread_seeds,
)
from mvinterp import struct_solve
from mvinterp.apps import GsParams, gs_interpolate
from mvinterp.field import FieldCtx, Residues, build_extension, prime_field
from mvinterp.linalg import _realify, _rref_np, matrix_rank
from mvinterp.outcomes import Failure, NoSolution, Solution
from mvinterp.reduction import InterpolationInstance, verify_solution
from mvinterp.struct_solve import (
    GeneratorPair,
    _compress,
    _kept,
    _precondition,
    _schur_block,
    nullspace_structured,
)

F7 = prime_field(7)
F13 = prime_field(13)
F24 = prime_field(16777213)
F65537 = prime_field(65537)
F13_4 = FieldCtx(13, (6, 12, 6, 0, 1))
P31 = prime_field(2147483659)
M61 = prime_field(2**61 - 1)
GF256 = FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))

P31_2 = build_extension(P31, 2, random.Random(3))  # object residues, d = 2

# GF(2^8) is below subset_floor of these sizes, so the kernel samples all of it
FIELDS = {
    "F65537": F65537,
    "F13^4": F13_4,
    "P2147483659": P31,
    "P2147483659^2": P31_2,
    "M61": M61,
    "GF256": GF256,
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_nullspace_matches_dense_oracle(name):
    ctx = FIELDS[name]
    rng = random.Random(79)
    solved = refused = 0
    for k, seed in enumerate(spread_seeds(83, 12)):
        r = random.Random(seed)
        m, n = r.randint(2, 8), r.randint(2, 8)
        if k % 2:
            G = rand_generator("toeplitz", ctx, m, n, r.randint(1, 3), r)
        else:
            G = gen_from_dense(
                "toeplitz", low_rank_matrix(ctx, m, n, r.randint(1, min(m, n)), r), ctx
            )
        A = reconstruct_dense(G)
        out = nullspace_structured(G, rng, 8)
        if matrix_rank(ctx, A, n) == n:
            assert isinstance(out, NoSolution)
            refused += 1
        else:
            assert isinstance(out, Solution)
            assert out.value.any()
            assert all(e.is_zero() for e in mat_vec(A, elements(ctx, out.value), ctx))
            solved += 1
    assert solved and refused


# ------------------------------------------------------------ the Schur step


def block_size(R):
    """The pivots a block step of the kernel takes at most: min(_BLOCK,
    max(_BLOCK // 4, 2 _BLOCK // d)) over int64 residues, _BLOCK // 4 over
    Python ints."""
    block = struct_solve._BLOCK
    return min(block, max(block // 4, 2 * block // R.d)) if R.dtype is np.int64 else block // 4


@pytest.mark.parametrize("name", ["F65537", "F13^4", "P2147483659^2", "M61", "GF256"])
def test_schur_step_tracks_the_dense_schur_complement(name):
    # block steps of one pivot and of the field's own h: after every step
    # the generator represents the Schur complement of the preconditioned
    # matrix, at no more than its compressed length, and the step's rows are
    # the Gauss-Jordan oracle's; a zero complement reached mid-elimination
    # compresses to nothing.  One step serves every field: int64 and object
    # residues, d = 1 and d > 1
    ctx = FIELDS[name]
    R = Residues(ctx)
    certified = completed = 0
    for k, seed in enumerate(spread_seeds(31, 8)):
        r = random.Random(seed)
        size = r.randint(2, 7)
        if k % 2:
            G = rand_generator("toeplitz", ctx, size, size, r.randint(1, 3), r)
        else:
            rank = r.randint(1, size - 1)
            G = gen_from_dense("toeplitz", low_rank_matrix(ctx, size, size, rank, r), ctx)
        u = [ctx.one()] + [rand_el(ctx, r) for _ in range(size - 1)]
        l = [ctx.one()] + [rand_el(ctx, r) for _ in range(size - 1)]
        v, w = _precondition(R, *_kept(R, G.v, G.w, size), R.array(u), R.array(l))
        S = dense_from_halves(R, v, w)
        v, w = _compress(R, v, w)
        alpha = len(v)
        assert np.array_equal(dense_from_halves(R, v, w), S)
        for h in (1, block_size(R)):
            G, A = np.stack([v, w]), S
            while len(A):
                h = min(h, len(A))
                step = _schur_block(R, G, h)
                whole = gauss_jordan(R, A, h, h)
                if step is None:
                    assert whole is None and not A[0, :, 0].any()
                    zero = not A.any()
                    assert (not len(_compress(R, *G)[0])) == zero
                    certified += zero and len(A) < size
                    break
                rows, G = step
                t = len(rows)
                want = whole if t == h else gauss_jordan(R, A, t)
                assert np.array_equal(rows, want[:t]) and len(G[0]) <= alpha
                A = want[t:, :, t:]
                if len(A):
                    assert np.array_equal(dense_from_halves(R, *G), A)
            else:
                completed += 1
    assert certified and completed


def gauss_jordan(R, A, k, block=0):
    """A (m, d, n) after k Gauss-Jordan pivots, one entry at a time: rows
    0..k-1 reduced to [I | X A12], X the inverse of the leading k x k block,
    the Schur complement of that block below and right of them.  A zero
    pivot takes the first row below it, among the first `block` rows, with
    a nonzero entry in its column; None if there is none."""
    A = A % R.p
    for i in range(k):
        below = [j for j in range(i, max(i + 1, block)) if A[j, :, i].any()]
        if not below:
            return None
        A[[i, below[0]]] = A[[below[0], i]]
        A[i] = R.scale(R.inv(A[i, :, i])[0], A[i]) % R.p
        col = A[:, :, i].copy()
        col[i] = 0
        A = (A - R.scale(col, A[i])) % R.p
    return A


def blocks_stop(R, A, h, stop):
    """The pivots that steps of up to h pivots take on the dense matrix A
    before one is empty or `stop` is reached: a step takes its whole
    leading h x h block when that is invertible (gauss_jordan pivoting
    inside it), else the pivots before its first zero pivot without
    pivoting, none at a zero leading entry."""
    S, t = A % R.p, 0
    while t < stop:
        size = min(h, stop - t)
        whole = gauss_jordan(R, S, size, size)
        if whole is not None:
            S, t = whole[size:, :, size:], t + size
        elif not S[0, :, 0].any():
            return t
        while whole is None and S[0, :, 0].any():
            S, t = gauss_jordan(R, S, 1)[1:, :, 1:], t + 1
    return t


BLOCK_FIELDS = {"F65537": F65537, "F13^4": F13_4, "GF256": GF256}


@pytest.mark.parametrize("shape", ["square", "wide", "tall"])
@pytest.mark.parametrize("name", list(BLOCK_FIELDS))
def test_block_step_tracks_the_dense_schur_complement(name, shape):
    # each block step of up to h = _BLOCK pivots takes r <= h at once: h
    # when the leading h x h block of the matrix left is invertible, whatever
    # its leading minors, else r0, its first zero pivot without pivoting.
    # Its rows are the reduced rows [I | X A12] of the Gauss-Jordan oracle,
    # which swaps rows inside the block, and its generator, no longer than
    # the compressed one, is that of the dense Schur complement.  A
    # vanishing leading minor inside an invertible block is stepped over,
    # at the block's start or in its middle; a singular block cuts the step
    # short (r < h), and the next step, at a zero leading entry, returns
    # None when its own block is singular too; a zero complement then
    # compresses to nothing, which certifies the rank.  The blocks
    # back-substitute the vector that their rows taken one at a time do,
    # for the same free draws, in the nullspace once certified
    ctx = BLOCK_FIELDS[name]
    R = Residues(ctx)
    cut = certified = 0
    pivoted = set()
    for seed in range(5):
        r = random.Random(seed)
        m = r.randint(40, 70) if seed < 3 else r.randint(50, 70)
        n = {"square": m, "wide": m + r.randint(1, 9), "tall": m - r.randint(1, 9)}[shape]
        if seed == 0:  # row k in the span of the rows above: every minor from k + 1 on vanishes
            A = singular_block_case(R, m, n, r.randint(34, min(m, n) - 2), False, r, n)[0]
        elif seed == 1:  # a zero complement after the rank's pivots
            A = low_rank_residues(R, m, n, r.randint(33, min(m, n) - 1), r)
        elif seed == 2:
            A = residue_matrix(R, m, n, r)
        else:  # only the leading (k + 1) x (k + 1) minor vanishes, at a block's start or inside it
            A = singular_block_case(R, m, n, 32 if seed == 3 else r.randint(34, 44), False, r)[0]
        G = gen_from_residues(R, A)
        v, w = _compress(R, G.v, G.w)
        size, alpha = max(m, n), len(v)
        G = np.zeros((2, alpha, R.d, size), R.dtype)
        G[0, ..., :m], G[1, ..., :n] = v, w
        blocks, t, in_kernel, S = [], 0, True, A % R.p
        while t < min(m, n):
            h = min(struct_solve._BLOCK, min(m, n) - t)
            step = _schur_block(R, G, h)
            whole = gauss_jordan(R, S, h, h)
            if step is None:
                assert whole is None and not S[0, :, 0].any()
                left = _compress(R, G[0, ..., : m - t], G[1, ..., : n - t])[0]
                zero = not S.any()
                assert (not len(left)) == zero
                in_kernel = zero
                break
            rows, G = step
            k = len(rows)
            assert 1 <= k <= h and G.shape[:3] == (2, alpha, R.d)
            want = whole if k == h else gauss_jordan(R, S, k)
            assert np.array_equal(rows[..., : n - t], want[:k])
            if k < h:
                assert whole is None and not want[k, :, k].any()
                cut += 1
            elif gauss_jordan(R, S, h) is None:  # a leading minor vanished inside the block
                pivoted.add("middle" if S[0, :, 0].any() else "start")
            t += k
            S, (v, w) = want[k:, :, k:], G
            if S.size:
                assert np.array_equal(dense_from_halves(R, v[..., : m - t], w[..., : n - t]), S)
            blocks.append(rows[..., : n - t + k])
        certified += in_kernel
        cols = list(range(t))
        free = residue_matrix(R, 1, n - t, r)[0]
        x = struct_solve._back_substitute(R, blocks, cols, free)
        singles = [rows[i : i + 1, :, i:] for rows in blocks for i in range(len(rows))]
        assert np.array_equal(struct_solve._back_substitute(R, singles, cols, free), x)
        if in_kernel:
            assert not dense_matvec(R, A, x).any()
    assert certified and cut and pivoted == {"start", "middle"}


@pytest.mark.parametrize(
    "ctx",
    [
        F24,
        prime_field(33554393),
        F13_4,
        GF256,
        prime_field(35871193),
        build_extension(prime_field(2), 12, random.Random(1)),
        prime_field(2**31 - 1),
        M61,
    ],
    ids=["F16777213", "F33554393", "F13^4", "GF256", "F35871193", "F2^12", "F2147483647", "M61"],
)
def test_blocks_run_where_float64_products_are_exact(monkeypatch, ctx):
    # every field takes block steps, of h = min(_BLOCK, max(_BLOCK // 4,
    # 2 _BLOCK // d)) pivots over int64 residues and _BLOCK // 4 over
    # Python ints: 32 at every int64 prime, whose products past f64_terms
    # (8 at p = 33554393, 7 at p = 35871193, none at 2^31 - 1) are two
    # float64 products of 16-bit limbs, 8 over F_2^12 and over 2^61 - 1
    sizes = []
    real = struct_solve._schur_block
    monkeypatch.setattr(struct_solve, "_schur_block", lambda *a: sizes.append(a[2]) or real(*a))
    R = Residues(ctx)
    r = random.Random(11)
    G = rand_generator("toeplitz", ctx, 64, 65, 3, r)
    out = nullspace_structured(G, r, 8)
    assert isinstance(out, Solution)
    assert not dense_matvec(R, dense_from_halves(R, G.v, G.w), out.value).any()
    want = 32 if ctx.d == 1 and R.dtype is np.int64 else 16 if ctx is F13_4 else 8
    assert block_size(R) == want and max(sizes) == want


def gs_deep_params(p=16777213):
    """gs at n=64, m=3, l=6: a 384 x 385 system of displacement rank 10."""
    ctx = prime_field(p)
    rng = random.Random(64)
    xs = rng.sample(range(ctx.p), 64)
    pts = tuple((ctx.el(x), ctx.el(rng.randrange(ctx.p))) for x in xs)
    return GsParams(ctx, k=16, m=3, ell=6, b=103, points=pts)


def test_one_compression_per_attempt(monkeypatch):
    # with the dense crossover pinned to 0, the gs 384 x 385 system in the
    # toeplitz builder's column order has its level 0 (its own generator,
    # not preconditioned) break down at pivot 103 and compress the 281 x 282
    # complement once; each attempt on that complement compresses once
    # more, at the leading entry that vanishes where the Schur complement is
    # zero.  At the crossover the same entries vanish at the same widths,
    # the attempts' last ones met by dense eliminations, which never
    # compress.  The F7 case (8 x 8, rank 5, a zero leading entry) pinned to
    # 0 breaks down at level 0's first step, which hands its compressed
    # generator to a chain of preconditioned levels, each compressing once
    # where its leading entry vanishes (at the crossover level 0 eliminates
    # it densely, with pivoting, alone).  A breakdown is a block step
    # (_schur_block) that returns None: its leading entry is zero and its
    # h x h block singular; a step cut short by a singular block is none
    crossover = struct_solve._DENSE_WIDTH
    calls = dict.fromkeys(["_compress", "_precondition", "_schur_block", "_eliminate_dense"], 0)
    vanished, widths = [], []
    for name in calls:

        def counted(*args, real=getattr(struct_solve, name), name=name):
            calls[name] += 1
            out = real(*args)
            if name == "_schur_block" and out is None:
                vanished.append(args[1].shape[-1])
            if name == "_eliminate_dense" and len(out[0]) < len(args[1]):
                vanished.append(len(args[1]) - len(out[0]))  # the rows left unpivoted
            if name == "_precondition":
                widths.append(args[3].shape[1])
            return out

        monkeypatch.setattr(struct_solve, name, counted)

    A = low_rank_matrix(F7, 8, 8, 5, random.Random(3))
    A.sort(key=lambda row: not row[0].is_zero())  # a row permutation: rank 5
    assert A[0][0].is_zero()
    f7 = gen_from_dense("toeplitz", A, F7)

    def solve(case, width):
        calls.update(dict.fromkeys(calls, 0))
        vanished.clear()
        widths.clear()
        monkeypatch.setattr(struct_solve, "_DENSE_WIDTH", width)
        if case == "gs":
            out = gs_interpolate(gs_deep_params(), random.Random(5), "toeplitz")
        else:
            out = nullspace_structured(f7, random.Random(104), 8)
        assert isinstance(out, Solution)
        return dict(calls), list(vanished)

    generator, at_vanish = solve("gs", 0)
    attempts = generator["_precondition"]
    assert at_vanish[0] == 385 - 103 and set(widths) == {282}
    assert generator["_compress"] == 1 + attempts == len(at_vanish)
    dense, at_vanish_dense = solve("gs", crossover)
    assert dense["_precondition"] == dense["_eliminate_dense"] == attempts
    assert dense["_compress"] == 1
    assert at_vanish_dense == at_vanish

    generator, at_vanish = solve("F7", 0)
    assert at_vanish[0] == 8 and generator["_precondition"] > 1
    assert generator["_compress"] == len(at_vanish) == 1 + generator["_precondition"]


@pytest.mark.parametrize(
    "ctx", [F13, F24, F13_4, GF256, M61], ids=["F13", "F16777213", "F13^4", "GF256", "M61"]
)
def test_elimination_with_and_without_the_first_compression(monkeypatch, ctx):
    # the pivot columns, the rank, whether a nonzero Schur complement is
    # left and the vector back-substituted for the same free draws depend on
    # the preconditioned matrix alone, not on how it is held: by block
    # steps alone (the dense crossover pinned to 0), its generator compressed
    # before the first step or as _precondition gives it, through _level or
    # not.  From the crossover on the dense tail pivots, its rows unreduced:
    # it takes the same pivots up to a breakdown, and goes on past it
    R = Residues(ctx)
    crossover = struct_solve._DENSE_WIDTH
    breakdowns = certified = 0
    for k, seed in enumerate(spread_seeds(47, 13)):  # the last 5 at crossover - 2..+2
        r = random.Random(seed)
        size = r.randint(6, 30) if k < 8 else crossover - 10 + k
        if k % 2:
            A = low_rank_matrix(ctx, size, size, r.randint(1, size - 1), r)
            G = gen_from_dense("toeplitz", A, ctx)
        else:
            G = rand_generator("toeplitz", ctx, size, size, r.randint(1, 4), r)
        u, l = ([ctx.one()] + [rand_el(ctx, r) for _ in range(size - 1)] for _ in range(2))
        u, l = R.array(u), R.array(l)
        v, w = _precondition(R, *_kept(R, G.v, G.w, size), u, l)
        rows_c, cols_c, rest_c = struct_solve._eliminate(R, v, w)
        monkeypatch.setattr(struct_solve, "_DENSE_WIDTH", 0)
        out = [struct_solve._eliminate(R, v, w)]
        out.append(struct_solve._level(R, _kept(R, G.v, G.w, size), u, l))
        out.append(struct_solve._eliminate(R, *_compress(R, v, w)))
        monkeypatch.undo()
        rows, cols, rest = out[0]
        free = residue_matrix(R, 1, size - len(cols), r)[0]
        x = struct_solve._back_substitute(R, rows, cols, free)
        for rows_b, cols_b, rest_b in out[1:]:
            assert cols == cols_b and (rest is None) == (rest_b is None)
            assert np.array_equal(struct_solve._back_substitute(R, rows_b, cols_b, free), x)
        assert cols_c[: len(cols)] == cols
        if rest is None or rest_c is not None:  # no breakdown, or the same one
            assert cols_c == cols and (rest_c is None) == (rest is None)
            assert np.array_equal(struct_solve._back_substitute(R, rows_c, cols_c, free), x)
        breakdowns += rest is not None
        certified += rest is None and len(cols) < size
    assert certified and (breakdowns or ctx is not F13)


@pytest.mark.parametrize("case", ["gs-384x385", "F7-breakdown"])
def test_last_attempt_levels_sum_to_the_rank(monkeypatch, case):
    # over the recorded levels of one solve, the last attempt (from the last
    # level at the size of the first) ends certified, and its levels' ranks
    # and level 0's sum to the matrix rank: 384 for the gs system in the
    # toeplitz builder's column order, 103 in level 0 and 281 in one
    # preconditioned level of its complement, 5 for the F7 case, handed
    # whole to a chain of generator levels (the dense crossover pinned to
    # 0), which breaks down into several
    calls, level0 = [], []
    if case == "F7-breakdown":
        level0_passes_through(monkeypatch)
        monkeypatch.setattr(struct_solve, "_DENSE_WIDTH", 0)

    def recorded(R, level, u_full, l_full, real=struct_solve._level):
        rows, cols, rest = real(R, level, u_full, l_full)
        calls.append((u_full.shape[1], len(cols), rest is None))
        return rows, cols, rest

    def recorded0(R, G, dense, real=struct_solve._level0):
        out = real(R, G, dense)
        level0.append(len(out[1]))
        return out

    monkeypatch.setattr(struct_solve, "_level", recorded)
    monkeypatch.setattr(struct_solve, "_level0", recorded0)
    if case == "gs-384x385":
        out = gs_interpolate(gs_deep_params(), random.Random(5), "toeplitz")
    else:
        out = nullspace_structured(golden_case(F7, "square", 1), random.Random(101), 8)
    assert isinstance(out, Solution)
    size = calls[0][0]
    start = max(i for i, call in enumerate(calls) if call[0] == size)
    last = calls[start:]
    assert last[-1][2]
    assert (len(last) > 1) == (case == "F7-breakdown")
    assert level0 == ([103] if case == "gs-384x385" else [0])
    assert sum(rank for _, rank, _ in last) + level0[0] == (384 if case == "gs-384x385" else 5)


def test_level0_steps_over_the_hankel_orders_vanishing_minors(monkeypatch):
    # in the hankel builder's column order (the kernel's columns reversed)
    # the gs 384 x 385 system's leading minors 188-199 vanish, but no
    # block's own h x h block is singular: the block from pivot 160 is cut
    # short at 187, the next starts at a zero leading entry and pivots
    # inside its block, and level 0 takes all 384 pivots, so the solve
    # compresses, keeps and preconditions nothing (none is callable here)
    steps = []
    real = struct_solve._inverse_prefix

    def recorded(R, A):
        out = real(R, A)
        steps.append((bool((A[0, :, 0] % R.p).any()), out[1], len(A)))
        return out

    monkeypatch.setattr(struct_solve, "_inverse_prefix", recorded)
    for name in ("_compress", "_kept", "_precondition"):
        monkeypatch.setattr(struct_solve, name, None)
    assert isinstance(gs_interpolate(gs_deep_params(), random.Random(5)), Solution)
    assert (True, 27, 32) in steps and (False, 32, 32) in steps
    assert sum(r for _, r, _ in steps) == 384 - struct_solve._DENSE_WIDTH


# ------------------------------------------------------------ level 0

LEVEL0_FIELDS = {"F65537": F65537, "F16777213": F24, "F13^4": F13_4, "GF256": GF256, "M61": M61}


def residue_matrix(R, m, n, rng):
    """A uniformly random (m, d, n) residue matrix."""
    flat = [rng.randrange(R.p) for _ in range(m * R.d * n)]
    return np.array(flat, dtype=R.dtype).reshape(m, R.d, n)


def singular_block_case(R, m, n, k, deficient, rng, span=None):
    """A random m x n matrix whose leading (k+1) x (k+1) block is singular
    (row k's first `span` entries, k + 1 by default, a combination of the
    rows above, so the leading j x j blocks for k < j <= span are singular
    too) but whose leading k x k block is not; deficient, its last column
    is a combination of the others.  Returned with the generator (its
    displacement, the identity) the kernel is given."""
    A = residue_matrix(R, m, n, rng)
    span = k + 1 if span is None else span
    A[k, :, :span] = R.combine(residue_matrix(R, k, 1, rng)[..., 0], A[:k, :, :span])
    if deficient:
        mix = residue_matrix(R, n - 1, 1, rng)[..., 0]
        A[:, :, -1] = R.combine(mix, A[:, :, :-1].transpose(2, 1, 0)).T
    return A, gen_from_residues(R, A)


def low_rank_residues(R, m, n, rank, rng):
    """The product of random m x rank and rank x n residue matrices."""
    B = residue_matrix(R, m, rank, rng)
    return R.combine(B.transpose(0, 2, 1), residue_matrix(R, rank, n, rng)[None])


def gen_from_residues(R, A):
    """gen_from_dense of an (m, d, n) residue matrix: V = A - Z A Z^T, W = I."""
    m, d, n = A.shape
    D = A.copy()
    D[1:, :, 1:] -= A[:-1, :, :-1]
    w = np.zeros((n, d, n), R.dtype)
    w[np.arange(n), 0, np.arange(n)] = 1
    return GeneratorPair("toeplitz", m, n, (D % R.p).transpose(2, 1, 0).copy(), w, R.ctx)


def dense_rank(R, A):
    return len(_rref_np(_realify(R.ctx, A), R.p)) // R.d


def assert_level0_is_the_dense_elimination(R, A, G):
    """Level 0's k pivots are the first k of the pivoting dense elimination
    of the unpreconditioned matrix, in columns 0..k-1, and its rows, reduced
    in blocks, back-substitute the dense rows' vector for the same draws:
    the rows and columns its padding adds are never read.  Certified, all
    its pivot columns are the dense elimination's; at a breakdown the
    complement left holds the rest of the dense rank.  Returns its pivot
    columns and complement."""
    rows, cols, rest = struct_solve._eliminate(R, G.v, G.w)
    rows_d, cols_d = struct_solve._eliminate_dense(R, A.copy())
    k = len(cols)
    free = residue_matrix(R, 1, A.shape[2] - k, random.Random(k))[0]
    x = struct_solve._back_substitute(R, rows_d[:k], cols_d[:k], free)
    assert np.array_equal(struct_solve._back_substitute(R, rows, cols, free), x)
    if rest is None:
        assert cols == cols_d
    else:
        assert cols == cols_d[:k] == list(range(k))
        assert k + dense_rank(R, dense_from_halves(R, *rest)) == len(cols_d)
    return cols, rest


@pytest.mark.parametrize("shape", ["wide", "square", "tall"])
@pytest.mark.parametrize("name", list(LEVEL0_FIELDS))
def test_level0_stops_at_a_singular_leading_block(monkeypatch, name, shape):
    # level 0 eliminates the matrix as given, with no draws, and stops only
    # where the h x h block left is singular and its leading entry zero
    # (blocks_stop; h = 8 over 2^61 - 1): with row k in the span of the rows
    # above, every leading minor from k + 1 on vanishes and it stops after k
    # pivots; only the complement left is preconditioned (its first level is
    # max(m, n) - k wide), unless the singular block lies in the last step
    # before the dense tail or in the tail, whose pivoting elimination
    # certifies the rank with no level.  With only row k's first k + 1
    # entries in that span, one minor vanishes, and blocks step over it.  The
    # verdict is the dense rank's: NoSolution only at full column rank
    ctx = LEVEL0_FIELDS[name]
    R = Residues(ctx)
    h = block_size(R)
    starts = []
    real = struct_solve._level
    monkeypatch.setattr(struct_solve, "_level", lambda *a: starts.append(a[2].shape[1]) or real(*a))
    verdicts, stops, through, passed = set(), [], [], []
    for seed in range(4):
        r = random.Random(seed)
        m = r.randint(33, 64)
        n = {"wide": m + r.randint(1, 16), "square": m, "tall": m - r.randint(1, 16)}[shape]
        k = r.randint(1, min(m, n) - 2)
        for span in (n, k + 1):  # the blocks from k on singular, or one minor
            A, G = singular_block_case(R, m, n, k, seed % 2, r, span)
            for width in (0, struct_solve._DENSE_WIDTH):  # without a dense tail, and with it
                with monkeypatch.context() as mp:
                    mp.setattr(struct_solve, "_DENSE_WIDTH", width)
                    cols, rest = assert_level0_is_the_dense_elimination(R, A, G)
                    starts.clear()
                    out = nullspace_structured(G, random.Random(seed), 8)
                if rest is None:
                    assert not starts
                    if width:
                        passed.append(len(cols) > k)
                else:
                    assert starts[0] == max(m, n) - len(cols)
                if not width:
                    assert len(cols) == blocks_stop(R, A, h, min(m, n))
                    (stops if span == n else through).append(len(cols) > k)
                if dense_rank(R, A) == n:
                    assert out == NoSolution("certified rank equals the unknown count")
                else:
                    assert isinstance(out, Solution) and out.value.any()
                    assert not dense_matvec(R, A, out.value).any()
                verdicts.add(type(out))
    assert verdicts == ({Solution} if shape == "wide" else {Solution, NoSolution})
    assert not any(stops) if ctx.order > 2**16 else not all(stops)
    assert any(through) == (h > 1)
    assert all(passed) and passed


def test_level0_alone_certifies_a_zero_complement(monkeypatch):
    # a rank-r product's leading r x r block is invertible and its complement
    # zero: level 0 certifies the rank with no preconditioned level (none is
    # callable here), and its free coordinates are the only draws
    R = Residues(F24)
    monkeypatch.setattr(struct_solve, "_level", None)
    for m, n, rank in ((40, 41, 39), (50, 50, 20), (70, 36, 36), (70, 36, 30)):
        r = random.Random(m + n + rank)
        A = low_rank_residues(R, m, n, rank, r)
        G = gen_from_residues(R, A)
        cols, rest = assert_level0_is_the_dense_elimination(R, A, G)
        assert len(cols) == rank and rest is None
        out = nullspace_structured(G, random.Random(1), 1)
        if rank == n:
            assert out == NoSolution("certified rank equals the unknown count")
        else:
            assert isinstance(out, Solution) and out.value.any()
            assert not dense_matvec(R, A, out.value).any()


def test_a_late_breakdown_widens_the_dense_tail(monkeypatch):
    # the block steps of a 100 x 101 matrix end at pivot 68, and the dense
    # tail takes the last 32 rows.  With row 66 in the span of the rows
    # above, the block from 64 is cut short at 66 and the next, 2 pivots at
    # a zero leading entry, is singular: in the last step before the tail
    # that is no breakdown, and the pivoting elimination takes the 34 rows
    # from 66 on and certifies the rank, with no compression and no level
    # (none is callable here).  With no dense tail the same step breaks
    # down, and its complement is compressed
    R = Residues(F24)
    shapes = spy_dense_eliminations(monkeypatch)
    A, G = singular_block_case(R, 100, 101, 66, False, random.Random(66), 101)
    with monkeypatch.context() as mp:
        for name in ("_compress", "_level"):
            mp.setattr(struct_solve, name, None)
        cols, rest = assert_level0_is_the_dense_elimination(R, A, G)
        out = nullspace_structured(G, random.Random(1), 8)
    assert rest is None and len(cols) == dense_rank(R, A) == 99
    assert shapes[0] == (34, 1, 35)
    assert isinstance(out, Solution) and not dense_matvec(R, A, out.value).any()
    monkeypatch.setattr(struct_solve, "_DENSE_WIDTH", 0)
    cols, rest = assert_level0_is_the_dense_elimination(R, A, G)
    assert len(cols) == 66 and rest is not None


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(LEVEL0_FIELDS)),
    st.integers(33, 56),
    st.integers(33, 56),
    st.sampled_from(["block", "low rank", "random"]),
    st.integers(0, 2**32),
)
def test_level0_verdicts_match_the_dense_rank(name, m, n, kind, seed):
    # whatever level 0 leaves (every row or column pivoted, a zero
    # complement, the dense tail's pivots, a breakdown among the generator
    # steps), its rows are the dense elimination's, and the verdict the
    # dense rank's, every Solution in the kernel
    R = Residues(LEVEL0_FIELDS[name])
    r = random.Random(seed)
    if kind == "block":
        A, G = singular_block_case(R, m, n, r.randint(1, min(m, n) - 2), r.random() < 0.5, r)
    else:
        rank = r.randint(1, min(m, n)) if kind == "low rank" else None
        A = low_rank_residues(R, m, n, rank, r) if rank else residue_matrix(R, m, n, r)
        G = gen_from_residues(R, A)
    assert_level0_is_the_dense_elimination(R, A, G)
    out = nullspace_structured(G, r, 8)
    if dense_rank(R, A) == n:
        assert isinstance(out, NoSolution)
    else:
        assert isinstance(out, Solution) and out.value.any()
        assert not dense_matvec(R, A, out.value).any()


# ------------------------------------------------------------ the dense elimination

ELIMINATION_FIELDS = {
    "F2": prime_field(2),
    "F13": F13,
    "F1073741789": prime_field(1073741789),  # int64, reduced every 3 updates
    "F2147483647": prime_field(2**31 - 1),  # int64, reduced before every update
    "P2147483659": P31,  # object residues
    "M61": M61,
    "GF4": FieldCtx(2, (1, 1, 1)),
    "F13^4": F13_4,
    "GF256": GF256,
}


def dense_cases(R, rng):
    """Random, low-rank and all-zero matrices, 1 x n and n x 1 among them,
    each also with a zero row and a zero column."""
    for m, n in ((1, 1), (1, 7), (7, 1), (5, 5), (9, 6), (6, 9), (14, 14)):
        for rank in (None, min(m, n) // 2, 0):
            if rank is None:
                A = residue_matrix(R, m, n, rng)
            elif rank:
                A = low_rank_residues(R, m, n, rank, rng)
            else:
                A = np.zeros((m, R.d, n), R.dtype)
            yield A
            A = A.copy()
            A[rng.randrange(m)] = 0
            A[:, :, rng.randrange(n)] = 0
            yield A


@pytest.mark.parametrize("name", list(ELIMINATION_FIELDS))
def test_the_dense_elimination_matches_the_reduced_echelon_form(name):
    # _eliminate_dense finds the pivot columns of linalg's reduced echelon
    # form of the realified matrix (column c of A is its columns c d .. c d
    # + d - 1), each pivot row normalized from its pivot column on; the
    # back-substitution with any draws on the other columns is in the kernel
    ctx = ELIMINATION_FIELDS[name]
    R = Residues(ctx)
    r = random.Random(ctx.p)
    for A in dense_cases(R, r):
        n = A.shape[2]
        pivots = _rref_np(_realify(ctx, A), ctx.p)
        rows, cols = struct_solve._eliminate_dense(R, A.copy())
        assert [c * ctx.d + k for c in cols for k in range(ctx.d)] == pivots
        assert [row.shape for row in rows] == [(1, ctx.d, n - c) for c in cols]
        assert all(np.array_equal(row[0, :, :1], R.unit(1, 0)) for row in rows)
        free = residue_matrix(R, 1, n - len(cols), r)[0]
        x = struct_solve._back_substitute(R, rows, cols, free)
        assert np.array_equal(x[:, np.delete(np.arange(n), cols)], free)
        assert not dense_matvec(R, A, x).any()


# ------------------------------------------------------------ steps of four pivots

STEP_FIELDS = {
    "F7": F7,
    "F101": prime_field(101),
    "F65537": F65537,
    "F16777213": F24,
    "F33554393": prime_field(33554393),  # f64_terms = 8: longer products take limbs
}


def spy_steps(monkeypatch):
    """The outcomes of _inverse4: True for a step taken, False for a block
    with a zero pivot without pivoting."""
    taken = []
    real = struct_solve._inverse4

    def spied(P, p):
        out = real(P, p)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(struct_solve, "_inverse4", spied)
    return taken


def planted_blocks(R, m, n, starts, rng):
    """(kind, k, A): m x n residue matrices whose pivot k without pivoting
    is zero, at each offset 0-3 of the steps from `starts`: "minor" only
    the leading (k+1) x (k+1) minor vanishes, "dependent" the last column
    is also a combination of the others, "rows" row k lies in the span of
    the rows above; then two random matrices (k = None)."""
    for k in (s + j for s in starts for j in range(4)):
        for kind in ("minor", "dependent", "rows"):
            span = n if kind == "rows" else None
            yield kind, k, singular_block_case(R, m, n, k, kind == "dependent", rng, span)[0]
    for _ in range(2):
        yield "random", None, residue_matrix(R, m, n, rng)


INVERSE_FIELDS = {
    **STEP_FIELDS,
    "F960383881": prime_field(960383881),  # four-pivot steps, reduced before each
    "F998244353": prime_field(998244353),  # one pivot a step, reduced every 3
    "F2147483647": prime_field(2**31 - 1),  # one pivot a step, reduced before each
}


@pytest.mark.parametrize("name", list(INVERSE_FIELDS))
def test_the_inverse_prefix_matches_the_gauss_jordan_oracle(monkeypatch, name):
    # the block Gauss-Jordan of a full block, h = _BLOCK, takes four pivots
    # per step where int64 sums hold four residue products, one where the
    # step's 4 x 4 block has a zero pivot without pivoting: planted at each
    # offset of the first and the last two steps.  Its answer is the
    # oracle's whatever the steps: (A^-1, h) for an invertible block (one
    # vanishing minor), else the inverse of the leading r0 x r0 block and
    # r0, the zero pivot, whether the block is singular elsewhere (a
    # dependent last column, so its own step may be invertible) or from
    # that row on.  Its updates stay exact where the products of h pivots
    # pass int64 sums (p above about 2^28.5)
    R = Residues(INVERSE_FIELDS[name])
    h = struct_solve._BLOCK
    four = R.sum_dtype(4) is np.int64
    assert struct_solve._steps(R) == (4 if four else 1)
    taken = spy_steps(monkeypatch)
    seen = set()
    for kind, k, A in planted_blocks(R, h, h, sorted({0, h - 8, h - 4}), random.Random(h)):
        X, r = struct_solve._inverse_prefix(R, A.copy())
        want, r0 = inverse_prefix(R.p, A)
        assert r == r0 and np.array_equal(X, want)
        seen.add((kind, "h" if r == h else "k" if r == k else r))
    assert {("minor", "h"), ("dependent", "k"), ("rows", "k"), ("random", "h")} <= seen
    assert not all(taken) and any(taken) if four else not taken


@pytest.mark.parametrize("name", [*STEP_FIELDS, "F960383881"])
def test_the_dense_steps_match_the_per_pivot_loop(monkeypatch, name):
    # _eliminate_dense takes four pivots per step where the loop would
    # take them without a swap, with planted zero pivots at each offset of
    # a step, dependent columns and whole rows in the span of those above.
    # Its pivot columns are the per-pivot loop's (_STEP = 1), its rows one
    # per pivot, normalized from the pivot column on, and the vector they
    # back-substitute for given free draws is that loop's and in the
    # kernel.  Over 960383881 int64 sums hold four residue products and no
    # more, so the rows below reduce before every step
    ctx = STEP_FIELDS.get(name) or prime_field(960383881)
    R = Residues(ctx)
    assert struct_solve._steps(R) == 4
    taken = spy_steps(monkeypatch)
    rng = random.Random(ctx.p)
    for m, n in ((32, 33), (64, 65), (40, 36)):
        for kind, k, A in planted_blocks(R, m, n, (0, 24), rng):
            rows, cols = struct_solve._eliminate_dense(R, A.copy())
            with monkeypatch.context() as mp:
                mp.setattr(struct_solve, "_STEP", 1)
                rows1, cols1 = struct_solve._eliminate_dense(R, A.copy())
            assert cols == cols1
            assert [row.shape for row in rows] == [(1, 1, n - c) for c in cols]
            assert all(row[0, 0, 0] == 1 for row in rows)
            free = residue_matrix(R, 1, n - len(cols), rng)[0]
            x = struct_solve._back_substitute(R, rows, cols, free)
            assert np.array_equal(x, struct_solve._back_substitute(R, rows1, cols1, free))
            assert not dense_matvec(R, A, x).any()
    assert not all(taken) and any(taken)


DENSE_LEVEL0_FIELDS = {
    "F2": prime_field(2),
    "F3": prime_field(3),
    "F13": F13,
    "GF4": FieldCtx(2, (1, 1, 1)),
    "GF256": GF256,
    "F13^4": F13_4,
    "M61": M61,
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(DENSE_LEVEL0_FIELDS)),
    st.integers(1, struct_solve._DENSE_WIDTH),
    st.sampled_from(["wide", "square", "tall"]),
    st.integers(0, 2**32),
)
def test_a_dense_level0_never_fails_or_lifts(name, size, shape, seed):
    # a system at most _DENSE_WIDTH wide is eliminated by level 0 with
    # pivoting, so even far below the sampling-set floor, with one attempt
    # allowed, its verdict is the dense rank's: never a Failure, never a lift
    R = Residues(DENSE_LEVEL0_FIELDS[name])
    r = random.Random(seed)
    other = r.randint(1, size)
    m, n = {"wide": (other, size), "square": (size, size), "tall": (size, other)}[shape]
    rank = r.randint(0, min(m, n))
    A = low_rank_residues(R, m, n, rank, r) if rank else np.zeros((m, R.d, n), R.dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(struct_solve, "build_extension", None)
        out = nullspace_structured(gen_from_residues(R, A), r, 1)
    if dense_rank(R, A) == n:
        assert out == NoSolution("certified rank equals the unknown count")
    else:
        assert isinstance(out, Solution) and out.value.any()
        assert not dense_matvec(R, A, out.value).any()


@pytest.mark.parametrize("name", ["F2", "GF4", "F13^4", "M61"])
def test_a_dense_level0_draws_only_its_free_coordinates(monkeypatch, name):
    # a dense level 0 preconditions nothing and draws its ncols - rank free
    # coordinates once, again only after an all-zero draw (over F_2 with one
    # free coordinate, half the time)
    ctx = DENSE_LEVEL0_FIELDS[name]
    R = Residues(ctx)
    draws = []
    real = struct_solve._draw
    monkeypatch.setattr(struct_solve, "_draw", lambda *a: draws.append(real(*a)) or draws[-1])
    monkeypatch.setattr(struct_solve, "_precondition", None)
    redrawn = 0
    for seed in range(20):
        r = random.Random(seed)
        n = r.randint(2, struct_solve._DENSE_WIDTH)
        m = n - 1 if seed % 2 else r.randint(1, struct_solve._DENSE_WIDTH)
        A = residue_matrix(R, m, n, r)
        rank = dense_rank(R, A)
        draws.clear()
        out = nullspace_structured(gen_from_residues(R, A), r, 8)
        if rank == n:
            assert isinstance(out, NoSolution) and draws == []
            continue
        assert isinstance(out, Solution) and not dense_matvec(R, A, out.value).any()
        assert [x.shape for x in draws] == [(ctx.d, n - rank)] * len(draws)
        assert not any(x.any() for x in draws[:-1]) and draws[-1].any()
        redrawn += len(draws) > 1
    assert redrawn or ctx.order > 2


def test_back_substitution_sums_past_int64():
    # over p = 479001599 the generators stay int64 (alpha 6 after
    # preconditioning), but a back-substitution row of a 250 x 251 system
    # sums up to 250 products of residues; uniform residues average p^2/4 a
    # product, so such a sum passes 2^63 (it needs 161 terms on average, 41
    # at worst) and must run in R.sum_dtype(size), not int64
    ctx = prime_field(479001599)
    rng = random.Random(479)
    m, n = 250, 251
    t = {k: rand_el(ctx, rng) for k in range(1 - n, m)}
    A = [[t[i - j] for j in range(n)] for i in range(m)]  # Toeplitz: displacement rank 2
    e0_m, e0_n = ([ctx.one()] + [ctx.zero()] * (k - 1) for k in (m, n))
    first_col = [ctx.zero()] + [A[i][0] for i in range(1, m)]
    G = generator("toeplitz", m, n, [e0_m, first_col], [A[0], e0_n], ctx)
    out = nullspace_structured(G, random.Random(5), 8)
    assert isinstance(out, Solution)
    assert out.value.any()
    assert all(e.is_zero() for e in mat_vec(A, elements(ctx, out.value), ctx))


def test_the_gs_deep_shape_solves_over_a_31_bit_prime(monkeypatch):
    # over 2^31 - 1 int64 sums hold one residue product and float64 ones
    # none, so every lazy reduction runs at its tightest bound: blocks of 32
    # pivots on products of 16-bit limbs, their Gauss-Jordan, _echelon and
    # the dense tail reducing before every update, object sums elsewhere.  Both column orders of the gs_deep
    # shape solve, each Solution passes verify_solution, and the toeplitz
    # order meets a zero leading entry and compresses its generator
    params = gs_deep_params(2**31 - 1)
    pts = tuple((x, (y,)) for x, y in params.points)
    inst = InterpolationInstance(params.ctx, 1, 6, 103, (16,), pts, (3,) * 64)
    compressions = []
    real = struct_solve._compress
    monkeypatch.setattr(struct_solve, "_compress", lambda *a: compressions.append(1) or real(*a))
    for backend in ("hankel", "toeplitz"):
        compressions.clear()
        out = gs_interpolate(params, random.Random(5), backend)
        assert isinstance(out, Solution) and verify_solution(inst, out.value)
    assert compressions


@pytest.mark.parametrize("p", [2**31 - 1, 998244353, 479001599])
def test_gs_solves_over_mid_size_primes(p):
    # residues are stored as int64, but the longer sums of the reduction and
    # the verifiers pass 2^62 and run on Python ints; over 479001599 the
    # kernel keeps int64 generators (alpha 6) while its convolutions of
    # length 37 run on Python ints
    ctx = prime_field(p)
    rng = random.Random(p)
    xs = rng.sample(range(10**6), 12)
    pts = tuple((ctx.el(x), ctx.el(rng.randrange(p))) for x in xs)
    params = GsParams(ctx, k=3, m=2, ell=3, b=14, points=pts)
    out = gs_interpolate(params, random.Random(5))
    assert isinstance(out, Solution)
    inst = InterpolationInstance(ctx, 1, 3, 14, (3,), tuple((x, (y,)) for x, y in pts), (2,) * 12)
    assert verify_solution(inst, out.value)


@pytest.mark.parametrize("p", [2**64 - 59, 2**79 - 67])
def test_gs_solves_past_int64_primes(p):
    # residues and the kernel's draws are Python ints past 2^63
    ctx = prime_field(p)
    rng = random.Random(p)
    pts = tuple((ctx.el(x), ctx.el(rng.randrange(p))) for x in rng.sample(range(10**6), 32))
    params = GsParams(ctx, k=4, m=2, ell=3, b=31, points=pts)  # b: cli._auto_b(32, 2, 3, 4)
    inst = InterpolationInstance(ctx, 1, 3, 31, (4,), tuple((x, (y,)) for x, y in pts), (2,) * 32)
    assert isinstance(gs_interpolate(params, random.Random(1), "dense"), Solution)
    for backend in ("hankel", "toeplitz"):
        out = gs_interpolate(params, random.Random(5), backend)
        assert isinstance(out, Solution)
        assert verify_solution(inst, out.value)


# ------------------------------------------------------------ golden vectors

GOLDEN_FIELDS = {"F7": F7, "F65537": F65537, "F13^4": F13_4, "M61": M61, "GF256": GF256}

# nullspace_structured(G, random.Random(100 + seed), 8) for the generator
# golden_case(field, kind, seed) builds; F7 and GF256 are sampled whole.
# Every case is at most 9 wide, so level 0 eliminates its dense matrix with
# pivoting and draws nothing but the free coordinates: a vector is the one
# kernel vector with those draws on the non-pivot columns, and depends on
# the matrix and the random stream alone.  F65537 and M61 share a sampling
# set (the first subset_floor(9) = 600 elements), so their free
# coordinates agree.
GOLDEN = {
    ("F7", "square", 1): [5, 3, 1, 6, 4, 4, 6, 1],
    ("F65537", "wide", 1): [14845, 59912, 32448, 358, 7148, 7407, 35247, 595, 199],
    ("F65537", "square", 2): [13701, 31179, 32266, 21878, 61412, 75, 346, 315],
    ("F65537", "tall", 3): [49399, 15152, 51551, 11154, 467, 220],
    ("F13^4", "wide", 1): [
        (2, 8, 1, 11), (6, 2, 5, 8), (10, 6, 7, 5), (8, 4, 11, 4), (6, 5, 9, 12),
        (4, 3, 5, 2), (0, 4, 10, 7), (10, 6, 3, 0), (4, 2, 1, 0),
    ],
    ("F13^4", "square", 2): [
        (9, 11, 12, 11), (8, 1, 8, 0), (11, 6, 3, 10), (6, 4, 0, 0), (12, 3, 2, 8),
        (10, 5, 0, 0), (8, 0, 2, 0), (3, 11, 1, 0),
    ],
    ("F13^4", "tall", 3): [
        (7, 4, 0, 10), (1, 4, 9, 4), (10, 8, 9, 11), (12, 6, 2, 7), (12, 9, 2, 0),
        (12, 3, 1, 0),
    ],
    ("M61", "wide", 1): [
        1570755134391065575, 1562044139900088101, 2237607677266138266,
        616320041559613138, 1380604998207520357, 151182754432899390,
        66559311980390917, 595, 199,
    ],
    ("M61", "square", 2): [
        1967191557164029975, 2284299047459303052, 1030891200630165658,
        2030079018051944005, 1592330302309165391, 75, 346, 315,
    ],
    ("M61", "tall", 3): [
        555712559771564416, 1727852224510364856, 2207247734671883795,
        844678456852291606, 467, 220,
    ],
    ("GF256", "wide", 1): [
        (1, 0, 1, 1, 0, 1, 0, 0), (1, 0, 1, 0, 0, 0, 1, 0), (1, 0, 1, 1, 0, 0, 0, 0),
        (1, 0, 0, 0, 1, 0, 0, 0), (1, 1, 1, 1, 1, 0, 1, 0), (1, 0, 1, 1, 0, 0, 1, 0),
        (1, 0, 1, 0, 1, 1, 0, 1), (1, 1, 0, 0, 0, 1, 1, 0), (1, 1, 1, 0, 1, 1, 0, 1),
    ],
    ("GF256", "square", 2): [
        (1, 1, 0, 0, 0, 1, 1, 0), (0, 0, 1, 0, 1, 1, 0, 0), (0, 1, 0, 1, 1, 1, 0, 1),
        (0, 1, 0, 1, 1, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, 1), (1, 1, 0, 1, 0, 0, 1, 0),
        (1, 1, 1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 0, 1, 0),
    ],
    ("GF256", "tall", 3): [
        (1, 1, 1, 1, 0, 0, 0, 1), (0, 1, 1, 0, 0, 0, 1, 1), (1, 0, 1, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 1, 1, 1), (1, 0, 0, 1, 0, 1, 1, 1), (0, 1, 1, 1, 0, 1, 1, 0),
    ],
}


def golden_case(ctx, kind, seed):
    r = random.Random(seed)
    if kind == "wide":
        return rand_generator("toeplitz", ctx, 7, 9, 3, r)
    if kind == "square":
        return gen_from_dense("toeplitz", low_rank_matrix(ctx, 8, 8, 5, r), ctx)
    return gen_from_dense("toeplitz", low_rank_matrix(ctx, 9, 6, 4, r), ctx)


@pytest.mark.parametrize("key", list(GOLDEN), ids=["-".join(map(str, k)) for k in GOLDEN])
def test_nullspace_golden_vectors(key):
    name, kind, seed = key
    ctx = GOLDEN_FIELDS[name]
    G = golden_case(ctx, kind, seed)
    out = nullspace_structured(G, random.Random(100 + seed), 8)
    assert isinstance(out, Solution)
    want = [v if isinstance(v, tuple) else (v,) for v in GOLDEN[key]]
    x = elements(ctx, out.value)
    assert [e.c for e in x] == want
    assert all(e.is_zero() for e in mat_vec(reconstruct_dense(G), x, ctx))


# ------------------------------------------------------------ pivot breakdowns


def test_breakdown_resumes_on_the_schur_complement(monkeypatch):
    # the F7 case, handed whole to a chain of generator levels (the dense
    # crossover pinned to 0), breaks down: the next preconditioning is of
    # the Schur complement left, smaller than the padded matrix, and the
    # vector that climbs back through the levels is in the kernel
    sizes = []

    def recorded(R, level, u_full, l_full, real=struct_solve._level):
        sizes.append(u_full.shape[1])
        return real(R, level, u_full, l_full)

    monkeypatch.setattr(struct_solve, "_level", recorded)
    monkeypatch.setattr(struct_solve, "_DENSE_WIDTH", 0)
    level0_passes_through(monkeypatch)
    G = golden_case(F7, "square", 1)
    out = nullspace_structured(G, random.Random(101), 8)
    assert isinstance(out, Solution)
    assert sizes[0] == 8 and min(sizes) < 8
    y = mat_vec(reconstruct_dense(G), elements(F7, out.value), F7)
    assert all(e.is_zero() for e in y)


TINY_FIELDS = {
    "F3": prime_field(3),
    "F5": prime_field(5),
    "F13": prime_field(13),
    "GF4": FieldCtx(2, (1, 1, 1)),  # extension-field blocks
}


@pytest.mark.parametrize("name", list(TINY_FIELDS))
def test_tiny_field_verdicts_match_the_dense_rank(name):
    # fields far below subset_floor break down often; a breakdown costs one
    # preconditioning of the complement, not the attempt, so most solves
    # still end in a verdict, and every verdict matches the dense matrix
    ctx = TINY_FIELDS[name]
    rng = random.Random(ctx.order)
    outcomes = []
    for k, seed in enumerate(spread_seeds(ctx.order, 24)):
        r = random.Random(seed)
        m, n = r.randint(4, 16), r.randint(4, 16)
        if k % 2:
            A = rand_matrix(ctx, m, n, r)
        else:
            A = low_rank_matrix(ctx, m, n, r.randint(1, min(m, n)), r)
        out = nullspace_structured(gen_from_dense("toeplitz", A, ctx), rng, 8)
        if isinstance(out, Solution):
            assert out.value.any()
            assert all(e.is_zero() for e in mat_vec(A, elements(ctx, out.value), ctx))
        elif isinstance(out, NoSolution):
            assert matrix_rank(ctx, A, n) == n
        outcomes.append(type(out))
    assert Solution in outcomes and NoSolution in outcomes
    # a prime field's Failure is lifted to an extension; GF4 is never lifted
    assert outcomes.count(Failure) <= (3 if ctx.d > 1 else 0)


def test_f5_square_systems_rarely_fail():
    # random 20 x 20 systems over F_5, each of rank 19 or 20: at most
    # _DENSE_WIDTH wide, level 0 eliminates them with pivoting, so none
    # ends in Failure
    F5 = prime_field(5)
    outcomes = []
    for seed in range(37, 47):
        r = random.Random(seed)
        A = rand_matrix(F5, 20, 20, r)
        out = nullspace_structured(gen_from_dense("toeplitz", A, F5), r, 8)
        if isinstance(out, Solution):
            assert all(e.is_zero() for e in mat_vec(A, elements(F5, out.value), F5))
        elif isinstance(out, NoSolution):
            assert matrix_rank(F5, A, 20) == 20
        outcomes.append(type(out))
    assert Failure not in outcomes


# ------------------------------------------------------------ small prime fields


def test_the_route_follows_the_chain_length_and_the_matrix_size():
    # a system narrower than 1.5 p stays a chain; a wider one takes the
    # dense route while size * p <= 1000 and the matrix is within
    # DENSE_GUARD_CELLS, and the chain past that at any size: block steps
    # break down so rarely that the chain beat the dense route and the lift
    route = struct_solve._route
    assert route(8, 7) == route(25, 101) == "chain"  # the F7 golden case
    dense = [(22, 13), (61, 5), (76, 13), (200, 5), (201, 2), (333, 3), (500, 2)]
    assert [route(s, p) for s, p in dense] == ["dense"] * len(dense)
    chain = [(77, 13), (201, 5), (334, 3), (501, 2), (601, 101), (1024, 3), (1025, 2), (4000, 2)]
    assert [route(s, p) for s, p in chain] == ["chain"] * len(chain)


def count_lifts(monkeypatch):
    lifts = []
    build = struct_solve.build_extension
    monkeypatch.setattr(
        struct_solve, "build_extension", lambda *args: lifts.append(args[:2]) or build(*args)
    )
    return lifts


def spy_dense_eliminations(monkeypatch):
    """The (nrows, d, ncols) shapes _eliminate_dense is called on."""
    shapes = []
    real = struct_solve._eliminate_dense
    monkeypatch.setattr(
        struct_solve, "_eliminate_dense", lambda R, S: shapes.append(S.shape) or real(R, S)
    )
    return shapes


def test_the_dense_answer_stops_at_the_cells_guard(monkeypatch):
    # with the guard at 40 x 40, an F_5 system of size 40 (39 x 40) takes
    # the dense route, level 0's pivoting elimination of the whole matrix,
    # and one of size 41 the chain (dense tails of at most 32 rows only),
    # answered with no lift
    monkeypatch.setattr(struct_solve, "DENSE_GUARD_CELLS", 40 * 40)
    shapes = spy_dense_eliminations(monkeypatch)
    lifts = count_lifts(monkeypatch)
    F5 = prime_field(5)
    R = Residues(F5)
    for m in (39, 40):
        G = rand_generator("toeplitz", F5, m, m + 1, 3, random.Random(m))
        out = nullspace_structured(G, random.Random(0), 8)
        assert isinstance(out, Solution)
        assert not dense_matvec(R, dense_from_halves(R, G.v, G.w), out.value).any()
    assert [s for s in shapes if s[0] > struct_solve._DENSE_WIDTH] == [(39, 1, 40)]
    assert lifts == []


@pytest.mark.parametrize("p, m", [(5, 60), (13, 130), (101, 600), (3, 1100)])
def test_long_chains_make_no_lift(monkeypatch, p, m):
    # systems many times larger than p: F_5 takes the dense route, F_13,
    # F_101 and F_3 past the dense guard the chain, whose levels with a
    # pivot spend none of the 8 attempts; each is answered with a
    # base-field vector, with no lift
    ctx = prime_field(p)
    R = Residues(ctx)
    lifts = count_lifts(monkeypatch)
    for seed in range(3):
        r = random.Random(seed)
        G = rand_generator("toeplitz", ctx, m, m + 1, 3, r)
        out = nullspace_structured(G, r, 8)
        assert isinstance(out, Solution)  # more unknowns than equations
        x = out.value
        assert x.shape == (1, m + 1) and x.any()
        assert not dense_matvec(R, dense_from_halves(R, G.v, G.w), x).any()
    assert lifts == []


def first_pivot_only(R, v, w):
    """_eliminate cut after a first block step of one pivot: a breakdown on
    every level, with its compressed complement."""
    nrows, ncols = v.shape[2], w.shape[2]
    G = np.zeros((2, len(v), R.d, max(nrows, ncols)), R.dtype)
    G[0, ..., :nrows], G[1, ..., :ncols] = v, w
    step = _schur_block(R, G, 1)
    rows = [] if step is None else [step[0][..., :ncols]]
    if step is not None:
        G = step[1]
    t = len(rows)
    rest = _compress(R, G[0, ..., : nrows - t], G[1, ..., : ncols - t])
    return rows, list(range(t)), rest if len(rest[0]) else None


def test_a_chain_of_one_pivot_levels_never_fails(monkeypatch):
    # every level eliminates its first pivot and then breaks down, so a
    # chain, handed the whole matrix, runs one level per pivot, far past
    # max_retries; below the floor none of them is a miss, so the solve
    # neither fails nor lifts
    F13 = prime_field(13)
    levels = []
    real = struct_solve._level
    level0_passes_through(monkeypatch)
    monkeypatch.setattr(struct_solve, "_eliminate", first_pivot_only)
    monkeypatch.setattr(
        struct_solve, "_level", lambda *args: levels.append(args[0].ctx) or real(*args)
    )
    lifts = count_lifts(monkeypatch)
    for seed in range(4):
        r = random.Random(seed)
        m, n = r.randint(10, 18), r.randint(10, 18)
        if seed % 2:
            A = low_rank_matrix(F13, m, n, r.randint(9, min(m, n)), r)
        else:
            A = rand_matrix(F13, m, n, r)
        levels.clear()
        out = nullspace_structured(gen_from_dense("toeplitz", A, F13), r, 8)
        assert len(levels) > 8
        if matrix_rank(F13, A, n) == n:
            assert isinstance(out, NoSolution)
        else:
            assert isinstance(out, Solution)
            assert all(e.is_zero() for e in mat_vec(A, elements(F13, out.value), F13))
    assert lifts == []


def test_levels_without_progress_fail_and_lift_once(monkeypatch):
    # a level that eliminates nothing is a miss: max_retries of them in a
    # row end the base-field chain, and the Failure is lifted once; over an
    # extension field below the floor the same Failure is the answer
    F13 = prime_field(13)
    levels = []
    real = struct_solve._level

    def no_pivot_in_prime_fields(R, level, u_full, l_full):
        levels.append(R.ctx)
        return ([], [], level) if R.d == 1 else real(R, level, u_full, l_full)

    level0_passes_through(monkeypatch)
    monkeypatch.setattr(struct_solve, "_level", no_pivot_in_prime_fields)
    lifts = count_lifts(monkeypatch)
    A = low_rank_matrix(F13, 12, 12, 9, random.Random(5))
    out = nullspace_structured(gen_from_dense("toeplitz", A, F13), random.Random(6), 5)
    assert levels[:5] == [F13] * 5 and all(c.d > 1 for c in levels[5:])
    assert lifts == [(F13, 3)]  # 13^2 < subset_floor(12) = 1014 <= 13^3
    assert isinstance(out, Solution)
    assert all(e.is_zero() for e in mat_vec(A, elements(F13, out.value), F13))

    GF4 = TINY_FIELDS["GF4"]
    monkeypatch.setattr(struct_solve, "_level", lambda R, level, u, l: ([], [], level))
    A = low_rank_matrix(GF4, 6, 6, 3, random.Random(7))
    assert nullspace_structured(gen_from_dense("toeplitz", A, GF4), random.Random(8), 5) == Failure(5)
    assert lifts == [(F13, 3)]


def test_a_dense_answer_no_solution_agrees_with_the_dense_rank(monkeypatch):
    # tall 40 x 34 systems over F_5 take the dense route, level 0's pivoting
    # elimination of the whole matrix: full column rank is the kernel's
    # NoSolution, a rank deficit a Solution in the kernel
    F5 = prime_field(5)
    routes = []
    real = struct_solve._route
    monkeypatch.setattr(struct_solve, "_route", lambda *a: routes.append(real(*a)) or routes[-1])
    shapes = spy_dense_eliminations(monkeypatch)
    verdicts = []
    for seed in range(6):
        r = random.Random(seed)
        A = rand_matrix(F5, 40, 34, r) if seed % 2 else low_rank_matrix(F5, 40, 34, 30, r)
        out = nullspace_structured(gen_from_dense("toeplitz", A, F5), r, 8)
        if matrix_rank(F5, A, 34) == 34:
            assert out == NoSolution("certified rank equals the unknown count")
        else:
            assert isinstance(out, Solution)
            assert all(e.is_zero() for e in mat_vec(A, elements(F5, out.value), F5))
        verdicts.append(type(out))
    assert routes == ["dense"] * 6 and set(verdicts) == {Solution, NoSolution}
    assert shapes == [(40, 1, 34)] * 6


SMALL_PRIMES = [prime_field(p) for p in (2, 3, 5, 7, 13)]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(4, 48),
    st.integers(4, 48),
    st.integers(0, 3),
    st.sampled_from([None, "chain", "dense"]),
    st.integers(0, 2**32),
)
def test_every_small_field_route_matches_the_dense_rank(ctx, m, n, kind, route, seed):
    # random systems (kind 0: rand_generator, else low_rank_matrix of rank
    # kind..) on the route the cost rule picks (None) or on one forced:
    # every verdict is the dense matrix's, every Solution in its kernel
    r = random.Random(seed)
    if kind:
        G = gen_from_dense("toeplitz", low_rank_matrix(ctx, m, n, min(kind * 4, m, n), r), ctx)
    else:
        G = rand_generator("toeplitz", ctx, m, n, r.randint(1, 3), r)
    R = Residues(ctx)
    A = dense_from_halves(R, G.v, G.w)
    with pytest.MonkeyPatch.context() as mp:
        if route:
            mp.setattr(struct_solve, "_route", lambda size, p: route)
        out = nullspace_structured(G, r, 8)
    if len(_rref_np(A[:, 0].copy(), ctx.p)) == n:
        assert isinstance(out, NoSolution)
    else:
        assert isinstance(out, Solution) and out.value.any()
        assert not dense_matvec(R, A, out.value).any()


def break_down_in_prime_fields(monkeypatch):
    """Hand the whole matrix to the chain and make every prime-field level
    a pivot breakdown with no pivots, so the base field runs out of
    attempts and the kernel lifts."""
    real = struct_solve._level
    level0_passes_through(monkeypatch)
    monkeypatch.setattr(
        struct_solve,
        "_level",
        lambda R, level, u, l: ([], [], level) if R.d == 1 else real(R, level, u, l),
    )


def test_a_size_two_system_over_f2_lifts_to_degree_six(monkeypatch):
    # subset_floor(2) = 54 and 2^5 < 54 <= 2^6: with every base-field
    # elimination breaking down, the one lift goes to F_64
    F2 = prime_field(2)
    break_down_in_prime_fields(monkeypatch)
    lifts = count_lifts(monkeypatch)
    A = [[F2.one(), F2.one()], [F2.one(), F2.one()]]
    out = nullspace_structured(gen_from_dense("toeplitz", A, F2), random.Random(0), 8)
    assert lifts == [(F2, 6)]
    assert isinstance(out, Solution) and out.value.tolist() == [[1, 1]]


@pytest.mark.parametrize(
    "scalar, vec, expected",
    [
        ((0, 1, 0), (1, 2, 1), (1, 2, 1)),  # residue row 0 is zero: row 1 is kept
        ((0, 0, 2), (1, 2, 1), (2, 4, 2)),
        ((3, 1, 0), (1, 2, 1), (3, 1, 3)),  # row 0 wins over row 1
        ((0, 1, 0), (1, 0, 0), None),  # a projection outside the kernel is refused
    ],
)
def test_the_lift_keeps_the_first_nonzero_residue_row(monkeypatch, scalar, vec, expected):
    # (1, 2, 1) spans the kernel of this 2 x 3 system over F_5, which pads to
    # size 3 and so lifts to F_125.  The extension's answer is replaced by
    # scalar * vec; the kernel returns its first nonzero residue row only
    # when the matrix maps that row to zero
    F5 = prime_field(5)
    A = [[F5.el(a) for a in row] for row in ((1, 0, 4), (0, 1, 3))]
    break_down_in_prime_fields(monkeypatch)
    real = struct_solve.nullspace_structured

    def over_extension(G, rng, max_retries):
        assert G.ctx.d == 3
        return Solution(Residues(G.ctx).array([G.ctx.el(scalar) * G.ctx.el(x) for x in vec]))

    monkeypatch.setattr(struct_solve, "nullspace_structured", over_extension)
    out = real(gen_from_dense("toeplitz", A, F5), random.Random(0), 8)
    if expected is None:
        assert out == Failure(8)
    else:
        assert isinstance(out, Solution) and out.value.tolist() == [list(expected)]
