"""Nullspace solver for matrices represented by displacement generators.

A matrix A is handled through a length-alpha generator (V, W) with V·W
equal to its displacement:

- tag "toeplitz":  A - Z A Z^T   (Z = down-shift)
- tag "hankel":    A - Z A Z

Both operators are nilpotent-invertible, so (V, W) determines A; callers
build generators in O(alpha * size); matrices are built only up to _DENSE_WIDTH wide.

The solve itself: flip Hankel structure to Toeplitz (column reversal,
undone on the answer), then run a Schur-complement elimination on
generators.  Each trailing submatrix is again Toeplitz-like with no larger
displacement rank, so each step keeps the generator at its length (a
generalized Schur step).  Level 0 (_level0) eliminates the matrix as its
builder wrote it: in the builders' column orders most leading blocks are
invertible, and when every row or column takes a pivot that is the whole
elimination.  A vanishing leading entry compresses the generator; empty
then means a zero Schur complement: the rank is certified.  Nonempty is a
pivot breakdown, and only then is the complement brought to a generic rank
profile: padded to square with zero rows on top of a wide matrix or zero
columns left of a tall one (its generator needs the same padding only,
which _kept writes), pre/post-multiplied by random unit-triangular Toeplitz
matrices (Kaltofen & Saunders, AAECC-9, 1991), and eliminated in turn,
keeping the pivots found, and so on after each breakdown.  Each level's leading block is invertible, so the
rank is the sum of the levels' ranks (rank M = t + rank S).  A level's last
_DENSE_WIDTH rows are eliminated on its dense matrix (_dense), without
pivoting: pivot rows, rank and breakdowns depend on the matrix and the
draws alone.  So is a matrix at most that wide, which skips level 0, and a
breakdown's dense complement, each preconditioned by two products.  The
recorded pivot rows give the nullspace by back-substitution with randomly
drawn free coordinates, climbing back out through the levels, level 0 last.
Every candidate is verified by applying A through the generator, so a
returned Solution is unconditionally correct; NoSolution is returned only
when the certified rank equals the column count.

This module owns the whole small-field policy.  The random draws come
from a sampling set of subset_floor(size) elements, enough for one
preconditioning to succeed with probability >= 1/2.  A field smaller than
that is sampled whole and never refused: its Solution and NoSolution are as
certain as anywhere else, only breakdowns grow likelier: a level, level 0
included, eliminates about p pivots before one.  Every preconditioning, and
every rejected candidate, is an attempt; level 0, which draws nothing, is
none.  Failure needs max_retries of them; below the floor, but on a prime
field's long chain (_route), only a level without a pivot or a rejected
candidate is one, and a pivot resets the count.  A
prime field below the floor may be answered densely (_route) and has its
Failure lifted: the generator's residue arrays are embedded into a just big
enough extension F_{p^d}, the matrix is solved there, and the first nonzero
residue row of the answer, a base-field nullspace vector, is returned.  An
extension field is never lifted.

One representation serves every field: the residue arrays of
field.Residues.  A vector over F_{p^d} is a (d, n) array of residues mod p,
a generator half one stacked (alpha, d, n) array, as the builders write it,
and the elimination stacks both halves.  The Schur step, the echelon, the
dense level and the back-substitution are written once, each op one
Residues call whose d = 1 shortcuts keep a prime-field step at about 13
numpy calls; d appears here only in the lift policy.  The random draws are
digits of the sampled indices; the answer is a residue array.

Generator applies (_apply, _apply_last, _precondition) are batched products
of the stacked halves: A·x is conv_sum(V, corr(x, W)), reduced mod p between
the two, so that long pair products are FFT products summed over the pairs
in the frequency domain, at a transform length sized to their output
(Residues._plan).  _kept stacks a level's halves into one array of pairs
(v_c, w_c), whose swap is the generator of A^T, transformed once per level
once their products are FFT products; _precondition makes four products of
them, and those of the level level 0 leaves serve every attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, WrongTag
from .field import FieldCtx, build_extension, flip, residues
from .linalg import _rref_np
from .outcomes import Failure, NoSolution, Solution

TAG_TOEPLITZ = "toeplitz"
TAG_HANKEL = "hankel"
# a level's last rows, this many, are eliminated densely: 2^61 - 1 loses
# 1.4-1.8 ms per level at 40-48 and F_16777213 saves 0.4-0.9 ms at 32-64
_DENSE_WIDTH = 32
# largest matrix a linearization or the dense answer builds densely
DENSE_GUARD_CELLS = 1 << 20


def subset_floor(size: int) -> int:
    """Sampling-set size that keeps one solve attempt succeeding w.p. >= 1/2."""
    return 6 * (size + 1) * (size + 1)


def subset_range(ctx: FieldCtx, min_size: int) -> int:
    """|S| of the sampling subset S of >= min_size elements: the whole
    field when |ctx| < 2*min_size, otherwise the first min_size elements
    of the canonical enumeration."""
    return ctx.order if ctx.order < 2 * min_size else min_size


@dataclass(frozen=True, eq=False)
class GeneratorPair:
    """Length-alpha generator: v holds the alpha columns of V as one
    (alpha, d, nrows) residue array, w the alpha rows of W as
    (alpha, d, ncols)."""

    tag: str
    nrows: int
    ncols: int
    v: np.ndarray
    w: np.ndarray
    ctx: FieldCtx

    def __post_init__(self):
        if self.tag not in (TAG_TOEPLITZ, TAG_HANKEL):
            raise WrongTag(f"unknown tag {self.tag!r}")
        d = self.ctx.d
        if self.v.shape != (self.alpha, d, self.nrows) or self.w.shape != (
            self.alpha, d, self.ncols
        ):
            raise WrongTag(f"halves {self.v.shape}, {self.w.shape} for {self.nrows}x{self.ncols}")

    @property
    def alpha(self) -> int:
        return len(self.v)


# ---------------------------------------------------------------- conversions


def hankel_to_toeplitz(G: GeneratorPair) -> GeneratorPair:
    """Generator of A·J (columns reversed) — turns Hankel-like into
    Toeplitz-like.  A nullspace vector v of A·J pulls back as J·v."""
    if G.tag != TAG_HANKEL:
        raise WrongTag("expected a hankel-tagged generator")
    return GeneratorPair(TAG_TOEPLITZ, G.nrows, G.ncols, G.v, G.w[:, :, ::-1], G.ctx)


def _draw(R, min_size: int, rng, k: int) -> np.ndarray:
    """k uniform draws from the sampling subset S, as a (d, k) residue
    array: each is randrange(|S|) (subset_range), its index turned into
    little-endian base-p digits, so S is the first |S| elements of the
    field's canonical enumeration."""
    size = subset_range(R.ctx, min_size)
    idx = [rng.randrange(size) for _ in range(k)]
    idx = np.array(idx, dtype=np.int64 if max(size, R.p) < 2**63 else object)
    out = R.zeros(k)
    for t in range(R.d):
        out[t] = idx % R.p
        idx //= R.p
    return out


# ---------------------------------------------------------------- generator algebra


def _apply(R, v, w, x, nrows):
    """A·x through a toeplitz-tagged generator: sum_c L(v_c) U(w_c) x.  The
    halves v and w may be their Spectra (_kept), here and below."""
    return R.conv_sum(v, R.corr(x, w), slice(nrows))  # corr: sum_u w_c[u] x[k+u]


def _apply_last(R, v, w, nrows):
    """A·e_last, the last column: corr(e_last, w_c) is w_c reversed."""
    return R.conv_sum(v, flip(w), slice(nrows))


def _kept(R, v, w, size):
    """One level's halves v and w, padded to size and stacked as its products
    take them: one zeroed (alpha, 2, d, size) array of the pairs (v_c, w_c),
    in the dtype of sums of alpha + 4 products (the most _echelon leaves
    unreduced), with v and w written right-aligned, so that a wide matrix
    sits under zero rows and a tall one right of zero columns; transformed
    once (R.transform) when its products are FFT products.  Returned with
    A's last column and row, one _apply_last of the halves and their swap."""
    x = np.zeros((len(v), 2, R.d, size), R.sum_dtype(len(v) + 4))
    x[:, 0, :, size - v.shape[2] :] = v
    x[:, 1, :, size - w.shape[2] :] = w
    x = R.transform(x, size)
    return x, _apply_last(R, x, x[:, ::-1], size)


def _echelon(R, A, B):
    """Row-echelon form of the rows of A, each row operation undone in B so
    that sum_c A_c (x) B_c is unchanged; rows that become zero are dropped.

    Right-looking: each pivot updates all later rows of A with one
    outer-product op (R.scale).  Later rows are reduced mod p only when they
    become pivots, which the dtype's bound on accumulated products allows.
    Row i of B takes the multipliers of pivot i against the rows of B below
    it, none of which has changed yet, so B is one product (R.combine) with
    the unit upper-triangular matrix T of all multipliers.
    """
    p = R.p
    A = A.copy()
    T = np.zeros((len(A),) + A.shape[:2], dtype=A.dtype)  # (alpha, alpha, d) scalars
    T[..., 0] = np.eye(len(A), dtype=A.dtype)
    keep = []
    for i in range(len(A)):
        A[i] %= p
        cols = A[i].T.nonzero()[0]
        if not cols.size:
            continue
        keep.append(i)
        pc = cols[0]
        # A_j -= (a_j / s) A_i  and  B_i += (a_j / s) B_j
        T[i, i + 1 :] = R.mul(A[i + 1 :, :, pc] % p, R.inv(A[i, :, pc]))
        A[i + 1 :] -= R.scale(T[i, i + 1 :], A[i])
    return A[keep], R.combine(T[keep], B)


def _compress(R, v, w):
    """Shrink a generator to exact length rank(V·W), preserving the product."""
    v, w = _echelon(R, v, w)
    w, v = _echelon(R, w, v)
    return v, w


def _precondition(R, halves, last, u_full, l_full):
    """Generator of U·A·L for unit-triangular Toeplitz U (upper, first row
    u_full = 1,u_1,..) and L (lower, first column l_full = 1,l_1,..), from
    A's level as _kept gives it: width grows by 4.  Four products, on arrays
    and Spectra alike: one corr and one conv_sum make A·c and A^T·a, and one
    corr each of the halves and of the new rows with u_full and l_full."""
    size = u_full.shape[1]
    zero = R.zeros(1)
    a_vec = np.concatenate([u_full[:, 1:], zero], axis=1)
    b_vec = np.concatenate([zero, u_full[:, :0:-1]], axis=1)
    c_vec = np.concatenate([l_full[:, 1:], zero], axis=1)
    f_vec = np.concatenate([zero, l_full[:, :0:-1]], axis=1)

    def shift1(x):
        return np.concatenate([np.zeros_like(x[..., :1]), x[..., :-1]], axis=-1)

    cols = R.corr(np.stack([c_vec, a_vec]), halves[:, ::-1])  # corr(x, w) of _apply
    Ac, atA = R.conv_sum(halves, cols, slice(size))
    Ae, eA = last
    rows = np.stack([shift1(np.stack([Ac, -Ae % R.p])), np.stack([atA, eA])], axis=1)
    ul = np.stack([u_full, l_full])
    out = np.concatenate([R.corr(halves, ul), R.corr(rows, ul)])
    new_v, new_w = out[:, 0], out[:, 1]
    new_w[-2:] = shift1(new_w[-2:])
    e_first = R.unit(size, 0)[None]
    new_v = np.concatenate([new_v, e_first, -b_vec[None] % R.p])
    new_w = np.concatenate([new_w[:-2], e_first, f_vec[None], new_w[-2:]])
    return new_v, new_w


def _schur_step(R, G):
    """One generalized Schur step on the halves stacked as one
    (2, alpha, d, n) array G = (V, W): the normalized first row of the
    matrix, a (d, n) array, and a generator of its Schur complement of the
    same length, or None when the leading entry is zero.

    Two Gauss transforms bring the generator to proper form: one clears W's
    first column except at an index k (its inverse applied to V), the other
    V's first row except at k.  Pair k is then the first column and the
    normalized first row; shifting it down by one and dropping every other
    pair's first entry leaves the Schur complement's displacement.

    One product of (w0, v0) with both halves (R.combine) gives the first
    column and row, one R.inv call both inverses, and one product of the
    scalars with (col0, W_k) (R.scale) both Gauss transforms, written into
    a new contiguous array (faster than in place in G); x -= (x // p) * p
    reduces it (faster than % on int64, exact for negative x).
    """
    p = R.p
    f = G[..., 0]  # (v0, w0): (2, alpha, d) scalars
    c = R.combine(f[::-1], G)  # (w0 . V, v0 . W): the first column and row
    try:  # w0 = 0, with no index k, makes the pivot zero too
        k = f[1].nonzero()[0][0]
        inv = R.inv(c[0, :, 0], f[1, k])  # 1 / pivot, 1 / w0_k
    except (IndexError, DivisionByZero):  # the leading entry is zero
        return None
    norm = R.scale(inv[0], c[1]) % p  # the first row over the pivot
    # V -= (v0 / pivot) (x) col0 and W -= (w0 / w0_k) (x) W_k
    c[1] = G[1, k]
    Y = R.scale(R.mul(f, inv[:, None]), c[:, None, :, 1:])
    np.subtract(G[..., 1:], Y, out=Y)
    Y -= Y // p * p
    Y[0, k], Y[1, k] = c[0, :, :-1], norm[:, :-1]
    return norm, Y


def _eliminate(R, v, w):
    """Generator-based Schur elimination, without pivoting, of the matrix A
    of the halves v (alpha, d, nrows) and w (alpha, d, ncols).

    Returns (pivot_rows, rest): pivot_rows[t] is the normalized row t, a
    (d, ncols - t) array.  At a vanishing leading entry the generator is
    compressed again; rest is None when that leaves it empty (a zero Schur
    complement) or once the rows or columns run out, and otherwise the
    compressed (v, w) halves of the nonzero complement: a pivot breakdown.

    The shorter half is zero-padded at its end.  That changes the matrix
    only past A's rows (or columns), which the first min(nrows, ncols) steps
    never read: each complement's leading block is A's.  Pivot rows and a
    breakdown's halves are cut to A's columns and rows.  Each Schur step
    keeps the generator's length.  The last _DENSE_WIDTH rows of the shorter
    side are dense (_eliminate_dense, on A's rows and columns), and so is
    the rest of a breakdown among them, unless the sides differ by more.
    """
    nrows, ncols = v.shape[2], w.shape[2]
    G = np.zeros((2, len(v), R.d, max(nrows, ncols)), R.dtype)
    G[0, ..., :nrows], G[1, ..., :ncols] = v, w
    pivot_rows = []
    tail = _DENSE_WIDTH if abs(nrows - ncols) <= _DENSE_WIDTH else 0
    for t in range(min(nrows, ncols) - tail):
        step = _schur_step(R, G)
        if step is None:
            rest = _compress(R, G[0, ..., : nrows - t], G[1, ..., : ncols - t])
            return pivot_rows, rest if len(rest[0]) else None
        norm, G = step
        pivot_rows.append(norm[:, : ncols - t])
    t = len(pivot_rows)
    if t == min(nrows, ncols):
        return pivot_rows, None
    rows, rest = _eliminate_dense(R, _dense(R, G[0, ..., : nrows - t], G[1, ..., : ncols - t]))
    return pivot_rows + rows, rest


def _dense(R, v, w):
    """The (nrows, d, ncols) matrix of toeplitz-tagged halves v and w:
    D = sum_c v_c (x) w_c is one R.combine, and A sums D along each diagonal
    (A - Z A Z^T = D), one cumulative sum down the columns of an array whose
    row i is shifted right by nrows - 1 - i."""
    d, nrows, ncols = R.d, v.shape[2], w.shape[2]
    D = R.combine(v.transpose(2, 0, 1), w)  # (nrows, d, ncols)

    def unskewed(x):  # a view: diagonal j - i is column nrows - 1 + j - i
        flat = x.reshape(d, -1)[:, nrows - 1 : nrows - 1 + nrows * (nrows + ncols - 1)]
        return flat.reshape(d, nrows, nrows + ncols - 1)[..., :ncols]

    skew = np.zeros((d, nrows, nrows + ncols), R.dtype)
    unskewed(skew)[:] = D.transpose(1, 0, 2)
    return unskewed(np.cumsum(skew, axis=1) % R.p).transpose(1, 0, 2).copy()


def _padded(S, size):
    """A dense (nrows, d, ncols) matrix padded to square as _kept pads."""
    out = np.zeros((size,) + S.shape[1:2] + (size,), S.dtype)  # np.pad: np.int64 zeros
    out[size - len(S) :, :, size - S.shape[2] :] = S
    return out


def _eliminate_dense(R, S):
    """_eliminate of a dense (nrows, d, ncols) matrix, without pivoting: per
    pivot one normalized row and one outer-product update of the rows below,
    until the rows or the columns run out; the rest is the nonzero
    complement at a zero leading entry, else None."""
    p, pivot_rows = R.p, []
    while S.size:
        try:
            inv = R.inv(S[0, :, 0])
        except DivisionByZero:
            return pivot_rows, S if S.any() else None
        norm = R.scale(inv[0], S[0]) % p
        pivot_rows.append(norm)
        S = S[1:, :, 1:] - R.scale(S[1:, :, 0], norm[:, 1:])
        S %= p
    return pivot_rows, None


def _level(R, level, u_full, l_full):
    """A level of an attempt (_kept's, or a dense matrix: U·A·L is two
    products), preconditioned with the draws u_full and l_full and
    eliminated: its pivot rows and the next level (a breakdown's complement)
    or None."""
    size = u_full.shape[1]
    if isinstance(level, np.ndarray):
        j_i = np.arange(size) - np.arange(size)[:, None]
        U, L = (np.where(j_i >= 0, x[:, j_i], 0).astype(x.dtype) for x in (u_full, l_full))
        UA = R.combine(U.transpose(1, 2, 0), level)  # U[i, j] = u_full[j - i]
        return _eliminate_dense(R, R.combine(UA.transpose(0, 2, 1), L.transpose(2, 0, 1)))
    v, w = _precondition(R, *level, u_full, l_full)
    pivot_rows, rest = _eliminate(R, v, w)
    if isinstance(rest, tuple):
        rest = _kept(R, *rest, size - len(pivot_rows))
    return pivot_rows, rest


def _back_substitute(R, pivot_rows, free):
    """Element of the nullspace of the staircase system whose trailing
    (free) coordinates are the given (d, size - rank) draws.  Coordinate t
    is one R.dot of pivot row t, whose leading 1 meets the coordinate while
    it is still zero, with the coordinates from t on: they are kept along
    the leading axis, cast once to the dtype of sums of size products."""
    rank = len(pivot_rows)
    x = np.concatenate([R.zeros(rank), free], axis=1)
    y = x.T.astype(R.sum_dtype(x.shape[1]))
    for t in range(rank - 1, -1, -1):
        y[t] = -R.dot(pivot_rows[t], y[t:]) % R.p
    return y.T.astype(x.dtype)


# ---------------------------------------------------------------- entry point


def nullspace_structured(G: GeneratorPair, rng, max_retries: int = 8):
    """Nonzero right-nullspace element of the represented matrix, or a
    certified NoSolution, or Failure after max_retries attempts.

    Level 0 (_level0) eliminates G's matrix as given, once per call and
    with no draws: it is no attempt.  An attempt counts one preconditioning
    of what it leaves: a pivot breakdown resumes on the Schur complement
    with fresh draws, and the rank certified at the end is the sum of the
    levels' ranks, level 0's included.  A zero or unverified candidate is an
    attempt too, and starts a new chain from level 0's complement; below
    the sampling-set floor, but on _route's "long" chain, a level with a
    pivot is none.

    Later levels are solved padded to square (_kept, _dense), and a Solution
    holds the (d, ncols) residue array that _apply has checked on G.  A
    hankel-tagged generator is solved as hankel_to_toeplitz(G) and the
    answer reversed.  Draws come from subset_range(field, subset_floor(size)),
    size = max(nrows, ncols), the whole field when it is smaller than that
    floor, at every level.  Over a prime field below that floor _route may
    answer densely, a Failure is lifted (_lift), and the extension's
    NoSolution and Failure are the answer.
    """
    if G.tag == TAG_HANKEL:
        out = nullspace_structured(hankel_to_toeplitz(G), rng, max_retries)
        return Solution(out.value[:, ::-1]) if isinstance(out, Solution) else out
    size = max(G.nrows, G.ncols)
    min_size = subset_floor(size)
    R = residues(G.ctx)
    whole = R.ctx.order < min_size
    route = _route(size, R.p) if whole and R.d == 1 else "chain"
    if route == "dense":
        return _dense_answer(R, G, min_size, rng)
    refund = whole and route == "chain"  # a level with a pivot is no attempt
    rows0, top, start, ncols = _level0(R, G)
    one = R.unit(1, 0)
    misses = rejected = 0
    while misses < max_retries:
        # one attempt is a chain of levels: precondition and eliminate what
        # level 0 left, then after each pivot breakdown the Schur complement
        # left, until the rank is certified
        level, left, levels = top, start, []
        while level is not None and misses < max_retries:
            u_full = np.concatenate([one, _draw(R, min_size, rng, left - 1)], axis=1)
            l_full = np.concatenate([one, _draw(R, min_size, rng, left - 1)], axis=1)
            pivot_rows, level = _level(R, level, u_full, l_full)
            # on refund: levels in a row without a pivot, and rejections
            misses = rejected if refund and pivot_rows else misses + 1
            levels.append((pivot_rows, l_full))
            left -= len(pivot_rows)
        if level is not None:
            break
        if start - left == ncols:
            return NoSolution("certified rank equals the unknown count")
        # the innermost free coordinates, then each level's solution x, as
        # L·x, is the free tail of the level above
        y = _draw(R, min_size, rng, left)
        for pivot_rows, l_full in reversed(levels):
            x = _back_substitute(R, pivot_rows, y)
            y = R.conv(l_full, x)[:, : x.shape[1]]  # L·x
        vec = y[:, start - ncols :]  # a tall level's zero columns dropped
        if rows0:  # then level 0's coordinates
            vec = _back_substitute(R, rows0, vec)
        # a zero candidate, or (never on a correct run) a wrong one
        if R.is_zero(vec) or not R.is_zero(_apply(R, G.v, G.w, vec, G.nrows)):
            rejected += 1
            misses += 1
            continue
        return Solution(vec)
    if R.d != 1 or not whole:
        return Failure(misses)
    # the lift: an extension's NoSolution or Failure is the answer, since a
    # base-field matrix has the same rank over F_{p^d}
    lifted = _lift(G, min_size, rng)
    out = nullspace_structured(lifted, rng, max_retries)
    if not isinstance(out, Solution):
        return out
    vec = out.value[out.value.any(axis=1)][:1]  # the first nonzero residue row
    if not R.is_zero(_apply(R, G.v, G.w, vec, G.nrows)):
        return Failure(misses)  # never on a correct run; belt and braces
    return Solution(vec)


def _level0(R, G: GeneratorPair):
    """Level 0: G's matrix eliminated as the builder wrote it (_eliminate: no
    draws, no attempt), or left whole when at most _DENSE_WIDTH wide.  Returns
    its pivot rows, the level the chains start from, padded as _kept pads
    (None once the rank is certified), that level's size and the columns left."""
    size = max(G.nrows, G.ncols)
    rows, rest = ([], _dense(R, G.v, G.w)) if size <= _DENSE_WIDTH else _eliminate(R, G.v, G.w)
    nrows, ncols = G.nrows - len(rows), G.ncols - len(rows)
    start = max(nrows, ncols)
    if rest is None:
        return rows, None, ncols, ncols
    if isinstance(rest, np.ndarray):
        return rows, _padded(rest, start), start, ncols
    return rows, _kept(R, *rest, start), start, ncols


def _route(size: int, p: int) -> str:
    """The route of a prime field below the floor, by size and expected
    levels size / p: "chain" under 1.5; "dense" (_dense_answer) while size *
    p <= 4000 within DENSE_GUARD_CELLS; then "chain" under 32, and "long"
    (every level an attempt, so the faster lift comes sooner) from 32."""
    if size < 1.5 * p:
        return "chain"
    if size * p <= 4000 and size * size <= DENSE_GUARD_CELLS:
        return "dense"
    return "chain" if size < 32 * p else "long"


def _dense_answer(R, G: GeneratorPair, min_size: int, rng):
    """nullspace_structured over F_p by G's matrix (_dense) in
    reduced echelon form (linalg._rref_np): free coordinates drawn until the
    vector is nonzero, which _apply checks (never wrong on a correct run)."""
    A = _dense(R, G.v, G.w)[:, 0]
    piv = _rref_np(A, R.p)
    if len(piv) == G.ncols:
        return NoSolution("dense rank equals the unknown count")
    free = np.delete(np.arange(G.ncols), piv)
    vec = R.zeros(G.ncols)
    while not vec.any():
        vec[0, free] = _draw(R, min_size, rng, len(free))[0]
        vec[0, piv] = -(A[: len(piv), free] @ vec[0, free]) % R.p
    return Solution(vec) if R.is_zero(_apply(R, G.v, G.w, vec, G.nrows)) else Failure(0)


def _lift(G: GeneratorPair, min_size: int, rng) -> GeneratorPair:
    """G over F_{p^d}, the smallest extension with at least min_size
    elements: its residue arrays gain d - 1 zero rows.  A nullspace vector
    sum_t x_t u^t of the embedded matrix has base-field rows x_t that each
    lie in the base nullspace."""
    p = G.ctx.p
    d, order = 1, p
    while order < min_size:
        order *= p
        d += 1
    ext = build_extension(G.ctx, d, rng)
    rows = ((0, 0), (0, d - 1), (0, 0))
    return GeneratorPair(G.tag, G.nrows, G.ncols, np.pad(G.v, rows), np.pad(G.w, rows), ext)
