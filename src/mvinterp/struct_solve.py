"""Nullspace solver for matrices represented by displacement generators.

A matrix A is handled through a length-alpha generator (V, W) with V·W
equal to its displacement:

- tag "toeplitz":  A - Z A Z^T   (Z = down-shift)
- tag "hankel":    A - Z A Z

Both operators are nilpotent-invertible, so (V, W) determines A; callers
build generators in O(alpha * size); matrices are built only up to
_DENSE_WIDTH wide, or on the dense route (_route).

The solve itself: flip Hankel structure to Toeplitz (column reversal,
undone on the answer), then eliminate.  Level 0 (_level0) draws nothing.
A matrix at most _DENSE_WIDTH wide, or on the dense route, it eliminates
densely with partial pivoting (_eliminate_dense), which certifies the rank.
Any other it eliminates as its builder wrote it, by generalized Schur steps
on its generator in blocks (the Schur complement of any invertible leading
block is again Toeplitz-like with no larger displacement rank, so each
step keeps the generator's length): a block needs only its own h x h
block invertible and pivots inside it, so it steps over the leading
minors that vanish in the builders' column orders.  A zero leading entry
of a singular block compresses the generator; empty then means a zero
Schur complement: the rank is certified.  Nonempty is a pivot breakdown
(in the last step before the dense tail, the tail widens instead), and
only then is the complement brought to a generic rank profile: padded
to square (zero rows on top of a wide matrix, zero columns left of a tall
one, as _kept writes its generator), pre/post-multiplied by random
unit-triangular Toeplitz matrices (Kaltofen & Saunders, AAECC-9, 1991),
and eliminated in turn, and so on after each breakdown; the rank is the
sum of the levels' ranks (rank M = t + rank S).  A level's last
_DENSE_WIDTH rows are eliminated densely with pivoting, which never breaks
down.  The pivot rows and columns give the nullspace by back-substitution
with random free coordinates, climbing back out through the levels, level
0 last.  Every candidate is verified by applying A through the generator,
so a returned Solution is unconditionally correct; NoSolution is returned
only when the certified rank equals the column count.

Schur steps go in blocks (_schur_block) where each of a block's products
is one exact float64 product, elsewhere one at a time.  A level that
certifies the rank pivots on the matrix's column rank profile whatever the
block size h, so its answers agree; where a breakdown comes, and so which
draws follow, depends on h as well as the matrix.

This module owns the whole small-field policy.  The random draws come
from a sampling set of subset_floor(size) elements, enough for one
preconditioning to succeed with probability >= 1/2.  A field smaller than
that is sampled whole and never refused: its Solution and NoSolution are as
certain as anywhere else, only breakdowns grow likelier.  Where blocks
run, a breakdown is a zero leading entry whose h x h block is singular, as
a random one is with probability about 1/p; where Schur steps run, it is
any zero leading entry, about one pivot in p.  Every preconditioning, and
every rejected candidate, is an attempt; level 0,
which draws nothing, is none, so a matrix it eliminates densely never
fails.  Failure needs max_retries of them; below the floor only a level
without a pivot or a rejected candidate is one, and a pivot resets the
count.  A prime field below the
floor may take the dense route (_route) and has a chain's Failure lifted:
the generator's residue arrays are embedded into a just big enough
extension F_{p^d}, the matrix is solved there, and the first nonzero
residue row of the answer, a base-field nullspace vector, is returned.  An
extension field is never lifted.

One representation serves every field: the residue arrays of
field.Residues.  A vector over F_{p^d} is a (d, n) array of residues mod p,
a generator half one stacked (alpha, d, n) array, as the builders write it,
and the elimination stacks both halves.  The Schur step and block, the
echelon, the dense elimination and the back-substitution are written once,
each op one Residues call whose d = 1 shortcuts keep a prime-field step at
about 13 numpy calls; d appears here only in the lift policy and a block's
size.  The random draws are digits of the sampled indices; the answer is a
residue array.

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
from .outcomes import Failure, NoSolution, Solution

TAG_TOEPLITZ = "toeplitz"
TAG_HANKEL = "hankel"
# a level's last rows, this many, are eliminated densely: 2^61 - 1 loses
# 1.4-1.8 ms per level at 40-48 and F_16777213 saves 0.4-0.9 ms at 32-64
_DENSE_WIDTH = 32
# pivots per block, h = min(_BLOCK, 2 * _BLOCK // d, f64_terms): n = 200 gs
# beat Schur steps by 18% over F_13^4 (h = 16), 7% over GF(2^8) (8).  Blocks
# of h < _BLOCK // 4 lost (n = 64 gs took 1.25x the time at 4, 3.1x at 1 and
# 0.92x at 8), and int64 blocks 2.2x (n = 256 gs over 998244353)
_BLOCK = 32
# largest matrix a linearization or the dense route builds densely
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
    outer-product op (R.scale) of products below p^2, left unreduced until
    one more would pass R.sum_dtype's int64 bound, as in _eliminate_dense;
    a row reduces when it becomes a pivot.  Row i of B takes the
    multipliers of pivot i against the rows of B below it, none of which
    has changed yet, so B is one product (R.combine) with the unit
    upper-triangular matrix T of all multipliers.
    """
    p = R.p
    A = A.copy()
    T = np.zeros((len(A),) + A.shape[:2], dtype=A.dtype)  # (alpha, alpha, d) scalars
    T[..., 0] = np.eye(len(A), dtype=A.dtype)
    keep, updates = [], 0
    for i in range(len(A)):
        A[i] %= p
        cols = A[i].T.nonzero()[0]
        if not cols.size:
            continue
        keep.append(i)
        pc = cols[0]
        if R.sum_dtype(updates + 1) is not np.int64:
            A[i + 1 :] %= p
            updates = 0
        # A_j -= (a_j / s) A_i  and  B_i += (a_j / s) B_j
        T[i, i + 1 :] = R.mul(A[i + 1 :, :, pc] % p, R.inv(A[i, :, pc]))
        A[i + 1 :] -= R.scale(T[i, i + 1 :], A[i])
        updates += 1
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
    matrix as a block of one row, (1, d, n), and a generator of its Schur
    complement of the same length, or None when the leading entry is zero.

    Two Gauss transforms bring the generator to proper form: one clears W's
    first column except at an index k (its inverse applied to V), the other
    V's first row except at k.  Pair k is then the first column and the
    normalized first row; shifting it down by one and dropping every other
    pair's first entry leaves the Schur complement's displacement.

    One product of (w0, v0) with both halves (R.combine) gives the first
    column and row, one R.inv call both inverses, and one product of the
    scalars with (col0, W_k) (R.scale) both Gauss transforms, written into
    a new contiguous array (faster than in place in G); R.reduce reduces
    it (faster than % on int64, exact for negative x).
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
    R.reduce(Y)
    Y[0, k], Y[1, k] = c[0, :, :-1], norm[:, :-1]
    return norm[None], Y


def _schur_block(R, G, h):
    """Up to h generalized Schur steps on G as _schur_step takes it: the
    pivot rows [I | X A12] of A's leading r x r block A11 = X^-1, (r, d, n),
    and a generator of its Schur complement.  r = h when the leading h x h
    block is invertible, whatever its leading minors; else r is its first
    zero pivot without pivoting (_inverse_prefix), and None when that is 0.

    A's top rows and first columns (A^T's generator is the halves swapped)
    are dense; Gauss-Jordan on A11 gives r and X.  Nothing below needs more
    than A11 invertible.  With V1, W1 the halves'
    first r entries, V2, W2 the rest, P (Q) the first r columns (rows) from
    row (column) r - 1 to n - 2 and Z1 the down-shift, the complement's
    displacement is [V2 | P] M [W2 ; Q] (Kailath & Sayed, SIAM Review 1995),
    M = diag(I, X) - [W1 X ; Z1^T X] [V1 , Z1] = N diag(I, X): N = I - L X
    K', L = [W1 ; Z1^T], K' = [V1 , Z1 A11], is idempotent of rank alpha as
    K' L = A11, its rows in L's left kernel.  That kernel's rows H = (e_c -
    f_c e_k, -w'_c[1:r], 0), c != k, and e_last, with k the first pair with
    w_k[0] != 0, f_c = w_c[0] / w_k[0] and w'_c = w_c - f_c w_k, are the
    identity on their columns J: N = N[:, J] H, and as [V2 | P] L = A21 the
    new pairs are (V2_c - A21 X V1_c, W'2_c - w'_c[1:r] X Q), and at k (P's
    last column - A21 X Z1 A11's, X Q's last row): one R.combine.
    """
    alpha, n = G.shape[1], G.shape[3]
    T, C = _dense(R, G[..., :h], G[::-1])  # A's top rows and A^T's
    X, r = _inverse_prefix(R, T[..., :h])
    if not r:
        return None
    XT = R.combine(X.transpose(0, 2, 1), T[:r, :, r - 1 :])  # X A[:r, r-1:] = [X Q | last]
    rows = np.concatenate([np.eye(r, dtype=G.dtype)[:, None] * R.unit(1, 0), XT[..., 1:]], axis=2)
    V, W = G
    k = W[:, :, 0].nonzero()[0][0]  # r > 0: A's first column is not zero
    W = R.reduce(W - R.scale(R.mul(W[:, :, 0], R.inv(W[k, :, 0])), W[k]))  # the w'_c; w'_k = 0
    K = V[..., :r].transpose(0, 2, 1).copy()  # K'[:, J] as (alpha, r, d) scalars
    K[k, 0], K[k, 1:] = 0, T[: r - 1, :, r - 1]
    S = np.zeros((2, alpha, r, R.d), G.dtype)  # the multipliers of A21's rows and X Q's
    S[0] = R.combine(K, X.transpose(2, 1, 0)).transpose(0, 2, 1)
    S[1, :, : r - 1] = W[..., 1:r].transpose(0, 2, 1)
    out = np.stack([V[..., r:], W[..., r:]])
    out[0, k], out[1, k] = C[r - 1, :, r - 1 : n - 1], XT[r - 1, :, : n - r]
    out -= R.combine(S, np.stack([C[:r, :, r:], XT[:r, :, : n - r]])[:, None])
    return rows, R.reduce(out)


def _inverse_prefix(R, A):
    """(X, r) for the (h, d, h) matrix A by Gauss-Jordan on [A | I]: (A^-1,
    h) when A is invertible, else r0, its first zero pivot without
    pivoting, and X the inverse of its leading r0 x r0 block.  From r0 on
    the first row below with a nonzero entry in the pivot column is swapped
    up.  Unreduced, h <= f64_terms pivots' products stay below 2^54."""
    p, h = R.p, len(A)
    aug = np.concatenate([A, np.eye(h, dtype=A.dtype)[:, None] * R.unit(1, 0)], axis=2)
    prefix = None
    for r in range(h):
        row = aug[r] % p
        try:
            inv = R.inv(row[:, r])
        except DivisionByZero:
            prefix = prefix or (aug[:r, :, h : h + r] % p, r)
            below = (aug[r + 1 :, :, r] % p).any(axis=1).nonzero()[0]
            if not below.size:
                return prefix
            aug[[r, r + 1 + below[0]]] = aug[[r + 1 + below[0], r]]
            row = aug[r] % p
            inv = R.inv(row[:, r])
        row = R.scale(inv[0], row) % p
        aug -= R.scale(aug[:, :, r] % p, row)
        aug[r] = row
    return aug[:, :, h:] % p, h


def _eliminate(R, v, w, width=None):
    """Generator-based Schur elimination of the matrix A of the halves v
    (alpha, d, nrows) and w (alpha, d, ncols): block steps, each pivoting
    only inside its own block, then a dense tail with pivoting.

    Returns (pivot_rows, cols, rest): the pivot columns cols, their rows in
    blocks, each (h, d, ncols - c) from its pivot columns c .. c + h - 1 on,
    where it is the identity.  A step that takes no pivot (a zero leading
    entry of a singular block) compresses the generator again; rest is None
    when that leaves it empty (a zero Schur complement) or once the rows or
    columns run out, and otherwise the compressed (v, w) halves of the
    nonzero complement: a pivot breakdown, with cols 0..t-1.

    A step takes h = min(_BLOCK, 2 _BLOCK // d, f64_terms) pivots
    (_schur_block) where h >= _BLOCK // 4, else one (_schur_step).  A block
    cut short by a singular h x h block is no breakdown: the next one
    starts at its zero leading entry.  A breakdown in the last step before
    the dense tail widens the tail instead.  The shorter half is
    zero-padded at its end, which changes the matrix only past A's rows (or
    columns), never read by the first min(nrows, ncols) pivots.  Pivot rows
    and a breakdown's halves are cut to A's columns and rows.  Each step
    keeps the generator's length.  The last `width` rows (_DENSE_WIDTH by
    default) of the shorter side, unless the sides differ by more, are
    eliminated with pivoting (_eliminate_dense), which never breaks down.
    """
    nrows, ncols = v.shape[2], w.shape[2]
    G = np.zeros((2, len(v), R.d, max(nrows, ncols)), R.dtype)
    G[0, ..., :nrows], G[1, ..., :ncols] = v, w
    pivot_rows, t = [], 0
    width = _DENSE_WIDTH if width is None else width
    stop = min(nrows, ncols) - (width if abs(nrows - ncols) <= width else 0)
    block = min(_BLOCK, 2 * _BLOCK // R.d, R.f64_terms)
    block = block if block >= _BLOCK // 4 else 0
    while t < stop:
        h = min(block, stop - t) if block else 1
        step = _schur_block(R, G, h) if block else _schur_step(R, G)
        if step is None and t + h == stop < min(nrows, ncols):
            break
        if step is None:
            rest = _compress(R, G[0, ..., : nrows - t], G[1, ..., : ncols - t])
            return pivot_rows, list(range(t)), rest if len(rest[0]) else None
        rows, G = step
        pivot_rows.append(rows[..., : ncols - t])
        t += len(rows)
    rows, cols = [], []
    if t < min(nrows, ncols):
        rows, cols = _eliminate_dense(R, _dense(R, G[0, ..., : nrows - t], G[1, ..., : ncols - t]))
    return pivot_rows + rows, list(range(t)) + [t + c for c in cols], None


def _dense(R, v, w):
    """The (..., nrows, d, ncols) matrices of toeplitz-tagged halves v
    (..., alpha, d, nrows) and w (..., alpha, d, ncols): D = sum_c v_c (x)
    w_c is one R.combine, and A sums D along each diagonal (A - Z A Z^T =
    D), one cumulative sum down the columns of an array whose row i is
    shifted right by nrows - 1 - i."""
    lead, d, nrows, ncols = v.shape[:-3], R.d, v.shape[-1], w.shape[-1]
    c = v.swapaxes(-1, -3).swapaxes(-1, -2)  # (..., nrows, alpha, d), a tenth of np.moveaxis
    D = R.combine(c, w[..., None, :, :, :])  # (..., nrows, d, ncols)

    def unskewed(x):  # a view: diagonal j - i is column nrows - 1 + j - i
        flat = x.reshape(lead + (d, -1))[..., nrows - 1 : nrows - 1 + nrows * (nrows + ncols - 1)]
        return flat.reshape(lead + (d, nrows, nrows + ncols - 1))[..., :ncols]

    skew = np.zeros(lead + (d, nrows, nrows + ncols), R.dtype)
    unskewed(skew)[:] = D.swapaxes(-3, -2)
    R.reduce(np.cumsum(skew, axis=-2, out=skew))
    return unskewed(skew).swapaxes(-3, -2).copy()


def _eliminate_dense(R, S):
    """Gaussian elimination with partial pivoting of a dense (nrows, d,
    ncols) matrix S, in place: per column, the first row from the next pivot
    row on with a nonzero entry is swapped up, normalized and subtracted
    from the rows below; a column without one is free.  Returns (pivot_rows,
    cols) as _eliminate does.  Updates add products below p^2 (R.scale),
    left unreduced until one more would pass R.sum_dtype's int64 bound
    (always over object residues); a column and a pivot row reduce as read."""
    p, nrows, ncols = R.p, len(S), S.shape[2]
    pivot_rows, cols, updates = [], [], 0
    for c in range(ncols):
        r = len(cols)
        if r == nrows:
            break
        col = S[r:, :, c] % p
        nonzero = col.nonzero()[0]  # rows, in order
        if not nonzero.size:
            continue
        i = nonzero[0]
        if i:
            S[[r, r + i]] = S[[r + i, r]]
            col[[0, i]] = col[[i, 0]]
        norm = R.scale(R.inv(col[0]), S[r : r + 1, :, c:] % p) % p
        pivot_rows.append(norm)
        cols.append(c)
        below = S[r + 1 :, :, c + 1 :]
        if R.sum_dtype(updates + 1) is not np.int64:
            below %= p
            updates = 0
        below -= R.scale(col[1:], norm[0, :, 1:])
        updates += 1
    return pivot_rows, cols


def _level(R, level, u_full, l_full):
    """A level of an attempt, as _kept gives it, preconditioned with the
    draws u_full and l_full and eliminated: its pivot rows and columns and
    the next level (a breakdown's complement, as _kept gives it) or None."""
    v, w = _precondition(R, *level, u_full, l_full)
    pivot_rows, cols, rest = _eliminate(R, v, w)
    if rest is not None:
        rest = _kept(R, *rest, u_full.shape[1] - len(cols))
    return pivot_rows, cols, rest


def _back_substitute(R, pivot_rows, cols, free):
    """Element of the nullspace of the echelon system of the pivot rows in
    _eliminate's blocks, with the given (d, size - rank) draws on its other
    (free) coordinates.  A block's h coordinates c .. c + h - 1 are one
    R.dot of its rows with the coordinates from c on, x[c:c+h] = -(X A12)
    x[c+h:], since its leading identity meets them while they are still
    zero: they are kept along the leading axis, cast once to the dtype of
    sums of size products."""
    size = len(cols) + free.shape[1]
    x = R.zeros(size)
    x[:, np.delete(np.arange(size), cols)] = free
    y = x.T.astype(R.sum_dtype(size))
    t = len(cols)
    for rows in reversed(pivot_rows):
        t -= len(rows)
        c = cols[t]
        y[c : c + len(rows)] = -R.dot(rows, y[c:]) % R.p
    return y.T.astype(x.dtype)


# ---------------------------------------------------------------- entry point


def nullspace_structured(G: GeneratorPair, rng, max_retries: int = 8):
    """Nonzero right-nullspace element of the represented matrix, or a
    certified NoSolution, or Failure after max_retries attempts.

    Level 0 (_level0) eliminates G's matrix once per call and with no
    draws: it is no attempt, and a matrix it eliminates densely (at most
    _DENSE_WIDTH wide, or on _route's dense route) never fails.  An attempt
    counts one preconditioning of what it leaves: a pivot breakdown resumes
    on the Schur complement with fresh draws, and the rank certified at the
    end is the sum of the levels' ranks, level 0's included.  A zero or
    unverified candidate is an attempt too, and starts a new chain from
    level 0's complement; below the sampling-set floor a level with a
    pivot is none.

    Later levels are solved padded to square (_kept), and a Solution holds
    the (d, ncols) residue array that _apply has checked on G.  A
    hankel-tagged generator is solved as hankel_to_toeplitz(G) and the
    answer reversed.  Draws come from subset_range(field, subset_floor(size)),
    size = max(nrows, ncols), the whole field when it is smaller than that
    floor, at every level; the innermost free coordinates are drawn until
    one is nonzero.  Over a prime field below that floor a chain's Failure
    is lifted (_lift), and the extension's NoSolution and Failure are the
    answer.
    """
    if G.tag == TAG_HANKEL:
        out = nullspace_structured(hankel_to_toeplitz(G), rng, max_retries)
        return Solution(out.value[:, ::-1]) if isinstance(out, Solution) else out
    size = max(G.nrows, G.ncols)
    min_size = subset_floor(size)
    R = residues(G.ctx)
    whole = R.ctx.order < min_size
    dense = whole and R.d == 1 and _route(size, R.p) == "dense"
    rows0, cols0, top, start, ncols = _level0(R, G, dense)
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
            pivot_rows, cols, level = _level(R, level, u_full, l_full)
            # below the floor a level with a pivot is no attempt: misses
            # are levels in a row without one, and rejections
            misses = rejected if whole and cols else misses + 1
            levels.append((pivot_rows, cols, l_full))
            left -= len(cols)
        if level is not None:
            break
        if start - left == ncols:
            return NoSolution("certified rank equals the unknown count")
        # the innermost free coordinates, drawn until one is nonzero, then
        # each level's solution x, as L·x, is the free tail of the level above
        y = _draw(R, min_size, rng, left)
        while not y.any():
            y = _draw(R, min_size, rng, left)
        for pivot_rows, cols, l_full in reversed(levels):
            x = _back_substitute(R, pivot_rows, cols, y)
            y = R.conv(l_full, x)[:, : x.shape[1]]  # L·x
        vec = y[:, start - ncols :]  # a tall level's zero columns dropped
        vec = _back_substitute(R, rows0, cols0, vec)  # then level 0's coordinates
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


def _level0(R, G: GeneratorPair, dense: bool):
    """Level 0, no draws and no attempt: G's matrix eliminated as the builder
    wrote it (_eliminate), densely with pivoting throughout when dense or at
    most _DENSE_WIDTH wide, which certifies the rank.  Returns its pivot
    rows and columns, the level the chains start from, padded as _kept pads
    (None once the rank is certified), that level's size and the columns
    left."""
    rows, cols, rest = _eliminate(R, G.v, G.w, max(G.nrows, G.ncols) if dense else None)
    nrows, ncols = G.nrows - len(cols), G.ncols - len(cols)
    if rest is None:
        return rows, cols, None, ncols, ncols
    start = max(nrows, ncols)
    return rows, cols, _kept(R, *rest, start), start, ncols


def _route(size: int, p: int) -> str:
    """The route of a prime field below the floor: "dense" (level 0
    eliminates the whole matrix with pivoting) from 1.5 p rows while size *
    p <= 1000 within DENSE_GUARD_CELLS, else "chain".  Blocks break down
    about once in 32 (p - 1)^2 pivots, so the chain beat the dense route
    from F_2 at 700 rows, F_3 at 600 and F_7 at 300, and the lift at every
    size timed (F_2 at 1100 rows: 0.55 against 4.8 s)."""
    dense = 1.5 * p <= size and size * p <= 1000 and size * size <= DENSE_GUARD_CELLS
    return "dense" if dense else "chain"


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
