"""Nullspace solver for matrices represented by displacement generators.

A matrix A is handled only through a length-alpha generator (V, W) with
V·W equal to its displacement:

- tag "toeplitz":  A - Z A Z^T   (Z = down-shift)
- tag "hankel":    A - Z A Z

Both operators are nilpotent-invertible, so (V, W) determines A; callers
build generators in O(alpha * size) and this module never materializes A.

The solve itself: flip Hankel structure to Toeplitz (column reversal,
undone on the answer), pad to square, pre/post-multiply by random
unit-triangular Toeplitz matrices to force a generic rank profile, then run
a Schur-complement elimination that only touches generators.  Each trailing
submatrix of the preconditioned matrix is again Toeplitz-like with no
larger displacement rank, so after one compression each step keeps the
generator at that length (a generalized Schur step); it is compressed
again only when a leading entry vanishes.
Empty then means a zero Schur complement: the rank is certified.  Nonempty
is a pivot breakdown, and the complement, Toeplitz-like as well, is
preconditioned with fresh draws and eliminated in turn, keeping the pivots
already found.  Each level's leading block is invertible, so the rank is
the sum of the levels' ranks (rank M = t + rank S).  The recorded pivot rows
give the nullspace by back-substitution with randomly drawn free
coordinates, climbing back out through the levels.  Every candidate is
verified by applying A through the generator, so a returned Solution is
unconditionally correct; NoSolution is returned only when the certified
rank equals the column count.

This module owns the whole small-field policy.  The random draws come
from a sampling set of subset_floor(size) elements, enough for one
preconditioning to succeed with probability >= 1/2.  A field smaller than
that is sampled whole and never refused: its Solution and NoSolution are as
certain as anywhere else, only breakdowns grow likelier.  Every
preconditioning, of the whole matrix or of a complement, is one attempt, so
Failure needs max_retries of them.  Over a prime field below the floor that
Failure is answered by the lift: the generator's residue arrays are embedded
into a just big enough extension F_{p^d}, the matrix is solved there, and
the first nonzero residue row of the answer, a base-field nullspace vector,
is returned.  An extension field is never lifted.

One representation serves every field: the residue arrays of
field.Residues.  A vector over F_{p^d} is a (d, n) array of residues mod p,
d = 1 for a prime field, and a generator half is one stacked (alpha, d, n)
array, as the builders write it, so a compression pivot updates all later
generator columns with one outer-product op.  The elimination stacks both
halves into one array.  Over a prime field (R.d == 1, the test linalg's
numpy paths make too) its steps and the back-substitution run on plain 2-D
(alpha, n) integer rows with pow(x, -1, p) inverses; extension fields keep
the generic (alpha, d, n) step.  The random draws are digits of the sampled
indices.  The returned vector is a residue array as well; FieldElements
appear only for the other scalar inverses.

Generator applies (_apply, _apply_last, _precondition) are batched products
of the stacked halves: A·x is conv_sum(V, corr(x, W)), reduced mod p between
the two, so that long pair products are FFT products summed over the pairs
in the frequency domain before one inverse transform.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import WrongTag
from .field import FieldCtx, build_extension, residues
from .outcomes import Failure, NoSolution, Solution

TAG_TOEPLITZ = "toeplitz"
TAG_HANKEL = "hankel"


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


PadInfo = namedtuple("PadInfo", "kind offset")


# ---------------------------------------------------------------- conversions


def hankel_to_toeplitz(G: GeneratorPair) -> GeneratorPair:
    """Generator of A·J (columns reversed) — turns Hankel-like into
    Toeplitz-like.  A nullspace vector v of A·J pulls back as J·v."""
    if G.tag != TAG_HANKEL:
        raise WrongTag("expected a hankel-tagged generator")
    return GeneratorPair(TAG_TOEPLITZ, G.nrows, G.ncols, G.v, G.w[:, :, ::-1], G.ctx)


def pad_to_square(G: GeneratorPair):
    """Zero rows on top (wide) or zero columns on the left (tall); the
    padded matrix's displacement generator needs the same padding only."""
    if G.tag != TAG_TOEPLITZ:
        raise WrongTag("expected a toeplitz-tagged generator")
    M, N = G.nrows, G.ncols
    if M == N:
        return G, PadInfo("square", 0)
    size = max(M, N)

    def pad(x):
        zeros = np.zeros(x.shape[:2] + (size - x.shape[2],), x.dtype)
        return np.concatenate([zeros, x], axis=2)

    padded = GeneratorPair(TAG_TOEPLITZ, size, size, pad(G.v), pad(G.w), G.ctx)
    return padded, PadInfo("wide" if M < N else "tall", abs(N - M))


def unpad_solution(info: PadInfo, vec):
    if info.kind == "tall":
        return vec[info.offset :]
    return vec


def _draw(R, min_size: int, rng, k: int) -> np.ndarray:
    """k uniform draws from the sampling subset S, as a (d, k) residue
    array: each is randrange(|S|) (subset_range), its index turned into
    little-endian base-p digits, so S is the first |S| elements of the
    field's canonical enumeration."""
    size = subset_range(R.ctx, min_size)
    idx = [rng.randrange(size) for _ in range(k)]
    idx = np.array(idx, dtype=np.int64 if size < 2**63 else object)
    out = R.zeros(k)
    for t in range(R.d):
        out[t] = idx % R.p
        idx //= R.p
    return out


# ---------------------------------------------------------------- generator algebra


def _apply(R, v, w, x, nrows):
    """A·x through a toeplitz-tagged generator: sum_c L(v_c) U(w_c) x."""
    return R.conv_sum(v, R.corr(x, w), slice(nrows))  # corr: sum_u w_c[u] x[k+u]


def _apply_last(R, v, w, nrows):
    """A·e_last, the last column: corr(e_last, w_c) is w_c reversed."""
    return R.conv_sum(v, w[:, :, ::-1], slice(nrows))


def _echelon(R, A, B):
    """Row-echelon form of the rows of A, each row operation undone in B so
    that sum_c A_c (x) B_c is unchanged; rows that become zero are dropped.

    Right-looking: each pivot updates all later rows with one outer-product
    op.  Later rows are reduced mod p only when they become pivots, which
    the dtype's bound on accumulated products allows.  Over a prime field
    it runs on the 2-D (alpha, n) rows with pow(x, -1, p) inverses.
    """
    p = R.p
    prime = R.d == 1
    if prime:
        A, B = A[:, 0], B[:, 0]
    A = A.copy()
    B = B.copy()
    keep = []
    for i in range(len(A)):
        A[i] %= p
        cols = A[i].T.nonzero()[0]
        if not cols.size:
            continue
        keep.append(i)
        if i + 1 < len(A):
            pc = cols[0]
            # A_j -= (a_j / s) A_i  and  B_i += (a_j / s) B_j
            if prime:
                m = A[i + 1 :, pc] % p * pow(int(A[i, pc]), -1, p) % p
                A[i + 1 :] -= m[:, None] * A[i]
                B[i] = (B[i] + m @ B[i + 1 :]) % p
            else:
                m = R.mul_matrix(R.mul(A[i + 1 :, :, pc] % p, R.inv(A[i, :, pc])))
                A[i + 1 :] -= R.times(m, A[i])
                B[i] = (B[i] + R.combine(m, B[i + 1 :])) % p
    if prime:
        return A[keep, None], B[keep, None]
    return A[keep], B[keep]


def _compress(R, v, w):
    """Shrink a generator to exact length rank(V·W), preserving the product."""
    v, w = _echelon(R, v, w)
    w, v = _echelon(R, w, v)
    return v, w


def _precondition(R, v, w, u_full, l_full):
    """Generator of U·A·L for unit-triangular Toeplitz U (upper, first row
    u_full = 1,u_1,..) and L (lower, first column l_full = 1,l_1,..):
    width grows by 4."""
    size = u_full.shape[1]
    zero = R.zeros(1)
    a_vec = np.concatenate([u_full[:, 1:], zero], axis=1)
    b_vec = np.concatenate([zero, u_full[:, :0:-1]], axis=1)
    c_vec = np.concatenate([l_full[:, 1:], zero], axis=1)
    f_vec = np.concatenate([zero, l_full[:, :0:-1]], axis=1)

    def shift1(x):
        return np.concatenate([np.zeros_like(x[..., :1]), x[..., :-1]], axis=-1)

    Ac = _apply(R, v, w, c_vec, size)
    Ae = _apply_last(R, v, w, size)
    # transpose applies: generator of A^T swaps the halves
    atA = _apply(R, w, v, a_vec, size)
    eA = _apply_last(R, w, v, size)
    new_v = R.corr(np.concatenate([v, shift1(np.stack([Ac, -Ae % R.p]))]), u_full)
    new_w = R.corr(np.concatenate([w, np.stack([atA, eA])]), l_full)
    new_w[-2:] = shift1(new_w[-2:])
    e_first = R.unit(size, 0)[None]
    new_v = np.concatenate([new_v, e_first, -b_vec[None] % R.p])
    new_w = np.concatenate([new_w[:-2], e_first, f_vec[None], new_w[-2:]])
    return new_v, new_w


def _schur_step(R, G):
    """One generalized Schur step on the halves stacked as one
    (2, alpha, d, n) array G = (V, W): the normalized first row of the
    matrix and a generator of its Schur complement of the same length, or
    None when the leading entry is zero.

    Two Gauss transforms bring the generator to proper form: one clears W's
    first column except at an index k (its inverse applied to V), the other
    V's first row except at k.  Pair k is then the first column and the
    normalized first row; shifting it down by one and dropping every other
    pair's first entry leaves the Schur complement's displacement.
    """
    p = R.p
    v, w = G
    v0, w0 = v[:, :, 0], w[:, :, 0]
    m_w = R.mul_matrix(w0)
    col0 = R.combine(m_w, v)
    if R.is_zero(col0[:, 0]):
        return None
    m_v = R.mul_matrix(v0) @ R.mul_matrix(R.inv(col0[:, 0])) % p  # v0 / pivot
    norm = R.combine(m_v, w)  # the first row over the pivot
    # W -= w0 (x) w_k / w0_k, then V -= (v0 / pivot) (x) col0: pair k is
    # (col0, norm) and every other pair starts with a zero
    k = w0.nonzero()[0][0]
    w_k = R.times(R.mul_matrix(R.inv(w0[k])), w[k, :, 1:]) % p
    w = (w[:, :, 1:] - R.times(m_w, w_k)) % p
    v = (v[:, :, 1:] - R.times(m_v, col0[:, 1:])) % p
    v[k], w[k] = col0[:, :-1], norm[:, :-1]
    return norm, np.stack([v, w])


def _schur_step_prime(R, G):
    """_schur_step over a prime field on the 2-D (alpha, n) rows of both
    halves at once: one product gives the first column and row, one
    broadcast product the two Gauss transforms, written into a new
    contiguous array (faster than in place in G), and x -= (x // p) * p
    reduces it (faster than % on int64, exact for negative x)."""
    p = R.p
    X = G[:, :, 0]
    f = X[:, :, 0]  # (v0, w0)
    c = f[::-1, None] @ X % p  # (w0 @ V, v0 @ W): the first column and row
    col0 = c[0, 0]
    if not col0[0]:
        return None
    inv = pow(int(col0[0]), -1, p)
    norm = c[1, 0] * inv % p
    k = f[1].nonzero()[0][0]
    # V -= (v0 / pivot) (x) col0 and W -= (w0 / w0_k) (x) W_k
    c[1, 0] = X[1, k]
    m = f * np.array([[inv], [pow(int(f[1, k]), -1, p)]]) % p
    Y = m[:, :, None] * c[:, :, 1:]
    np.subtract(X[:, :, 1:], Y, out=Y)
    Y -= Y // p * p
    Y[0, k], Y[1, k] = col0[:-1], norm[:-1]
    return norm[None], Y[:, :, None]


def _eliminate(R, v, w, size):
    """Generator-based Schur elimination under a generic rank profile.

    Returns (pivot_rows, rest): pivot_rows[t] is the normalized row t of
    the elimination, a (d, size - t) array.  At a vanishing leading entry
    the generator is compressed again; rest is None when that leaves it
    empty (a zero Schur complement) or after all size steps, and otherwise
    the compressed (v, w) halves of the nonzero complement: a pivot
    breakdown.

    The generator is compressed once, then every Schur step keeps its
    length; prime fields take _schur_step_prime.
    """
    G = np.stack(_compress(R, v, w))
    schur_step = _schur_step_prime if R.d == 1 else _schur_step
    pivot_rows = []
    for _ in range(size):
        step = schur_step(R, G)
        if step is None:
            rest = _compress(R, *G)
            return pivot_rows, rest if len(rest[0]) else None
        norm, G = step
        pivot_rows.append(norm)
    return pivot_rows, None


def _back_substitute(R, pivot_rows, free):
    """Element of the nullspace of the staircase system whose trailing
    (free) coordinates are the given (d, size - rank) draws.  Over a prime
    field each coordinate is one dot product, in the dtype of sums of size
    products."""
    rank = len(pivot_rows)
    x = np.concatenate([R.zeros(rank), free], axis=1)
    if R.d == 1:
        acc = R.sum_dtype(x.shape[1])
        y = x[0].astype(acc)
        for t in range(rank - 1, -1, -1):
            y[t] = -(pivot_rows[t][0, 1:].astype(acc, copy=False) @ y[t + 1 :]) % R.p
        return y[None].astype(x.dtype)
    for t in range(rank - 1, -1, -1):
        row = pivot_rows[t]  # (d, size - t), leading entry 1
        x[:, t] = -R.dot(row[:, 1:], x[:, t + 1 :]) % R.p
    return x


# ---------------------------------------------------------------- entry point


def nullspace_structured(G: GeneratorPair, rng, max_retries: int = 8):
    """Nonzero right-nullspace element of the represented matrix, or a
    certified NoSolution, or Failure after max_retries attempts.

    An attempt counts one preconditioning: a pivot breakdown resumes on the
    Schur complement with fresh draws, and the rank certified at the end is
    the sum of the levels' ranks.  A zero or unverified candidate starts a
    new attempt on the whole matrix.

    A Solution holds the vector as the (d, ncols) residue array that _apply
    has checked.  A hankel-tagged generator is solved as hankel_to_toeplitz(G)
    and the answer reversed.  Draws come from subset_range(field,
    subset_floor(padded size)), the whole field when it is smaller than that
    floor, at every level.  Over a prime field below that floor a Failure is
    lifted (_lift); the extension's NoSolution and Failure are returned as
    they are.
    """
    if G.tag == TAG_HANKEL:
        out = nullspace_structured(hankel_to_toeplitz(G), rng, max_retries)
        return Solution(out.value[:, ::-1]) if isinstance(out, Solution) else out
    n_orig = G.ncols
    padded, pad = pad_to_square(G)
    size = padded.nrows
    min_size = subset_floor(size)
    # _echelon leaves up to one update per preconditioned pair, alpha + 4,
    # unreduced in a row, so every generator it sees is cast to the dtype of
    # sums that long; conv, dot and combine choose their own
    R = residues(G.ctx)
    wide = R.sum_dtype(G.alpha + 4)
    orig_v, orig_w = G.v.astype(wide), G.w.astype(wide)
    one = R.unit(1, 0)

    attempts = 0
    while attempts < max_retries:
        # one attempt is a chain of levels: precondition and eliminate the
        # padded matrix, then after each pivot breakdown the Schur complement
        # left, until the rank is certified
        rest, left, levels = (padded.v, padded.w), size, []
        while rest is not None and attempts < max_retries:
            attempts += 1
            v, w = (x.astype(R.sum_dtype(len(x) + 4)) for x in rest)
            u_full = np.concatenate([one, _draw(R, min_size, rng, left - 1)], axis=1)
            l_full = np.concatenate([one, _draw(R, min_size, rng, left - 1)], axis=1)
            pivot_rows, rest = _eliminate(R, *_precondition(R, v, w, u_full, l_full), left)
            levels.append((pivot_rows, l_full))
            left -= len(pivot_rows)
        if rest is not None:
            break
        if size - left == n_orig:
            return NoSolution("certified rank equals the unknown count")
        # the innermost free coordinates, then each level's solution x, as
        # L·x, is the free tail of the level above
        y = _draw(R, min_size, rng, left)
        for pivot_rows, l_full in reversed(levels):
            x = _back_substitute(R, pivot_rows, y)
            y = R.conv(l_full, x)[:, : x.shape[1]]  # L·x
        vec = unpad_solution(pad, y.T).T  # unknowns along the leading axis
        if R.is_zero(vec):
            continue
        if not R.is_zero(_apply(R, orig_v, orig_w, vec, G.nrows)):
            continue  # never on a correct run; belt and braces
        return Solution(vec)
    if R.d != 1 or R.p >= min_size:
        return Failure(attempts)
    # the lift: an extension's NoSolution or Failure is the answer, since a
    # base-field matrix has the same rank over F_{p^d}
    lifted = _lift(G, min_size, rng)
    out = nullspace_structured(lifted, rng, max_retries)
    if not isinstance(out, Solution):
        return out
    vec = out.value[out.value.any(axis=1)][:1]  # the first nonzero residue row
    if not R.is_zero(_apply(R, orig_v, orig_w, vec, G.nrows)):
        return Failure(attempts)  # never on a correct run; belt and braces
    return Solution(vec)


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
