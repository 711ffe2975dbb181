"""Dense exact linear algebra over a FieldCtx: one elimination over F_p.

Over F_{p^d} the M x N matrix A, an (M, d, N) residue array, is eliminated
as the (M d) x (N d) matrix B over F_p of the d x d multiplication matrices
of its entries (_realify).  B is A as an F_p-linear map: its kernel is the
residues of A's kernel, and rank B = d rank A.

- matrix_rank: oracle-grade reduced row echelon form of B in numpy.
- kernel_vector_echelon: a deliberately plain, loop-only single-vector
  kernel solve on B's rows as Python ints.  This is the honest cubic
  baseline the benchmark pits the structured solver against, so it must
  not borrow numpy's constant factor.  B's pivots come in whole blocks, so
  its vector is the one the same elimination over F_{p^d} would find.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx, residues

_NP_PRIME_LIMIT = 1 << 31


def _realify(ctx: FieldCtx, A: np.ndarray) -> np.ndarray:
    """The (M d) x (N d) matrix over F_p of the (M, d, N) matrix A, in
    int64 below _NP_PRIME_LIMIT, else object; at d = 1 the residues."""
    dtype = np.int64 if ctx.p < _NP_PRIME_LIMIT else object
    M, d, N = A.shape
    if d == 1:
        return A[:, 0].astype(dtype)
    blocks = residues(ctx).mul_matrix(A.swapaxes(1, 2)).swapaxes(1, 2)  # (M, d, N, d)
    return blocks.reshape(M * d, N * d).astype(dtype)


def _rref_np(arr: np.ndarray, p: int):
    """In-place reduced row echelon mod p; returns pivot column list.  Pivot
    rows are normalized at the end, and entries reduced when they must be."""
    m, n = arr.shape
    r = 0
    pivots, invs = [], []
    every = max((1 << 62) // (p * p) - 1, 1)  # updates between reductions
    for c in range(n):
        if r == m:
            break
        col = arr[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            arr[[r, pr]] = arr[[pr, r]]
            col[[r, pr]] = col[[pr, r]]
        # rows r on are zero mod p left of column c: only columns c on change
        sub = arr[:, c:]
        sub[r] %= p
        invs.append(pow(int(col[r]), -1, p))
        col = col * invs[-1] % p
        col[r] = 0
        sub -= col[:, None] * sub[r]
        pivots.append(c)
        r += 1
        if r % every == 0:
            sub %= p
    arr %= p
    arr[:r] = arr[:r] * np.array(invs, dtype=arr.dtype)[:, None] % p
    return pivots


def matrix_rank(ctx: FieldCtx, rows, ncols: int) -> int:
    """Rank of the matrix of FieldElement rows, converted once."""
    A = residues(ctx).array([e for row in rows for e in row]).reshape(ctx.d, len(rows), ncols)
    return len(_rref_np(_realify(ctx, A.swapaxes(0, 1)), ctx.p)) // ctx.d


def kernel_vector_echelon(ctx: FieldCtx, A: np.ndarray):
    """One nonzero kernel vector of the (M, d, N) matrix A as a (d, N)
    residue array, or None when the columns are independent.

    Plain forward elimination plus back-substitution on raw ints, written
    without numpy on purpose (benchmark baseline).
    """
    M, d, N = A.shape
    rows, nrows, ncols, p = _realify(ctx, A).tolist(), M * d, N * d, ctx.p
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        prow = rows[r] = [v * inv % p for v in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                ri = rows[i]
                rows[i] = [(a - f * b) % p for a, b in zip(ri, prow)]
        pivots.append(c)
        r += 1
    if r == ncols:
        return None
    piv_set = set(pivots)
    free = next(c for c in range(ncols) if c not in piv_set)
    v = [0] * ncols
    v[free] = 1
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        row = rows[idx]
        s = 0
        for j in range(c + 1, ncols):
            if v[j]:
                s += row[j] * v[j]
        v[c] = -s % p
    return np.array(v, residues(ctx).dtype).reshape(N, d).T.copy()
