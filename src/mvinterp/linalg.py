"""Dense exact linear algebra over a FieldCtx: one elimination over F_p.

Over F_{p^d} the M x N matrix A is eliminated as the (M d) x (N d) matrix
B over F_p of the d x d multiplication matrices of its entries (_realify).
B is A as an F_p-linear map: its kernel is the residues of A's kernel, and
rank B = d rank A.

- matrix_rank: oracle-grade reduced row echelon form of B in numpy.
- kernel_vector_echelon: a deliberately plain, loop-only single-vector
  kernel solve on B's rows as Python ints.  This is the honest cubic
  baseline the benchmark pits the structured solver against, so it must
  not borrow numpy's constant factor.  B's pivots come in whole blocks, so
  its vector is the one the same elimination over F_{p^d} would find.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx, FieldElement, residues

_NP_PRIME_LIMIT = 1 << 31


def _realify(ctx: FieldCtx, rows, ncols) -> np.ndarray:
    """The (M d) x (N d) matrix over F_p of the M x N FieldElement rows, in
    int64 below _NP_PRIME_LIMIT, else object; at d = 1 the residues."""
    dtype = np.int64 if ctx.p < _NP_PRIME_LIMIT else object
    if ctx.d == 1:
        arr = np.zeros((len(rows), ncols), dtype)
        for i, row in enumerate(rows):
            arr[i] = [e.c[0] for e in row]
        return arr
    R, d = residues(ctx), ctx.d
    blocks = R.mul_matrix(R.array([e for row in rows for e in row]).T)
    blocks = blocks.reshape(len(rows), ncols, d, d).swapaxes(1, 2)
    return blocks.reshape(len(rows) * d, ncols * d).astype(dtype)


def _rref_np(arr: np.ndarray, p: int):
    """In-place reduced row echelon mod p; returns pivot column list."""
    m, n = arr.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(arr[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            arr[[r, pr]] = arr[[pr, r]]
        inv = pow(int(arr[r, c]), -1, p)
        arr[r] = arr[r] * inv % p
        col = arr[:, c].copy()
        col[r] = 0
        arr -= np.outer(col, arr[r])
        arr %= p
        pivots.append(c)
        r += 1
    return pivots


def matrix_rank(ctx: FieldCtx, rows, ncols: int) -> int:
    return len(_rref_np(_realify(ctx, rows, ncols), ctx.p)) // ctx.d


def kernel_vector_echelon(ctx: FieldCtx, rows, ncols: int):
    """One nonzero kernel vector, or None when the columns are independent.

    Plain forward elimination plus back-substitution on raw ints, written
    without numpy on purpose (benchmark baseline).
    """
    d = ctx.d
    sol = _kernel_vector_int(_realify(ctx, rows, ncols).tolist(), ncols * d, ctx.p)
    if sol is None:
        return None
    return [FieldElement(ctx, tuple(sol[j * d : j * d + d])) for j in range(ncols)]


def _kernel_vector_int(rows, ncols, p):
    nrows = len(rows)
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
    return v
