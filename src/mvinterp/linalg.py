"""Dense exact linear algebra over a FieldCtx.

Two tiers:

- matrix_rank: oracle-grade full reduced row echelon, with a vectorized
  numpy int64 path for prime fields (p < 2^31) and a generic element-wise
  path for extensions and large characteristics.  The tests build their
  dense kernel oracle on the same echelon forms.
- kernel_vector_echelon: a deliberately plain, loop-only single-vector
  kernel solve.  This is the honest cubic baseline the benchmark pits the
  structured solver against, so it must not borrow numpy's constant factor.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx, FieldElement

_NP_PRIME_LIMIT = 1 << 31


def _np_eligible(ctx: FieldCtx) -> bool:
    return ctx.d == 1 and ctx.p < _NP_PRIME_LIMIT


def _to_np(ctx, rows, ncols):
    arr = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        arr[i] = [e.c[0] for e in row]
    return arr


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


def _rref_generic(rows, ctx):
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def matrix_rank(ctx: FieldCtx, rows, ncols: int) -> int:
    if not rows:
        return 0
    if _np_eligible(ctx):
        return len(_rref_np(_to_np(ctx, rows, ncols), ctx.p))
    return len(_rref_generic(rows, ctx)[1])


def kernel_vector_echelon(ctx: FieldCtx, rows, ncols: int):
    """One nonzero kernel vector, or None when the columns are independent.

    Plain forward elimination plus back-substitution, written without numpy
    on purpose (benchmark baseline); prime fields run on raw ints.
    """
    if ncols == 0:
        return None
    if not rows:
        v = [ctx.zero()] * ncols
        v[0] = ctx.one()
        return v
    if ctx.d == 1:
        p = ctx.p
        work = [[e.c[0] for e in row] for row in rows]
        sol = _kernel_vector_int(work, ncols, p)
        return None if sol is None else [ctx.el(x) for x in sol]
    return _kernel_vector_generic([list(r) for r in rows], ncols, ctx)


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


def _kernel_vector_generic(rows, ncols, ctx):
    nrows = len(rows)
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        prow = rows[r] = [v * inv for v in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    if r == ncols:
        return None
    piv_set = set(pivots)
    free = next(c for c in range(ncols) if c not in piv_set)
    v = [ctx.zero()] * ncols
    v[free] = ctx.one()
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        row = rows[idx]
        s = ctx.zero()
        for j in range(c + 1, ncols):
            if not v[j].is_zero():
                s = s + row[j] * v[j]
        v[c] = -s
    return v
