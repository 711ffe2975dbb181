"""Toeplitz-like linearization via companion-matrix action.

The defining linear map of an instance sends the coefficient vector of
(q_0..q_{nu-1}) to the stacked coefficients of sum_j F_{i,j} q_j mod P_i.
Its matrix has (i,j) block with columns X^v F_{i,j} mod P_i — successive
companion-matrix actions on the residue — which makes A' - Z A' Z^T of
rank at most mu+nu: shifting a column right and down differs from the next
companion action only through the reduction term (a multiple of P_i's
coefficient vector scaled by the outgoing top coefficient) plus block
boundary corrections.  The top coefficients of X^v F_{i,j} mod P_i are the
first N'_j terms of the Markov series rev(F_{i,j})/rev(P_i), so they are
read off mosaic_hankel.compute_s_star, never by materializing the blocks.
"""

from __future__ import annotations

import numpy as np

from .approx import ApproxInstance
from .errors import TooLarge
from .mosaic_hankel import compute_s_star
from .poly import Poly, poly_mod
from .struct_solve import TAG_TOEPLITZ, GeneratorPair

DENSE_GUARD_CELLS = 1 << 20  # largest matrix either linearization builds densely


def _alpha_columns(p: Poly, f: Poly, count: int):
    """Coefficient columns of X^v * f mod p for v < count (companion action)."""
    ctx = p.ctx
    m = p.deg
    pc = [p.coeff(u) for u in range(m)]
    cur = [f.coeff(u) for u in range(m)]
    cols = [list(cur)]
    for _ in range(1, count):
        top = cur[m - 1]
        if top.is_zero():
            cur = [ctx.zero()] + cur[: m - 1]
        else:
            cur = [ctx.zero() - top * pc[0]] + [
                cur[u - 1] - top * pc[u] for u in range(1, m)
            ]
        cols.append(list(cur))
    return cols


def dense_build_Aprime(a: ApproxInstance):
    """The matrix of the defining map itself (oracle / dense baseline)."""
    M, N = a.total_rows, a.total_cols
    if M * N > DENSE_GUARD_CELLS:
        raise TooLarge(f"{M}x{N} dense matrix exceeds the guard")
    rows = [[a.ctx.zero()] * N for _ in range(M)]
    r0 = 0
    for i, p in enumerate(a.moduli):
        c0 = 0
        for j, bound in enumerate(a.col_bounds):
            cols = _alpha_columns(p, a.residues[i][j], bound)
            for v, col in enumerate(cols):
                for u in range(p.deg):
                    rows[r0 + u][c0 + v] = col[u]
            c0 += bound
        r0 += p.deg
    return rows


def build_toeplitz_generators(a: ApproxInstance) -> GeneratorPair:
    """Length-(mu+nu) generator with V·W = A' - Z A' Z^T.

    mu pairs: the negated modulus-coefficient column of each row block
    (with a 1 carried into the next block's first row) against the
    right-shifted concatenation of its top-coefficient sequences.
    nu pairs: the residue column of each column block (minus the shifted-in
    image X^{N'_{j-1}} F_{i,j-1} mod P_i of the previous block) against a
    unit row at the block's first column.
    """
    ctx, p, mu, nu = a.ctx, a.ctx.p, a.mu, a.nu
    M, N = a.total_rows, a.total_cols
    row_offsets = np.cumsum((0,) + a.row_bounds)
    col_starts = np.cumsum((0,) + a.col_bounds)
    v = np.zeros((mu + nu, ctx.d, M), a.moduli[0].a.dtype)
    w = np.zeros((mu + nu, ctx.d, N), v.dtype)
    for i, (P, series) in enumerate(zip(a.moduli, compute_s_star(a))):
        r0, m = row_offsets[i], P.deg
        v[i, :, r0 : r0 + m] = -P.coeffs(m) % p
        if i + 1 < mu:
            v[i, 0, r0 + m] = p - 1
        tops = [s[:, :b] for s, b in zip(series, a.col_bounds)]
        w[i, :, 1:] = np.concatenate(tops, axis=1)[:, : N - 1]
    for j, bound in enumerate(a.col_bounds):
        for i, P in enumerate(a.moduli):
            f = a.residues[i][j]
            if j > 0:
                f = f - poly_mod(a.residues[i][j - 1].shift(a.col_bounds[j - 1]), P)
            v[mu + j, :, row_offsets[i] : row_offsets[i + 1]] = f.coeffs(P.deg)
        w[mu + j, 0, col_starts[j]] = 1
    return GeneratorPair(TAG_TOEPLITZ, M, N, v, w, ctx)
