"""Toeplitz-like linearization on stacked residues.

The defining linear map of an instance sends the coefficient vector of
(q_0..q_{nu-1}) to the stacked coefficients of sum_j F_{i,j} q_j mod P_i.
Its matrix has (i,j) block with columns X^v F_{i,j} mod P_i, which makes
A' - Z A' Z^T of rank at most mu+nu: shifting a column right and down
differs from the next one only through the reduction term (a multiple of
P_i's coefficient vector scaled by the outgoing top coefficient) plus block
boundary corrections.  The top coefficients of X^v F_{i,j} mod P_i are the
first N'_j terms of the Markov series rev(F_{i,j})/rev(P_i), read off
mosaic_hankel.compute_s_star; the shifted residues the builders need are
one stacked remainder per run of rows sharing a modulus (_shifted_mod).
"""

from __future__ import annotations

import numpy as np

from .approx import ApproxInstance
from .errors import TooLarge
from .field import residues
from .mosaic_hankel import compute_s_star
from .poly import remainders
from .struct_solve import TAG_TOEPLITZ, GeneratorPair

DENSE_GUARD_CELLS = 1 << 20  # largest matrix either linearization builds densely


def _shifted_mod(P, F: np.ndarray, shifts) -> np.ndarray:
    """X^shifts[k] F[..., k, :, :] mod P of the (..., K, d, deg P) residue
    stack F, as one stacked remainder."""
    m = P.deg
    x = np.zeros(F.shape[:-1] + (m + max(shifts, default=0),), F.dtype)
    for k, s in enumerate(shifts):
        x[..., k, :, s : s + m] = F[..., k, :, :]
    return remainders(x, P)


def dense_build_Aprime(a: ApproxInstance):
    """The matrix of the defining map itself (oracle / dense baseline)."""
    M, N = a.total_rows, a.total_cols
    if M * N > DENSE_GUARD_CELLS:
        raise TooLarge(f"{M}x{N} dense matrix exceeds the guard")
    R, beta = residues(a.ctx), max(a.col_bounds)
    block = np.repeat(np.arange(a.nu), a.col_bounds)  # column c of A' is X^offset[c] F_i,block[c]
    offset = np.arange(N) - np.cumsum((0,) + a.col_bounds)[block]
    A = np.zeros((a.ctx.d, M, N), R.dtype)
    r0 = 0
    for P, F in a.blocks():
        rows, nu, d, m = F.shape
        F = np.broadcast_to(F[:, :, None], (rows, nu, beta, d, m))
        cols = _shifted_mod(P, F, range(beta)).transpose(3, 0, 4, 1, 2)  # (d, rows, m, nu, beta)
        A[:, r0 : r0 + rows * m] = cols.reshape(d, rows * m, nu, beta)[:, :, block, offset]
        r0 += rows * m
    return [R.elements(row) for row in A.swapaxes(0, 1)]


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
    r0 = 0
    for P, F in a.blocks():
        rows, m = len(F), P.deg
        F = F.copy()
        F[:, 1:] = (F[:, 1:] - _shifted_mod(P, F[:, :-1], a.col_bounds[:-1])) % p
        v[mu:, :, r0 : r0 + rows * m] = F.transpose(1, 2, 0, 3).reshape(nu, ctx.d, rows * m)
        r0 += rows * m
    w[mu + np.arange(nu), 0, col_starts[:-1]] = 1
    return GeneratorPair(TAG_TOEPLITZ, M, N, v, w, ctx)
