"""Toeplitz-like linearization via companion-matrix action.

The defining linear map of an instance sends the coefficient vector of
(q_0..q_{nu-1}) to the stacked coefficients of sum_j F_{i,j} q_j mod P_i.
Its matrix has (i,j) block with columns X^v F_{i,j} mod P_i — successive
companion-matrix actions on the residue — which makes A' - Z A' Z^T of
rank at most mu+nu: shifting a column right and down differs from the next
companion action only through the reduction term (a multiple of P_i's
coefficient vector scaled by the outgoing top coefficient) plus block
boundary corrections.  The top-coefficient sequences are computed fast as
power-series quotients (last_coeff_sequence), never by materializing the
blocks.
"""

from __future__ import annotations

import numpy as np

from .approx import ApproxInstance
from .backend import DENSE_GUARD_CELLS, solve_with_builder, solve_with_dense_matrix
from .errors import BadLength, TooLarge
from .poly import Poly, poly_mod, reverse, series_inv, trunc
from .struct_solve import TAG_TOEPLITZ, GeneratorPair


def last_coeff_sequence(P: Poly, F: Poly, count: int):
    """c_i = top coefficient (degree m-1) of X^i * F mod P, for i < count.

    The top coefficients of X^i mod P satisfy the m-term recurrence of
    monic P, so their generating function is X^(m-1) / rev(P); correlating
    it with F's coefficients gives the c_i as the first count terms of
    rev(F) / rev(P).  One series inverse and one product overall instead of
    count modular multiplications.
    """
    m = P.deg
    if m < 1 or P.lead() != P.ctx.one():
        raise BadLength("modulus must be monic of degree >= 1")
    if count < 1:
        return ()
    if F.deg >= m:
        raise BadLength("residue degree must stay below the modulus degree")
    s = _tops(P, F, series_inv(reverse(P, m), count), count)
    return tuple(s.coeff(i) for i in range(count))


def _tops(P: Poly, F: Poly, rev_inv: Poly, count: int) -> Poly:
    """The first count terms of rev(F) / rev(P), the top coefficients of
    X^i * F mod P, from an inverse of rev(P) to at least count terms."""
    return trunc(reverse(F, P.deg - 1) * trunc(rev_inv, count), count)


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
    for i, P in enumerate(a.moduli):
        r0, m = row_offsets[i], P.deg
        v[i, :, r0 : r0 + m] = -P.coeffs(m) % p
        if i + 1 < mu:
            v[i, 0, r0 + m] = p - 1
        rev_inv = series_inv(reverse(P, m), max(a.col_bounds))
        tops = [_tops(P, f, rev_inv, b).coeffs(b) for f, b in zip(a.residues[i], a.col_bounds)]
        w[i, :, 1:] = np.concatenate(tops, axis=1)[:, : N - 1]
    for j, bound in enumerate(a.col_bounds):
        for i, P in enumerate(a.moduli):
            f = a.residues[i][j]
            if j > 0:
                f = f - poly_mod(a.residues[i][j - 1].shift(a.col_bounds[j - 1]), P)
            v[mu + j, :, row_offsets[i] : row_offsets[i + 1]] = f.coeffs(P.deg)
        w[mu + j, 0, col_starts[j]] = 1
    return GeneratorPair(TAG_TOEPLITZ, M, N, v, w, ctx)


def solve_via_toeplitz(a: ApproxInstance, rng, max_retries: int = 8):
    """Solve an instance through the Toeplitz-like route (Las Vegas)."""
    return solve_with_builder(a, rng, build_toeplitz_generators, max_retries=max_retries)


def solve_via_dense(a: ApproxInstance, rng=None, max_retries: int = 0):
    """Deterministic cubic baseline on the dense defining matrix.

    rng and max_retries are accepted (and ignored) so the three backends
    share a call shape.
    """
    return solve_with_dense_matrix(a, dense_build_Aprime)
