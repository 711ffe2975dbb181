"""Mosaic-Hankel linearization of a simultaneous approximation instance.

Row block i of the instance contributes deg(P_i) linear conditions saying
that sum_j (F_{i,j}/P_i) * q_j has no negative part in its expansion at
infinity.  Writing s^{i,j} for the power-series coefficients of
rev(F)/rev(P) — exactly the Markov parameters of F/P — the conditions are

    sum_j sum_v s^{i,j}_{u+v} * q_{j,v} = 0     for u < deg(P_i),

so the matrix acting on the plainly concatenated coefficient vector is a
mosaic of Hankel blocks [s_{u+v}].  Its displacement A - Z A Z has rank at
most mu+nu with an explicit generator read off the series sections, which
is what the structured solver consumes.  compute_s_star is the one place
the series are computed: the Toeplitz-like builder reads its top-coefficient
rows off the same sections.
"""

from __future__ import annotations

import numpy as np

from .approx import ApproxInstance
from .field import residues
from .struct_solve import TAG_HANKEL, GeneratorPair


def compute_s_star(a: ApproxInstance):
    """Per row i, the (nu, d, deg(P_i) + beta - 1) array of the series
    rev(F_{i,j})/rev(P_i) to that many terms, beta = max N'_j: every entry
    Hankel block (i, j) needs lies in its first deg(P_i) + N'_j - 1 terms,
    and its first N'_j terms are the Toeplitz builder's top-coefficient
    rows.  One product per run of rows sharing a modulus, with the inverse
    of its reversal the modulus keeps (Poly.rev_inverse)."""
    R, beta = residues(a.ctx), max(a.col_bounds)
    out = []
    for P, F in a.blocks():
        k = P.deg + beta - 1
        out.extend(R.conv(F[..., ::-1], P.rev_inverse(k), slice(0, k)))
    return tuple(out)


def build_hankel_generators(a: ApproxInstance) -> GeneratorPair:
    """Length-(mu+nu) generator with V·W = A - Z A Z.

    The displacement is supported on the first row of every row block and
    the last column of every column block; everything else telescopes away
    along the Hankel antidiagonals.  Both halves are written straight from
    the series sections, one gather per row block for all column blocks:
    pair j < nu is the last-column profile of column block j against a unit
    row, pair nu + i a unit column against row block i's first-row profile.
    """
    p, mu, nu = a.ctx.p, a.mu, a.nu
    mis, njs = a.row_bounds, np.array(a.col_bounds)
    s = compute_s_star(a)
    row_starts = np.cumsum((0,) + mis[:-1])
    col_ends = np.cumsum(njs) - 1
    block = np.repeat(np.arange(nu), njs)  # column c of A lies in block[c]
    offset = np.arange(a.total_cols) - (col_ends - njs + 1)[block]  # at offset[c] in it
    last = offset == njs[block] - 1
    v = np.zeros((mu + nu, a.ctx.d, a.total_rows), s[0].dtype)
    w = np.zeros((mu + nu, a.ctx.d, a.total_cols), s[0].dtype)
    v[nu + np.arange(mu), 0, row_starts] = 1
    w[np.arange(nu), 0, col_ends] = 1
    for i, (mi, r0) in enumerate(zip(mis, row_starts)):
        u = np.arange(mi - 1)
        col = np.take_along_axis(s[i], (njs[:, None] + u)[:, None, :], axis=2)
        col[:-1] -= s[i][1:, :, : mi - 1]
        v[:nu, :, r0 + 1 : r0 + mi] = col % p
        row = s[i][block, :, offset]  # (total_cols, d)
        if i > 0:
            # s[i-1] at mp + offset, but at mp - 1 of the next block in a block's last column
            mp = mis[i - 1]
            prev = s[i - 1][np.minimum(block + last, nu - 1), :, np.where(last, mp - 1, mp + offset)]
            prev[-1] = 0  # the last block has no next one
            row -= prev
        w[nu + i] = row.T % p
    return GeneratorPair(TAG_HANKEL, a.total_rows, a.total_cols, v, w, a.ctx)
