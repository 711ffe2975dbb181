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
from .poly import reverse, series_inv, trunc
from .struct_solve import TAG_HANKEL, GeneratorPair


def compute_s_star(a: ApproxInstance):
    """Per block (i,j): the series rev(F_{i,j})/rev(P_i) truncated to
    deg(P_i) + N'_j - 1 terms (all the entries the Hankel block needs; its
    first N'_j terms are the Toeplitz builder's top-coefficient rows)."""
    beta = max(a.col_bounds)
    invs = [series_inv(reverse(p, p.deg), p.deg + beta - 1) for p in a.moduli]
    return tuple(
        tuple(trunc(reverse(f, p.deg - 1) * inv, p.deg + nj - 1) for f, nj in zip(fs, a.col_bounds))
        for p, fs, inv in zip(a.moduli, a.residues, invs)
    )


def build_hankel_generators(a: ApproxInstance) -> GeneratorPair:
    """Length-(mu+nu) generator with V·W = A - Z A Z.

    The displacement is supported on the first row of every row block and
    the last column of every column block; everything else telescopes away
    along the Hankel antidiagonals.  Both halves are written as stacked
    residue arrays straight from the series sections.
    """
    p, mu, nu = a.ctx.p, a.mu, a.nu
    mis, njs = a.row_bounds, a.col_bounds
    s = [
        [f.coeffs(mi + nj - 1) for f, nj in zip(row, njs)]
        for row, mi in zip(compute_s_star(a), mis)
    ]
    row_starts = np.cumsum((0,) + mis[:-1])
    col_ends = np.cumsum(njs) - 1
    v = np.zeros((mu + nu, a.ctx.d, a.total_rows), s[0][0].dtype)
    w = np.zeros((mu + nu, a.ctx.d, a.total_cols), s[0][0].dtype)
    # one pair per column block: the last-column profile against a unit row
    for j, nj in enumerate(njs):
        for i, (mi, r0) in enumerate(zip(mis, row_starts)):
            col = s[i][j][:, nj : nj + mi - 1]
            if j + 1 < nu:
                col = col - s[i][j + 1][:, : mi - 1]
            v[j, :, r0 + 1 : r0 + mi] = col % p
        w[j, 0, col_ends[j]] = 1
    # one pair per row block: a unit column against the first-row profile
    for i, r0 in enumerate(row_starts):
        v[nu + i, 0, r0] = 1
        for j, (nj, c1) in enumerate(zip(njs, col_ends)):
            row = s[i][j][:, :nj].copy()
            if i > 0:
                mp = mis[i - 1]
                row[:, :-1] -= s[i - 1][j][:, mp : mp + nj - 1]
                if j + 1 < nu:
                    row[:, -1] -= s[i - 1][j + 1][:, mp - 1]
            w[nu + i, :, c1 - nj + 1 : c1 + 1] = row % p
    return GeneratorPair(TAG_HANKEL, a.total_rows, a.total_cols, v, w, a.ctx)
