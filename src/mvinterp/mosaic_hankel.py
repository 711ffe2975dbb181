"""Mosaic-Hankel linearization of a simultaneous approximation instance.

Row block i of the instance contributes deg(P_i) linear conditions saying
that sum_j (F_{i,j}/P_i) * q_j has no negative part in its expansion at
infinity.  Writing s^{i,j} for the power-series coefficients of
rev(F)/rev(P) — exactly the Markov parameters of F/P — the conditions are

    sum_j sum_v s^{i,j}_{u+v} * q_{j,v} = 0     for u < deg(P_i),

so the matrix acting on the plainly concatenated coefficient vector is a
mosaic of Hankel blocks [s_{u+v}].  Its displacement A - Z A Z has rank at
most mu+nu with an explicit generator read off the series sections, which
is what the structured solver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import ApproxInstance
from .backend import solve_with_builder
from .poly import Poly, reverse, series_inv, trunc
from .struct_solve import TAG_HANKEL, GeneratorPair


@dataclass(frozen=True)
class EkeLayout:
    """Index bookkeeping for the reversed-series view of an instance."""

    beta: int  # max column bound
    deltas: tuple  # per row block: series precision deg(P_i) + beta - 1
    gammas: tuple  # per column: beta - N'_j leading zeros in the shifted series
    row_offsets: tuple  # first matrix row of each block
    col_offsets: tuple  # last matrix column of each block


def layout_for(a: ApproxInstance) -> EkeLayout:
    beta = max(a.col_bounds)
    deltas = tuple(m + beta - 1 for m in a.row_bounds)
    gammas = tuple(beta - n for n in a.col_bounds)
    row_offsets = []
    acc = 0
    for m in a.row_bounds:
        row_offsets.append(acc)
        acc += m
    col_offsets = []
    acc = 0
    for n in a.col_bounds:
        acc += n
        col_offsets.append(acc - 1)
    return EkeLayout(beta, deltas, tuple(gammas), tuple(row_offsets), tuple(col_offsets))


def compute_s_star(a: ApproxInstance):
    """Per block (i,j): the series rev(F_{i,j})/rev(P_i) truncated to
    deg(P_i) + N'_j - 1 terms (all the entries the Hankel block needs)."""
    layout = layout_for(a)
    out = []
    for i, p in enumerate(a.moduli):
        m = p.deg
        p_rev = reverse(p, m)
        inv = series_inv(p_rev, layout.deltas[i])
        row = []
        for j, f in enumerate(a.residues[i]):
            f_rev = reverse(f, m - 1)
            row.append(trunc(f_rev * inv, m + a.col_bounds[j] - 1))
        out.append(tuple(row))
    return tuple(out)


def build_hankel_generators(a: ApproxInstance):
    """Length-(mu+nu) generator with V·W = A - Z A Z, plus the layout.

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
    layout = layout_for(a)
    v = np.zeros((mu + nu, a.ctx.d, a.total_rows), s[0][0].dtype)
    w = np.zeros((mu + nu, a.ctx.d, a.total_cols), s[0][0].dtype)
    # one pair per column block: the last-column profile against a unit row
    for j, nj in enumerate(njs):
        for i, (mi, r0) in enumerate(zip(mis, layout.row_offsets)):
            col = s[i][j][:, nj : nj + mi - 1]
            if j + 1 < nu:
                col = col - s[i][j + 1][:, : mi - 1]
            v[j, :, r0 + 1 : r0 + mi] = col % p
        w[j, 0, layout.col_offsets[j]] = 1
    # one pair per row block: a unit column against the first-row profile
    for i, r0 in enumerate(layout.row_offsets):
        v[nu + i, 0, r0] = 1
        for j, (nj, c1) in enumerate(zip(njs, layout.col_offsets)):
            row = s[i][j][:, :nj].copy()
            if i > 0:
                mp = mis[i - 1]
                row[:, :-1] -= s[i - 1][j][:, mp : mp + nj - 1]
                if j + 1 < nu:
                    row[:, -1] -= s[i - 1][j + 1][:, mp - 1]
            w[nu + i, :, c1 - nj + 1 : c1 + 1] = row % p
    G = GeneratorPair(TAG_HANKEL, a.total_rows, a.total_cols, v, w, a.ctx)
    return G, layout


def solve_via_hankel(a: ApproxInstance, rng, max_retries: int = 8):
    """Solve an instance through the mosaic-Hankel route (Las Vegas)."""
    return solve_with_builder(
        a, rng, lambda t: build_hankel_generators(t)[0], max_retries=max_retries
    )
