"""Toeplitz-like linearization via companion-matrix action.

The defining linear map of an instance sends the coefficient vector of
(q_0..q_{nu-1}) to the stacked coefficients of sum_j F_{i,j} q_j mod P_i.
Its matrix has (i,j) block with columns X^v F_{i,j} mod P_i — successive
companion-matrix actions on the residue — which makes A' - Z A' Z^T of
rank at most mu+nu: shifting a column right and down differs from the next
companion action only through the reduction term (a multiple of P_i's
coefficient vector scaled by the outgoing top coefficient) plus block
boundary corrections.  The top-coefficient sequences are computed fast by
linear-recurrence extension (last_coeff_sequence), never by materializing
the blocks.
"""

from __future__ import annotations

from .approx import ApproxInstance
from .backend import DENSE_GUARD_CELLS, solve_with_builder, solve_with_dense_matrix
from .errors import BadLength, TooLarge
from .poly import Poly, extend_recurrence, poly_mod, reverse
from .struct_solve import TAG_TOEPLITZ, GeneratorPair


def last_coeff_sequence(P: Poly, F: Poly, count: int):
    """c_i = top coefficient (degree m-1) of X^i * F mod P, for i < count.

    Runs the m-term recurrence induced by monic P on the top-coefficient
    stream of X^i mod P and correlates it with F's coefficients; two
    polynomial products overall instead of count modular multiplications.
    """
    m = P.deg
    if m < 1 or P.lead() != P.ctx.one():
        raise BadLength("modulus must be monic of degree >= 1")
    if count < 1:
        return ()
    if F.deg >= m:
        raise BadLength("residue degree must stay below the modulus degree")
    ctx = P.ctx
    init = [ctx.zero()] * (m - 1) + [ctx.one()]
    bs = extend_recurrence(init, P, m + count - 1)
    prod = reverse(F, m - 1) * Poly(ctx, bs)
    return tuple(prod.coeff(m - 1 + i) for i in range(count))


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
    ctx = a.ctx
    z = ctx.zero()
    M, N = a.total_rows, a.total_cols
    mu, nu = a.mu, a.nu
    row_offsets = []
    acc = 0
    for m in a.row_bounds:
        row_offsets.append(acc)
        acc += m
    col_starts = []
    acc = 0
    for b in a.col_bounds:
        col_starts.append(acc)
        acc += b

    v_cols = []
    w_rows = []
    for i, p in enumerate(a.moduli):
        col = [z] * M
        r0 = row_offsets[i]
        for u in range(p.deg):
            col[r0 + u] = z - p.coeff(u)
        if i + 1 < mu:
            col[row_offsets[i + 1]] = z - ctx.one()
        tops = []
        for j, bound in enumerate(a.col_bounds):
            tops.extend(last_coeff_sequence(p, a.residues[i][j], bound))
        row = [z] + tops[: N - 1]
        v_cols.append(tuple(col))
        w_rows.append(tuple(row))
    for j, bound in enumerate(a.col_bounds):
        col = [z] * M
        for i, p in enumerate(a.moduli):
            r0 = row_offsets[i]
            f = a.residues[i][j]
            if j > 0:
                shifted_in = poly_mod(a.residues[i][j - 1].shift(a.col_bounds[j - 1]), p)
                f = f - shifted_in
            for u in range(p.deg):
                col[r0 + u] = f.coeff(u)
        row = [z] * N
        row[col_starts[j]] = ctx.one()
        v_cols.append(tuple(col))
        w_rows.append(tuple(row))
    return GeneratorPair(TAG_TOEPLITZ, M, N, tuple(v_cols), tuple(w_rows), ctx)


def solve_via_toeplitz(a: ApproxInstance, rng, max_retries: int = 8, **kw):
    """Solve an instance through the Toeplitz-like route (Las Vegas).

    FieldTooSmall propagates; callers may lift to an extension field.
    """
    return solve_with_builder(
        a, rng, build_toeplitz_generators, max_retries=max_retries, **kw
    )


def solve_via_dense(a: ApproxInstance, rng=None, max_retries: int = 0):
    """Deterministic cubic baseline on the dense defining matrix.

    rng and max_retries are accepted (and ignored) so the three backends
    share a call shape.
    """
    return solve_with_dense_matrix(a, dense_build_Aprime)
