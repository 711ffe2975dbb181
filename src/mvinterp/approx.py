"""Simultaneous modular approximation problems (the linear-algebra target).

An ApproxInstance asks for polynomials q_0..q_{nu-1}, not all zero, with
deg q_j < col_bounds[j], satisfying sum_j residues[i][j] * q_j = 0 modulo
moduli[i] for every row i.  This is the shape every interpolation pipeline
reduces to and the shape both structured solvers consume.

trim_instance normalizes the unknown count to total_rows + 1 (dropping
trailing unknowns, which can always be set to zero without changing
solvability), and verify_approx is the oracle every solver re-checks its
candidates against.
"""

from __future__ import annotations

import numpy as np

from .errors import BadLength, CtxMismatch, Degenerate
from .field import FieldCtx, residues
from .poly import Poly, quotients


class ApproxInstance:
    """moduli: monic Polys P_i of degree >= 1; rows[i]: the (nu, d, deg P_i)
    array of row i's residues, `residues` the same as Polys, built on first
    use; col_bounds: N'_j >= 1.  The constructor checks Polys, from_rows
    takes a builder's arrays."""

    __slots__ = ("ctx", "moduli", "rows", "col_bounds", "_residues")

    def __init__(self, ctx: FieldCtx, moduli, residues, col_bounds):
        moduli = tuple(moduli)
        residues = tuple(tuple(row) for row in residues)
        col_bounds = tuple(int(b) for b in col_bounds)
        if not moduli or not col_bounds:
            raise Degenerate("need at least one row and one unknown")
        if len(residues) != len(moduli):
            raise BadLength(f"{len(residues)} residue rows vs {len(moduli)} moduli")
        for i, p in enumerate(moduli):
            if p.ctx != ctx:
                raise CtxMismatch("modulus in a different field")
            if p.deg < 1 or p.lead() != ctx.one():
                raise Degenerate(f"modulus {i} must be monic of degree >= 1")
            if len(residues[i]) != len(col_bounds):
                raise BadLength(f"row {i} has {len(residues[i])} residues, expected {len(col_bounds)}")
            for f in residues[i]:
                if f.ctx != ctx:
                    raise CtxMismatch("residue in a different field")
                if f.deg >= p.deg:
                    raise Degenerate(f"residue degree {f.deg} not below modulus degree {p.deg}")
        for b in col_bounds:
            if b < 1:
                raise Degenerate("unknown degree bounds must be >= 1")
        rows = [np.stack([f.coeffs(p.deg) for f in row]) for p, row in zip(moduli, residues)]
        self.ctx, self.moduli, self.rows, self.col_bounds = ctx, moduli, tuple(rows), col_bounds
        self._residues = residues

    @classmethod
    def from_rows(cls, ctx: FieldCtx, moduli, rows, col_bounds) -> "ApproxInstance":
        """The instance of reduced (nu, d, deg P_i) row arrays, unchecked."""
        a = object.__new__(cls)
        a.ctx, a.moduli, a.rows, a.col_bounds = ctx, tuple(moduli), tuple(rows), tuple(col_bounds)
        a._residues = None
        return a

    @property
    def residues(self) -> tuple:
        if self._residues is None:
            self._residues = tuple(
                tuple(Poly.from_residues(self.ctx, f) for f in F) for F in self.rows
            )
        return self._residues

    def blocks(self):
        """(P, F) per run of consecutive rows with one modulus object (a
        builder's rows of one derivative depth): F stacks their arrays as
        (rows, nu, d, deg P)."""
        lo = 0
        for hi in range(1, self.mu + 1):
            if hi == self.mu or self.moduli[hi] is not self.moduli[lo]:
                yield self.moduli[lo], np.stack(self.rows[lo:hi])
                lo = hi

    @property
    def mu(self) -> int:
        return len(self.moduli)

    @property
    def nu(self) -> int:
        return len(self.col_bounds)

    @property
    def row_bounds(self) -> tuple:
        return tuple(p.deg for p in self.moduli)

    @property
    def total_rows(self) -> int:
        return sum(p.deg for p in self.moduli)

    @property
    def total_cols(self) -> int:
        return sum(self.col_bounds)


def trim_instance(a: ApproxInstance):
    """Normalize to total_cols <= total_rows + 1 by shrinking from the right.

    Returns (a', dropped): `dropped` whole trailing unknowns were removed and
    the last kept unknown's bound shrank to a'.col_bounds[-1].  Solutions of
    a' become solutions of a by appending `dropped` zero polynomials.
    """
    target = a.total_rows + 1
    if target < 1:
        raise Degenerate("impossible row total")
    if a.total_cols <= target:
        return a, 0
    bounds = []
    acc = 0
    for b in a.col_bounds:
        if acc + b >= target:
            bounds.append(target - acc)
            break
        bounds.append(b)
        acc += b
    kept = len(bounds)
    trimmed = ApproxInstance.from_rows(a.ctx, a.moduli, [F[:kept] for F in a.rows], bounds)
    return trimmed, a.nu - kept


def lift_trimmed(a: ApproxInstance, qs, dropped: int):
    """Extend a trimmed solution back to the untrimmed unknown count."""
    return list(qs) + [Poly.zero(a.ctx)] * dropped


def unpack_solution(ctx, vec, bounds):
    """Split a (d, n) residue vector into polynomials, low-to-high per block."""
    bounds = tuple(bounds)
    if vec.shape[1] != sum(bounds):
        raise BadLength(f"vector of length {vec.shape[1]} for bounds summing {sum(bounds)}")
    qs = []
    pos = 0
    for b in bounds:
        qs.append(Poly.from_residues(ctx, vec[:, pos : pos + b]))
        pos += b
    return tuple(qs)


def verify_approx(a: ApproxInstance, qs) -> bool:
    """Check conditions: some q_j nonzero, degree bounds, modular identities:
    per run of rows with one modulus P, the sums sum_j F_ij q_j as one
    stacked product, each equal to P times its quotient."""
    if len(qs) != a.nu:
        raise BadLength(f"{len(qs)} polynomials for {a.nu} unknowns")
    if all(q.is_zero() for q in qs):
        return False
    for q, bound in zip(qs, a.col_bounds):
        if q.deg >= bound:
            return False
    R = residues(a.ctx)
    Q = np.stack([q.coeffs(max(a.col_bounds)) for q in qs])
    for P, F in a.blocks():
        acc = R.conv_sum(F.swapaxes(0, 1), Q[:, None])
        if acc.shape[-1] > P.deg:
            acc = (acc - R.conv(quotients(acc, P), P.a)) % R.p
        if acc.any():
            return False
    return True
