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

from dataclasses import dataclass, field

from .errors import BadLength, CtxMismatch, Degenerate
from .field import FieldCtx
from .poly import Poly, poly_mod


@dataclass(frozen=True)
class ApproxInstance:
    ctx: FieldCtx
    moduli: tuple  # P_i: monic Poly, degree >= 1, one per row
    residues: tuple  # mu x nu tuple of tuples of Poly, deg < deg(moduli[i])
    col_bounds: tuple  # N'_j >= 1, one per unknown

    def __init__(self, ctx, moduli, residues, col_bounds):
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
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "col_bounds", col_bounds)

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

    Returns (a', dropped, last_bound): `dropped` whole trailing unknowns were
    removed and the last kept unknown's bound became `last_bound`.  Solutions
    of a' become solutions of a by appending `dropped` zero polynomials.
    """
    target = a.total_rows + 1
    if target < 1:
        raise Degenerate("impossible row total")
    if a.total_cols <= target:
        return a, 0, a.col_bounds[-1]
    bounds = []
    acc = 0
    for b in a.col_bounds:
        if acc + b >= target:
            bounds.append(target - acc)
            break
        bounds.append(b)
        acc += b
    kept = len(bounds)
    trimmed = ApproxInstance(
        a.ctx,
        a.moduli,
        tuple(row[:kept] for row in a.residues),
        bounds,
    )
    return trimmed, a.nu - kept, bounds[-1]


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
    """Check conditions: some q_j nonzero, degree bounds, modular identities."""
    if len(qs) != a.nu:
        raise BadLength(f"{len(qs)} polynomials for {a.nu} unknowns")
    if all(q.is_zero() for q in qs):
        return False
    for q, bound in zip(qs, a.col_bounds):
        if q.deg >= bound:
            return False
    for p, row in zip(a.moduli, a.residues):
        acc = Poly.zero(a.ctx)
        for f, q in zip(row, qs):
            if not (f.is_zero() or q.is_zero()):
                acc = acc + f * q
        if not poly_mod(acc, p).is_zero():
            return False
    return True
