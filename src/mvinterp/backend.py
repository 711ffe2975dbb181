"""Shared driving logic turning an ApproxInstance into a solver outcome.

Both structured routes differ only in how they linearize the instance into
a displacement generator; everything around that — trimming, the Hankel
flip, unpacking the nullspace vector into polynomials, lifting trimmed
unknowns back, and the final verification — is identical and lives here.
The deterministic dense route shares the same skeleton with a dense matrix
builder and plain echelon elimination in place of the structured solver.
"""

from __future__ import annotations

from .approx import ApproxInstance, lift_trimmed, trim_instance, unpack_solution, verify_approx
from .errors import MvInterpError
from .linalg import kernel_vector_echelon
from .outcomes import NoSolution, Solution
from .struct_solve import TAG_HANKEL, hankel_to_toeplitz, nullspace_structured

DENSE_GUARD_CELLS = 1 << 20  # largest matrix either linearization builds densely


def _finish(a: ApproxInstance, trimmed: ApproxInstance, dropped: int, vec):
    qs = unpack_solution(trimmed.ctx, vec, trimmed.col_bounds)
    qs = tuple(lift_trimmed(a, qs, dropped))
    if not verify_approx(a, qs):
        raise MvInterpError("internal error: certified candidate failed verification")
    return Solution(qs)


def solve_with_builder(a: ApproxInstance, rng, build, *, max_retries: int = 8):
    """Trim, linearize through `build` (returns a GeneratorPair of either
    tag), solve structurally, and map the vector back to polynomials.

    Over a field below the kernel's sampling-set floor the kernel samples
    the whole field, and over a prime field lifts its Failure to an
    extension itself, so its outcome is always in the instance's field.
    """
    trimmed, dropped, _ = trim_instance(a)
    G = build(trimmed)
    flipped = G.tag == TAG_HANKEL
    if flipped:
        G = hankel_to_toeplitz(G)
    out = nullspace_structured(G, rng, max_retries)
    if not isinstance(out, Solution):
        return out
    vec = list(reversed(out.value)) if flipped else list(out.value)
    return _finish(a, trimmed, dropped, vec)


def solve_with_dense_matrix(a: ApproxInstance, build_dense):
    """Deterministic baseline: dense linearization plus echelon elimination."""
    trimmed, dropped, _ = trim_instance(a)
    rows = build_dense(trimmed)
    vec = kernel_vector_echelon(trimmed.ctx, rows, trimmed.total_cols)
    if vec is None:
        return NoSolution("dense rank equals the unknown count")
    return _finish(a, trimmed, dropped, vec)
