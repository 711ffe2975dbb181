"""The one path from an ApproxInstance to a verified solver outcome.

Every backend trims the instance, linearizes it through its entry of
BUILDERS, solves, unpacks the (d, n) residue vector into polynomials,
appends the trimmed unknowns as zeros and re-checks the answer with
verify_approx.  The two structured routes differ only in the generator
they build; the structured kernel takes either tag.  The deterministic
dense route builds the defining matrix and eliminates it plainly.
"""

from __future__ import annotations

from . import mosaic_hankel, toeplitz_like
from .approx import ApproxInstance, lift_trimmed, trim_instance, unpack_solution, verify_approx
from .errors import Degenerate, MvInterpError
from .linalg import kernel_vector_echelon
from .outcomes import NoSolution, Solution
from .struct_solve import GeneratorPair, nullspace_structured

# backend name -> linearization of a trimmed instance: a GeneratorPair for
# the structured kernel, or the (M, d, N) dense matrix for echelon elimination.
# The builders are looked up on their modules at each call, so a wrapper set
# on the module attribute (perfbench's per-layer tracer) is the one called.
BUILDERS = {
    "hankel": lambda a: mosaic_hankel.build_hankel_generators(a),
    "toeplitz": lambda a: toeplitz_like.build_toeplitz_generators(a),
    "dense": lambda a: toeplitz_like.dense_build_Aprime(a),
}


def solve_built(a: ApproxInstance, built, rng, max_retries: int = 8):
    """Solve one of BUILDERS' outputs for instance a; a Solution holds the
    (d, total_cols) residue vector."""
    if isinstance(built, GeneratorPair):
        return nullspace_structured(built, rng, max_retries)
    vec = kernel_vector_echelon(a.ctx, built)
    if vec is None:
        return NoSolution("dense rank equals the unknown count")
    return Solution(vec)


def solve_approx(a: ApproxInstance, rng, backend: str = "hankel", *, max_retries: int = 8):
    """Trim, build, solve, unpack and verify, in the instance's own field.

    The structured kernel samples the whole of a field below its floor and
    lifts a Failure over a too-small prime field itself, so every outcome
    is already in the base field.
    """
    try:
        build = BUILDERS[backend]
    except KeyError:
        raise Degenerate(f"unknown backend {backend!r}") from None
    trimmed, dropped = trim_instance(a)
    out = solve_built(trimmed, build(trimmed), rng, max_retries)
    if not isinstance(out, Solution):
        return out
    qs = unpack_solution(a.ctx, out.value, trimmed.col_bounds)
    qs = tuple(lift_trimmed(a, qs, dropped))
    if not verify_approx(a, qs):
        raise MvInterpError("internal error: certified candidate failed verification")
    return Solution(qs)
