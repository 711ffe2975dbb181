"""Seeded workload definitions for the end-to-end benchmark.

Every instance is first drawn as a plain-int spec (primes, coordinates,
bounds) from a `random.Random` seeded by the workload name and the run seed,
so the same seed gives the same inputs on every version of the library.
Specs become library objects only right before their solve, outside the
clock; the library never sees the seed.

Why each workload exists, and the layer it is meant to load:

- gs_wide: `interpolate_instance` on m=1, l=2, k=n/4, n=256 over the 24-bit
  prime, the shape `mvinterp bench` times.  Reduction (`build_reduction`,
  `lagrange_interp`) and `verify_solution` dominate, the kernel is about a
  quarter.  Reduction and verifier work shows here, kernel work only a little.
- gs_deep: the same pipeline at n=64, m=3, l=6: a 384x385 system with
  displacement rank 10.  The structured kernel (`nullspace_structured`)
  dominates and the reduction is small.  Neither gs workload ever lifts the
  field, so lift-path changes should move neither.
- small_field: multivariate instances over F_13 and F_101 in seven fixed
  shapes from the acceptance suite's criterion-01 generator; the seed draws
  their points.  Each is too big for the dense shortcut and for the base
  field's sampling set, so it lifts to F_{p^d} and the kernel runs on the
  extension-field vector path; build_extension, lift_instance and
  project_solution_to_base are exercised here only.  Verdicts are mixed.
- decoders: reencode_interpolate, wu_interpolate (n/4 points at infinity)
  and soft_interpolate (each x twice) in equal numbers, n=64, m=2, l=3.  They
  use their own reduction builders (reencode_build, wu_build, soft_reduce)
  and stacked generators, so a merge of those builders has to show here.

F_65537 lifts (~11 s each) and GF(2^8) (every structured solve fails with
FieldTooSmall today) are left out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORD_PRIME = 16777213  # the prime `mvinterp bench` uses; no lift below n=512


@dataclass(frozen=True)
class Spec:
    """One instance as plain ints.

    kind: "gs", "reencode", "wu", "soft" or "multi" (small-field).
    points: ((x, (y_1..y_s)), ...); y is None for a wu point at infinity.
    expect_solution: the verdict the independent oracle predicts.
    """

    kind: str
    p: int
    ell: int
    b: int
    weights: tuple
    points: tuple
    mults: tuple
    n0: int = 0
    expect_solution: bool = True


def auto_b(n: int, m: int, ell: int, k: int) -> int:
    """Smallest weighted-degree bound that leaves the univariate system
    underdetermined, so every such instance has a solution."""
    rows = n * m * (m + 1) // 2
    b = max(1, ell * k + 1)
    while (ell + 1) * b - k * ell * (ell + 1) // 2 <= rows:
        b += 1
    return b


# ------------------------------------------------------------ gs workloads


def _gs_spec(rng, n, m, ell):
    k = n // 4
    xs = rng.sample(range(WORD_PRIME), n)
    pts = tuple((x, (rng.randrange(WORD_PRIME),)) for x in xs)
    return Spec("gs", WORD_PRIME, ell, auto_b(n, m, ell, k), (k,), pts, (m,) * n)


def gs_wide(rng, i):
    return _gs_spec(rng, 256, 1, 2)


def gs_deep(rng, i):
    return _gs_spec(rng, 64, 3, 6)


# ------------------------------------------------------------ decoders


def decoders(rng, i):
    n, m, ell = 64, 2, 3
    k = n // 4
    b = auto_b(n, m, ell, k)
    p = WORD_PRIME
    kind = ("reencode", "wu", "soft")[i % 3]
    if kind == "soft":
        # every x twice: two candidate symbols per position, so the grouping
        # (and the cost) is the same for every seed
        xs = rng.sample(range(p), n // 2) * 2
        rng.shuffle(xs)
        pts = tuple((x, (rng.randrange(p),)) for x in xs)
        return Spec(kind, p, ell, b, (k,), pts, (m,) * n)
    xs = rng.sample(range(p), n)
    if kind == "reencode":
        n0 = max(k + 1, (n + 1) // 2)
        pts = tuple((x, (0 if r < n0 else rng.randint(1, p - 1),)) for r, x in enumerate(xs))
        return Spec(kind, p, ell, b, (k,), pts, (m,) * n, n0=n0)
    n_inf = n // 4
    pts = tuple(
        (x, (None,) if r >= n - n_inf else (rng.randrange(p),)) for r, x in enumerate(xs)
    )
    return Spec(kind, p, ell, b, (k,), pts, (m,) * n)


# ------------------------------------------------------------ small field


# (p, s, l, b, weights, mults) drawn from the criterion-01 generator with
# padded kernel size 17..30 (these seven: 22..30), every one too large for
# the dense shortcut and for the base field's sampling set.  Of 36 draws,
# these took 0.4-0.55 s per solve on a 2-vCPU Xeon; with equal costs the
# run's median and tail rest on every sample, not on the few of one shape.
# Sizes 31..40 put a single solve near 2 s and leave too few samples a run.
SMALL_FIELD_SHAPES = (
    (13, 1, 4, 10, (1,), (3, 3, 3, 2)),
    (101, 2, 2, 12, (0, 2), (2, 2, 1, 3, 2, 2, 1, 1, 1)),
    (13, 1, 3, 7, (2,), (3, 2, 1, 3, 3)),
    (101, 2, 3, 14, (3, 3), (2, 1, 1, 3, 3)),
    (13, 2, 4, 14, (2, 0), (1, 1, 3, 1, 3, 2)),
    (101, 1, 4, 19, (3,), (3, 3, 2, 3, 1, 2, 2, 1)),
    (13, 1, 2, 9, (1,), (2, 2, 2, 3, 2, 2, 3, 3, 2)),
)


def small_field(rng, i):
    """Shape i mod 7, with distinct x and uniform y drawn from `rng`."""
    p, s, ell, b, weights, mults = SMALL_FIELD_SHAPES[i % len(SMALL_FIELD_SHAPES)]
    xs = rng.sample(range(p), len(mults))
    pts = tuple((x, tuple(rng.randrange(p) for _ in range(s))) for x in xs)
    return Spec("multi", p, ell, b, weights, pts, mults)


GENERATORS = {
    "gs_wide": gs_wide,
    "gs_deep": gs_deep,
    "small_field": small_field,
    "decoders": decoders,
}
# instances per cycle: a run stops only between cycles, so every run
# solves each shape or pipeline equally often
CYCLE = {"gs_wide": 1, "gs_deep": 1, "small_field": len(SMALL_FIELD_SHAPES), "decoders": 3}


def draw(workload: str, seed, count: int):
    """`count` specs for one workload; instance i depends only on
    (workload, seed, i)."""
    gen = GENERATORS[workload]
    return [gen(random.Random(f"{workload}:{seed}:{i}"), i) for i in range(count)]
