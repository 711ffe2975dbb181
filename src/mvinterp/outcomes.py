"""Solver outcome values shared by the structured solvers and the pipelines.

A solve returns Solution (with its payload: a coefficient vector, a tuple of
polynomials, or a multivariate polynomial depending on the layer), NoSolution
(certified — the nullspace is trivial or the search space is empty), or
Failure (the randomized solver exhausted its retries without a verified
candidate).  NotApplicable is the fourth verdict used only by special-case
shortcuts that may decline an instance.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Solution:
    value: object

    def __bool__(self):
        return True


@dataclass(frozen=True)
class NoSolution:
    reason: str = ""

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Failure:
    # preconditionings of generator levels (a system level 0 eliminates
    # densely never fails); below the floor, pivotless levels
    attempts: int = 0

    def __bool__(self):
        return False


@dataclass(frozen=True)
class NotApplicable:
    def __bool__(self):
        return False
