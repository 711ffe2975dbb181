"""Tier-1 runs the same property-test examples on every run: the hypothesis
profile below seeds each test's draws from the test itself (derandomize,
which also keeps no example database between runs)."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
