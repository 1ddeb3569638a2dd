"""Test-wide settings: hypothesis runs a fixed, bounded set of examples, so
the suite is deterministic from run to run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("deterministic")
