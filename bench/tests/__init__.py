"""Harness tests: ``python -m pytest bench/tests -q`` (not part of tier-1)."""
