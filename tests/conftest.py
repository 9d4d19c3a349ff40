"""Hypothesis draws the same examples on every run, so the suite is
deterministic; each test keeps its own example count."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
