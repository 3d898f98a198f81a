"""Shared test configuration: one deterministic hypothesis profile.

Property tests draw their examples from a fixed seed and carry no
per-example deadline, so a slow or busy machine cannot turn them into
flaky failures.
"""

from hypothesis import settings

settings.register_profile("hkt4", derandomize=True, deadline=None)
settings.load_profile("hkt4")
