"""Test-suite settings shared by every module.

Hypothesis draws its examples from a fixed seed (``derandomize=True``), so
tier-1 runs the same cases every time and keeps no example database; no
test has a per-example deadline.  A test's own ``@settings`` inherit these
and set only ``max_examples``.
"""
from hypothesis import settings

settings.register_profile("v2lam", derandomize=True, deadline=None)
settings.load_profile("v2lam")
