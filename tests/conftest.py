"""Hypothesis profiles for the test suite.

``ci`` derandomizes every property test, so a failure repeats on every run
of the same tree: ``pytest --hypothesis-profile=ci``.  Without the option the
default profile draws fresh examples each run.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
