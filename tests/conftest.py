"""Test-wide settings.

Hypothesis draws the same examples on every run (``derandomize``), so a
property test passes or fails the same way each time, and has no
per-example deadline, since timing depends on the machine's load.
"""

from hypothesis import settings

settings.register_profile("mvrom", derandomize=True, deadline=None)
settings.load_profile("mvrom")
