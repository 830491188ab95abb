"""Hypothesis profiles for tier-1.

Both profiles drop the per-example deadline: it limits time and checks
nothing about results, and on a loaded host a slow example made a test
fail and then keep failing from the stored example.  `ci` also runs
derandomized, so every run tests the same examples; CI selects it with
`--hypothesis-profile=ci`.
"""

from hypothesis import settings

settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("dev")
