"""Hypothesis profiles.

``mutants`` leaves out the explain phase, which reruns every shrunk failing example
under a line tracer to report the lines it reached; ``tests/mutants.py`` only needs
to know that a test fails, and selects it with ``--hypothesis-profile=mutants``.
Plain pytest runs keep hypothesis's default profile.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.explain])
