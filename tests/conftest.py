"""Hypothesis profiles for the property tests.

``tier1`` (loaded by default) replays the same 300 derandomized examples on
every run.  ``sweep`` draws 3,000 examples from a fresh random seed, so
repeated runs widen the coverage; select it with
``pytest --hypothesis-profile=sweep``.  A failing sweep example prints a
``@reproduce_failure`` blob, so a random-seed miss can be replayed.
"""

from hypothesis import settings

settings.register_profile("tier1", max_examples=300, deadline=None, derandomize=True)
settings.register_profile("sweep", max_examples=3000, deadline=None, print_blob=True)
settings.load_profile("tier1")
