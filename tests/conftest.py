"""Hypothesis profiles.  The "ci" profile draws 1,000 examples per property
test where the default draws 100, so CI searches the n-gram kernels' edge
cases harder than a local run; HYPOTHESIS_PROFILE=ci selects it."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
