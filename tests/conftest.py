import os

from hypothesis import settings

# Tests that leave max_examples to the profile, among them the differential
# tests of the normal-form arithmetic, run ten times as many examples under
# HYPOTHESIS_PROFILE=ci, which CI selects. Locally the default stays.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
