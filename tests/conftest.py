"""Hypothesis draws the same examples on every run: a failure a draw finds
shows again on the next run of the same tree.  Each ``@settings`` in the
tests inherits this profile and sets only its own ``max_examples``."""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
