"""Hypothesis profiles.  ``pytest --hypothesis-profile=ci`` runs each property
that sets no example count of its own on 1,000 examples, in a fixed order."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)
