"""Hypothesis runs derandomized, without an example database and without a
per-example deadline, so the property tests draw the same examples on every
run and do not fail on a slow or shared machine."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
