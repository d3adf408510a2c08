"""One hypothesis profile for the whole suite: examples are derived from
each test rather than drawn at random and no example database is kept,
so every run draws the same examples and a failure reproduces."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
