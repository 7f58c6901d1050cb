"""Shared test configuration.

Property tests run under a derandomized Hypothesis profile: the examples
are derived from each test's source, so the suite draws the same inputs on
every run, and no example database is read or written.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
)
settings.load_profile("deterministic")
