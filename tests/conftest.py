"""Test-suite settings.

One hypothesis profile: the examples are derived from each test itself, not
drawn at random, so every run checks the same cases, and no example
database is written to ``.hypothesis/``.
"""

from hypothesis import settings

settings.register_profile("cutoff-lab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("cutoff-lab")
