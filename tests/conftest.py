"""Test-suite configuration.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite makes the same draws.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
