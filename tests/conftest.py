"""Shared test settings: one hypothesis profile for every property test.

Kernel and quadrature examples take uneven time, so no per-example
deadline applies, and no example database is kept between runs.
"""
from hypothesis import settings

settings.register_profile("srbc", deadline=None, database=None)
settings.load_profile("srbc")
