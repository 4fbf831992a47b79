"""Shared test settings: the hypothesis profiles of every property test.

Kernel and exact-law examples take uneven time, so no per-example
deadline applies, and no example database is kept between runs.  The
default profile, "srbc", derandomizes: each property test draws the same
examples on every run, so two runs of one tree give one verdict.  The
"srbc-sweep" profile draws fresh examples, or those of
``--hypothesis-seed``, to search wider; select it with
``--hypothesis-profile=srbc-sweep``.
"""
from hypothesis import settings

settings.register_profile("srbc", deadline=None, database=None, derandomize=True)
settings.register_profile("srbc-sweep", deadline=None, database=None)
settings.load_profile("srbc")
