"""Empty: the tag and primary decision rules live in ``harness``.

``srbcbench/tracer.py`` imports every module in its ``LAYERS``, so
this file stays until the benchmark's next change deletes it.
"""
