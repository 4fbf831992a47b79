"""Empty: no law integrates numerically any more.

``srbcbench/tracer.py`` imports every module in its ``LAYERS``, so
this file stays until the benchmark's next change deletes it.
"""
