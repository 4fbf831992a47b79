"""Empty: the tag's bin shift, ``tag_shift``, lives in ``waveform``.

``srbcbench/tracer.py`` imports every module in its ``LAYERS``, so
this file stays until the benchmark's next change deletes it.
"""
