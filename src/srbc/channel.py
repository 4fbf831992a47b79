"""Empty: the SNR convention, ``noise_bin_variance``, lives in ``analysis``.

``srbcbench/tracer.py`` imports every module in its ``LAYERS``, so
this file stays until the benchmark's next change deletes it.
"""
