"""Receiver-side decision rules.

The tag bit is detected non-coherently from null-bin energies: OOK
compares the landing-set energy against a threshold, the FSK schemes
compare the energies collected on the two hypothesis sets.  The primary
data is detected coherently with known per-bin channel gains.  All
functions accept batched inputs (leading axes) and return numpy values
of matching shape.
"""
from __future__ import annotations

import numpy as np


def ook_detect(stat, threshold: float):
    """Declare bit 1 when the landing-set energy exceeds the threshold.

    Ties go to bit 0 (no reflection).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return (np.asarray(stat) > threshold).astype(np.int8)


def fsk_detect(ts0, ts1):
    """Pick the hypothesis with more collected energy; ties go to bit 0."""
    return (np.asarray(ts1) > np.asarray(ts0)).astype(np.int8)


def primary_detect(y, hd):
    """Coherent BPSK decisions on the data bins with known channel gains.

    ``y`` holds the received data-bin values and ``hd`` the direct
    link's gain on each of them.  Symbol +1 maps to bit 0.  A data bin
    whose channel gain is exactly zero cannot be equalized; it is marked
    -1 so callers can count it as an error.
    """
    h = np.asarray(hd)
    erased = h == 0
    safe = np.where(erased, 1.0, h)
    bits = np.where(np.real(np.asarray(y) / safe) >= 0, 0, 1).astype(np.int8)
    return np.where(erased, np.int8(-1), bits)
