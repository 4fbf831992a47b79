"""Receiver-side decision rules.

The tag bit is detected non-coherently from null-bin energies: OOK
compares the landing-set energy against a threshold, the FSK schemes
compare the energies collected on the two hypothesis sets.  The primary
data is detected coherently with known per-bin channel gains.  All
functions accept batched grids (leading axes) and return numpy values
of matching shape.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .waveform import FreqGrid, SubcarrierPlan


def _energy(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sum of |values|**2 over the bins idx of the last axis.

    An evenly spaced ascending idx (every kernel grid's sets, and every
    plan's but ook's at zeta 2) is sliced, not copied; the sum runs over
    the real and imaginary parts, as one flat run when bins are adjacent.
    """
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if step > 0 and np.all(np.diff(idx) == step):
        values = values[..., idx[0]:idx[-1] + 1:step]
    else:
        values = values[..., idx]
    if values.strides[-1] == values.itemsize:
        parts = [values.view(values.real.dtype)]
    else:
        parts = [values.real, values.imag]
    return sum(np.einsum("...i,...i->...", p, p) for p in parts)


def ook_test_statistic(grid: FreqGrid, plan: SubcarrierPlan):
    """Total received energy on the OOK landing set."""
    return _energy(grid.values, plan.kb0)


def ook_detect(stat, threshold: float):
    """Declare bit 1 when the landing-set energy exceeds the threshold.

    Ties go to bit 0 (no reflection).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return (np.asarray(stat) > threshold).astype(np.int8)


def fsk_metrics(grid: FreqGrid, plan: SubcarrierPlan):
    """Energies on the bit-0 and bit-1 hypothesis sets."""
    return _energy(grid.values, plan.kb0), _energy(grid.values, plan.kb1)


def fsk_detect(ts0, ts1):
    """Pick the hypothesis with more collected energy; ties go to bit 0."""
    return (np.asarray(ts1) > np.asarray(ts0)).astype(np.int8)


def primary_detect(grid: FreqGrid, chan: ChannelRealization,
                   plan: SubcarrierPlan):
    """Coherent BPSK decisions on the data bins with known channel gains.

    Symbol +1 maps to bit 0.  A data bin whose channel gain is exactly
    zero cannot be equalized; it is marked -1 so callers can count it as
    an error.
    """
    h = chan.freq_direct[..., plan.data_idx]
    y = grid.values[..., plan.data_idx]
    erased = h == 0
    safe = np.where(erased, 1.0, h)
    bits = np.where(np.real(y / safe) >= 0, 0, 1).astype(np.int8)
    return np.where(erased, np.int8(-1), bits)
