"""Backscatter tag model: bit-keyed tone waveforms and their bin shifts.

A tag conveys one bit per OFDM symbol by multiplying the incident signal
with a unit-modulus complex tone whose integer frequency moves primary
energy from data bins onto scheme-specific null bins.  OOK keys the
reflection on and off, the FSK variants select between two tones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waveform import ConfigurationError


@dataclass(frozen=True)
class BdWaveform:
    """One symbol period of the tag's multiplicative waveform.

    ``samples`` covers the symbol body; ``shift`` is the integer number
    of bins the tone moves the incident spectrum, or None when the tag
    does not reflect (OOK bit 0).
    """

    samples: np.ndarray
    scheme: str
    bit: int
    shift: int | None


def _tone(shift: int, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * shift * np.arange(n) / n)


def bd_waveform(scheme: str, bit: int, zeta: int, n: int) -> BdWaveform:
    """Tag waveform for one bit: a tone of integer frequency, or silence.

    OOK reflects the tone of frequency ``zeta`` for bit 1 and nothing
    for bit 0.  FSK1 shifts down one bin for bit 0 and up one for bit 1.
    FSK2 always reflects, shifting by one bin for bit 0 and two for
    bit 1 (its plan spaces data bins ``zeta``+1 apart so both landings
    stay on nulls).
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if scheme == "ook":
        shift = zeta if bit else None
    elif scheme == "fsk1":
        shift = 1 if bit else -1
    elif scheme == "fsk2":
        shift = 2 if bit else 1
    else:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if shift is None:
        samples = np.zeros(n, dtype=np.complex128)
    else:
        samples = _tone(shift, n)
    return BdWaveform(samples, scheme, bit, shift)
