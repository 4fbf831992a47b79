"""Backscatter tag model: the bin shift of each bit.

A tag conveys one bit per OFDM symbol by multiplying the incident signal
with a unit-modulus complex tone whose integer frequency moves primary
energy from data bins onto scheme-specific null bins.  OOK keys the
reflection on and off, the FSK variants select between two tones.  After
the receiver DFT a tone of integer frequency s is exactly a circular
shift of the spectrum by s bins, so the shift is all the link reads.
"""
from __future__ import annotations

from .waveform import ConfigurationError


def tag_shift(scheme: str, bit: int, zeta: int) -> int | None:
    """Bins the tag's tone moves the incident spectrum for one bit.

    OOK reflects the tone of frequency ``zeta`` for bit 1 and nothing
    (None) for bit 0.  FSK1 shifts down one bin for bit 0 and up one for
    bit 1.  FSK2 always reflects, shifting by one bin for bit 0 and two
    for bit 1 (its plan spaces data bins ``zeta``+1 apart so both
    landings stay on nulls).
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if scheme == "ook":
        return zeta if bit else None
    if scheme == "fsk1":
        return 1 if bit else -1
    if scheme == "fsk2":
        return 2 if bit else 1
    raise ConfigurationError(f"unknown scheme {scheme!r}")
