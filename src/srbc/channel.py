"""Receiver noise and the SNR convention.

Direct and forward links are tapped delay lines with uniform power
profiles normalized to unit total power, so every per-subcarrier
response has unit mean-square gain.  The backward link from the tag is
a single Rayleigh tap of mean-square gain sigma_v**2 by default.  SNR
is defined per data subcarrier after the receiver DFT on the direct
link: with unit-power symbols, snr_db fixes the per-bin noise energy at
10**(-snr_db/10), which maps to a per-sample time-domain variance of
that value divided by n.
"""
from __future__ import annotations

from dataclasses import dataclass

from .waveform import SubcarrierPlan


@dataclass(frozen=True)
class NoiseSpec:
    """Total complex variance of the AWGN per time-domain sample."""

    variance: float


def snr_to_noise_variance(snr_db: float, plan: SubcarrierPlan) -> NoiseSpec:
    """Per-sample noise variance giving the requested per-data-bin SNR."""
    return NoiseSpec(10.0 ** (-snr_db / 10.0) / plan.n)
