"""Fading channels, receiver noise, and carrier frequency offset.

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

import numpy as np

from .waveform import ConfigurationError, SubcarrierPlan, TimeSignal


@dataclass(frozen=True)
class NoiseSpec:
    """Total complex variance of the AWGN per time-domain sample."""

    variance: float


@dataclass(frozen=True)
class CfoSpec:
    """Carrier frequency offset as a fraction of the subcarrier spacing."""

    epsilon: float


@dataclass
class ChannelRealization:
    """One draw of all three links with cached per-bin responses."""

    taps_direct: np.ndarray
    taps_forward: np.ndarray
    taps_backward: np.ndarray
    freq_direct: np.ndarray
    freq_forward: np.ndarray
    freq_backward: np.ndarray
    n: int


def complex_normal(rng: np.random.Generator, shape, variance) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws of the given total variance."""
    scale = np.sqrt(np.asarray(variance, dtype=np.float64) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rayleigh_taps(rng: np.random.Generator, shape, n_taps: int,
                  total_power: float = 1.0) -> np.ndarray:
    """Uniform-profile Rayleigh taps: n_taps i.i.d. draws of power total/n_taps."""
    if n_taps < 1:
        raise ConfigurationError(f"need at least one tap, got {n_taps}")
    return complex_normal(rng, tuple(shape) + (n_taps,), total_power / n_taps)


def sample_channels(l_direct: int, l_forward: int, sigma_v: float,
                    rng: np.random.Generator, n: int,
                    l_backward: int = 1, shape=()) -> ChannelRealization:
    """Draw realizations of the direct, forward, and backward links.

    ``shape`` prepends batch axes, giving one independent channel draw
    per batch entry.
    """
    hd = rayleigh_taps(rng, shape, l_direct)
    hf = rayleigh_taps(rng, shape, l_forward)
    hb = rayleigh_taps(rng, shape, l_backward, total_power=sigma_v ** 2)
    return ChannelRealization(
        hd, hf, hb,
        np.fft.fft(hd, n, axis=-1), np.fft.fft(hf, n, axis=-1),
        np.fft.fft(hb, n, axis=-1), n)


def apply_channel(sig: TimeSignal, taps: np.ndarray) -> TimeSignal:
    """Linear convolution with the tap vector, truncated to the input length.

    The channel memory (one less than the tap count) must fit inside the
    cyclic prefix so the symbol body stays circular.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    n_taps = taps.shape[-1]
    if n_taps - 1 > sig.cp_len:
        raise ConfigurationError(
            f"channel memory {n_taps - 1} exceeds cyclic prefix {sig.cp_len}")
    out = np.zeros(np.broadcast_shapes(taps.shape[:-1], sig.samples.shape[:-1])
                   + sig.samples.shape[-1:], dtype=np.complex128)
    for l in range(n_taps):
        if l == 0:
            out += taps[..., 0:1] * sig.samples
        else:
            out[..., l:] += taps[..., l:l + 1] * sig.samples[..., :-l]
    return TimeSignal(out, sig.cp_len)


def add_awgn(sig: TimeSignal, noise: NoiseSpec, rng: np.random.Generator) -> TimeSignal:
    """Add white circularly symmetric Gaussian noise per sample."""
    if noise.variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise.variance}")
    if noise.variance == 0:
        return sig
    w = complex_normal(rng, sig.samples.shape, noise.variance)
    return TimeSignal(sig.samples + w, sig.cp_len)


def apply_cfo(sig: TimeSignal, cfo: CfoSpec) -> TimeSignal:
    """Multiply by the offset phase ramp exp(2j*pi*eps*m/n).

    The sample index m runs from -cp_len so that m = 0 falls on the
    first body sample; an integer eps therefore rotates the demodulated
    grid by exactly that many bins.
    """
    if cfo.epsilon == 0:
        return sig
    m = np.arange(-sig.cp_len, sig.n)
    ramp = np.exp(2j * np.pi * cfo.epsilon * m / sig.n)
    return TimeSignal(sig.samples * ramp, sig.cp_len)


def snr_to_noise_variance(snr_db: float, plan: SubcarrierPlan) -> NoiseSpec:
    """Per-sample noise variance giving the requested per-data-bin SNR."""
    return NoiseSpec(10.0 ** (-snr_db / 10.0) / plan.n)
