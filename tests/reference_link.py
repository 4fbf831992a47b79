"""Time-domain reference link for checking the frequency-domain kernel.

OFDM synthesis with a cyclic prefix, tapped-delay-line channels, the
tag's sample-by-sample reflection, white noise, the carrier-offset ramp
and the receiver DFT, each written out the long way, and the receiver
that reads the tag bit's detection-set energies off the demodulated
bins.  The simulator runs none of this; the tests hold its kernel to
these samples.  The
synthesis IDFT carries the 1/n factor and the analysis DFT is
unnormalized, so a frequency-domain grid round-trips exactly through
modulate/demodulate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from srbc.backscatter import tag_shift
from srbc.channel import noise_bin_variance
from srbc.waveform import ConfigurationError, SubcarrierPlan


@dataclass
class FreqGrid:
    """Length-n complex spectrum; leading axes are batch dimensions."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class NoiseSpec:
    """Total complex variance of the AWGN per time-domain sample."""

    variance: float


def snr_to_noise_variance(snr_db: float, plan: SubcarrierPlan) -> NoiseSpec:
    """Per-sample noise variance giving the requested per-data-bin SNR.

    The analysis DFT is unnormalized, so white noise of per-sample
    variance v has per-bin energy v*n.
    """
    return NoiseSpec(noise_bin_variance(snr_db) / plan.n)


@dataclass
class TimeSignal:
    """Cyclic-prefixed time samples; leading axes are batch dimensions."""

    samples: np.ndarray
    cp_len: int

    @property
    def n(self) -> int:
        return self.samples.shape[-1] - self.cp_len

    @property
    def body(self) -> np.ndarray:
        """The n samples after the cyclic prefix."""
        return self.samples[..., self.cp_len:]


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


def map_symbols(symbols: np.ndarray, plan: SubcarrierPlan) -> FreqGrid:
    """Scatter data symbols onto the plan's data bins, zeros elsewhere."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.shape[-1] != plan.n_data:
        raise ValueError(
            f"expected {plan.n_data} symbols for {plan.scheme} at n={plan.n}, "
            f"got {symbols.shape[-1]}")
    values = np.zeros(symbols.shape[:-1] + (plan.n,), dtype=np.complex128)
    values[..., plan.data_idx] = symbols
    return FreqGrid(values)


def ofdm_modulate(grid: FreqGrid, cp_len: int) -> TimeSignal:
    """IDFT the grid (1/n scaling) and prepend a cyclic prefix."""
    n = grid.n
    if not 0 <= cp_len < n:
        raise ConfigurationError(f"cp_len must be in [0, {n}), got {cp_len}")
    body = np.fft.ifft(grid.values, axis=-1)
    if cp_len:
        samples = np.concatenate([body[..., n - cp_len:], body], axis=-1)
    else:
        samples = body
    return TimeSignal(samples, cp_len)


def ofdm_demodulate(sig: TimeSignal) -> FreqGrid:
    """Drop the cyclic prefix and take the unnormalized DFT of the body."""
    return FreqGrid(np.fft.fft(sig.body, axis=-1))


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


def apply_backscatter(sig: TimeSignal, shift: int | None, gamma: complex) -> TimeSignal:
    """Multiply a signal by the scaled tag tone, sample by sample.

    The tone exp(2j*pi*shift*t/n) of ``tag_shift`` is defined over the
    symbol body; across the cyclic prefix it is extended cyclically
    (integer tones are n-periodic, so the prefix sees the tail of the
    body tone).  A shift of None is a tag that does not reflect.
    """
    value = complex(gamma)
    if shift is None:
        full = np.zeros(sig.n + sig.cp_len, dtype=np.complex128)
    else:
        tone = np.exp(2j * np.pi * shift * np.arange(sig.n) / sig.n)
        full = np.concatenate([tone[sig.n - sig.cp_len:], tone])
    return TimeSignal(sig.samples * (value * full), sig.cp_len)


def tdl_grid(rng, size, cfg, bits, noise):
    """The full time-domain link for one batch of symbols under ``cfg``.

    OFDM synthesis with cyclic prefix, both channels, the tag's
    reflection of each row's bit, noise, the carrier offset and the
    DFT.  Returns the demodulated grid, the channel draw, and the
    primary data bits.
    """
    plan = cfg.plan()
    shifts = [tag_shift(cfg.scheme, bit, plan.zeta) for bit in (0, 1)]
    data_bits = rng.integers(0, 2, size=(size, plan.n_data))
    sig = ofdm_modulate(map_symbols(1.0 - 2.0 * data_bits, plan), cfg.cp_len)
    ch = sample_channels(cfg.l_direct, cfg.l_forward, cfg.sigma_v, rng,
                         plan.n, shape=(size,))
    direct = apply_channel(sig, ch.taps_direct)
    forward = apply_channel(sig, ch.taps_forward)
    bits = np.asarray(bits)
    reflected = np.empty_like(forward.samples)
    for bit, shift in enumerate(shifts):
        rows = bits == bit
        reflected[rows] = apply_backscatter(
            TimeSignal(forward.samples[rows], cfg.cp_len), shift,
            cfg.gamma_mag).samples
    received = TimeSignal(
        direct.samples + ch.taps_backward[:, 0][:, None] * reflected, cfg.cp_len)
    received = add_awgn(received, noise, rng)
    if cfg.cfo_eps:
        received = apply_cfo(received, CfoSpec(cfg.cfo_eps))
    return ofdm_demodulate(received), ch, data_bits


def set_energy(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sum of |values|**2 over the bins idx of the last axis."""
    return np.sum(np.abs(values[..., idx]) ** 2, axis=-1)


def ook_test_statistic(grid: FreqGrid, plan: SubcarrierPlan):
    """Total received energy on the OOK landing set."""
    return set_energy(grid.values, plan.kb0)


def fsk_metrics(grid: FreqGrid, plan: SubcarrierPlan):
    """Energies on the bit-0 and bit-1 hypothesis sets."""
    return set_energy(grid.values, plan.kb0), set_energy(grid.values, plan.kb1)
