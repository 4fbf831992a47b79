"""Tests for fading, noise, frequency offset, and the SNR convention.

Everything tested here, the per-sample noise variance included, lives
in the time-domain reference link that the kernel tests check the
simulator against.
"""

import numpy as np
import pytest

from reference_link import (
    CfoSpec,
    FreqGrid,
    NoiseSpec,
    add_awgn,
    apply_backscatter,
    apply_cfo,
    apply_channel,
    complex_normal,
    map_symbols,
    ofdm_demodulate,
    ofdm_modulate,
    rayleigh_taps,
    sample_channels,
    snr_to_noise_variance,
)
from srbc.backscatter import tag_shift
from srbc.waveform import build_subcarrier_plan


def random_symbol(rng, n, cp_len):
    grid = FreqGrid(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return grid, ofdm_modulate(grid, cp_len=cp_len)


def test_complex_normal_moments():
    rng = np.random.default_rng(43)
    draws = complex_normal(rng, (1_000_000,), 2.0)
    power = np.mean(np.abs(draws) ** 2)
    assert abs(power - 2.0) < 0.02
    assert abs(draws.mean()) < 0.005
    # circular symmetry: real and imaginary parts carry equal halves
    assert abs(np.var(draws.real) - 1.0) < 0.01


def test_rayleigh_taps_profile():
    rng = np.random.default_rng(47)
    taps = rayleigh_taps(rng, (200_000,), 4)
    assert taps.shape == (200_000, 4)
    per_tap = np.mean(np.abs(taps) ** 2, axis=0)
    assert np.allclose(per_tap, 0.25, atol=0.005), per_tap
    scaled = rayleigh_taps(rng, (100_000,), 1, total_power=4.0)
    assert abs(np.mean(np.abs(scaled) ** 2) - 4.0) < 0.08


def test_sample_channels_shapes_and_moments():
    rng = np.random.default_rng(53)
    chans = sample_channels(4, 4, 2.0, rng, 64, shape=(20_000,))
    assert chans.taps_direct.shape == (20_000, 4)
    assert chans.freq_direct.shape == (20_000, 64)
    assert chans.taps_backward.shape == (20_000, 1)
    assert abs(np.mean(np.abs(chans.freq_direct) ** 2) - 1.0) < 0.02
    assert abs(np.mean(np.abs(chans.freq_forward) ** 2) - 1.0) < 0.02
    assert abs(np.mean(np.abs(chans.taps_backward) ** 2) - 4.0) < 0.1


def test_sample_channels_deterministic():
    a = sample_channels(4, 4, 1.0, np.random.default_rng(59), 64, shape=(8,))
    b = sample_channels(4, 4, 1.0, np.random.default_rng(59), 64, shape=(8,))
    assert np.array_equal(a.taps_direct, b.taps_direct)
    assert np.array_equal(a.freq_forward, b.freq_forward)


def test_single_tap_channel_identities():
    rng = np.random.default_rng(61)
    _, sig = random_symbol(rng, 64, 8)
    out = apply_channel(sig, np.array([1.0 + 0j]))
    assert np.allclose(out.samples, sig.samples, atol=1e-12)
    half = apply_channel(sig, np.array([0.5 + 0j]))
    assert np.allclose(half.samples, 0.5 * sig.samples, atol=1e-12)


def test_one_sample_delay_is_linear_phase():
    rng = np.random.default_rng(67)
    grid, sig = random_symbol(rng, 64, 8)
    out = ofdm_demodulate(apply_channel(sig, np.array([0.0, 1.0 + 0j])))
    expect = grid.values * np.exp(-2j * np.pi * np.arange(64) / 64)
    assert np.abs(out.values - expect).max() < 1e-10


def test_channel_memory_must_fit_prefix():
    rng = np.random.default_rng(71)
    _, sig = random_symbol(rng, 64, 4)
    with pytest.raises(ValueError):
        apply_channel(sig, np.ones(6, dtype=np.complex128))


def test_awgn_time_and_frequency_statistics():
    rng = np.random.default_rng(73)
    n = 64
    quiet = ofdm_modulate(FreqGrid(np.zeros((15_625, n), dtype=np.complex128)),
                          cp_len=0)
    noisy = add_awgn(quiet, NoiseSpec(0.3), rng)
    samples = noisy.samples.ravel()
    assert samples.size == 1_000_000
    assert abs(np.mean(np.abs(samples) ** 2) - 0.3) < 0.003
    bins = ofdm_demodulate(noisy).values
    bin_power = np.mean(np.abs(bins) ** 2)
    assert abs(bin_power - n * 0.3) < 0.02 * n * 0.3


def test_cfo_zero_is_identity():
    rng = np.random.default_rng(79)
    _, sig = random_symbol(rng, 64, 8)
    out = apply_cfo(sig, CfoSpec(0.0))
    assert np.array_equal(out.samples, sig.samples)


def test_integer_cfo_shifts_by_one_bin():
    rng = np.random.default_rng(83)
    grid, sig = random_symbol(rng, 64, 8)
    out = ofdm_demodulate(apply_cfo(sig, CfoSpec(1.0)))
    assert np.abs(out.values - np.roll(grid.values, 1)).max() < 1e-10


def test_half_bin_cfo_matches_direct_sum():
    # pure tone at bin 3 with a half-bin offset: compare each output bin
    # against the plain geometric sum it should equal, and check the
    # symmetric split across bins 3 and 4
    n, cp = 64, 8
    grid = FreqGrid(np.zeros(n, dtype=np.complex128))
    grid.values[3] = 1.0
    sig = ofdm_modulate(grid, cp_len=cp)
    out = ofdm_demodulate(apply_cfo(sig, CfoSpec(0.5)))
    m = np.arange(n)
    expect = np.array([np.sum(np.exp(2j * np.pi * (3.5 - k) * m / n)) / n
                       for k in range(n)])
    assert np.abs(out.values - expect).max() < 1e-10
    assert abs(abs(out.values[3]) - abs(out.values[4])) < 1e-10
    assert abs(out.values[3]) > abs(out.values[5]) > abs(out.values[7])


def test_integer_cfo_composes_with_tag_tone():
    # an integer offset followed by the tag tone lands like one combined
    # shift, in either application order
    rng = np.random.default_rng(89)
    grid, sig = random_symbol(rng, 64, 8)
    shift = tag_shift("fsk2", 1, zeta=2)  # shift of 2 bins
    a = ofdm_demodulate(apply_cfo(apply_backscatter(sig, shift, 1.0),
                                  CfoSpec(2.0)))
    b = ofdm_demodulate(apply_backscatter(apply_cfo(sig, CfoSpec(2.0)),
                                          shift, 1.0))
    expect = np.roll(grid.values, 4)
    assert np.abs(a.values - expect).max() < 1e-10
    assert np.abs(b.values - expect).max() < 1e-10


def test_noise_variance_convention():
    plan = build_subcarrier_plan("ook", 64)
    assert snr_to_noise_variance(0.0, plan).variance == pytest.approx(1 / 64)
    assert snr_to_noise_variance(10.0, plan).variance == pytest.approx(0.1 / 64)
    big = build_subcarrier_plan("ook", 512)
    assert snr_to_noise_variance(0.0, big).variance == pytest.approx(1 / 512)


def test_empirical_per_subcarrier_snr():
    # at 30 dB the post-demodulation signal-to-noise power ratio on a
    # data subcarrier comes out at 1000
    rng = np.random.default_rng(97)
    plan = build_subcarrier_plan("ook", 64)
    noise = snr_to_noise_variance(30.0, plan)
    bits = rng.integers(0, 2, size=(2000, plan.n_data))
    grid = map_symbols(1.0 - 2.0 * bits, plan)
    sig = ofdm_modulate(grid, cp_len=8)
    noisy = add_awgn(sig, noise, rng)
    out = ofdm_demodulate(noisy)
    err = out.values - grid.values
    noise_power = np.mean(np.abs(err[:, plan.data_idx]) ** 2)
    snr = 1.0 / noise_power
    assert abs(snr - 1000.0) < 20.0, f"empirical per-bin snr {snr}"
