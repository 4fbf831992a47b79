"""Tests for the tag waveforms and their reflection in the time domain.

The reflection itself belongs to the time-domain reference link.
"""

import numpy as np
import pytest

from reference_link import (
    FreqGrid,
    apply_backscatter,
    map_symbols,
    ofdm_demodulate,
    ofdm_modulate,
)
from srbc.backscatter import bd_waveform
from srbc.waveform import build_subcarrier_plan


def test_ook_waveforms():
    silent = bd_waveform("ook", 0, zeta=1, n=64)
    assert silent.shift is None
    assert not silent.samples.any()
    tone = bd_waveform("ook", 1, zeta=2, n=64)
    assert tone.shift == 2
    assert np.allclose(tone.samples,
                       np.exp(2j * np.pi * 2 * np.arange(64) / 64), atol=1e-12)


def test_fsk1_waveform_reference_sample():
    wave = bd_waveform("fsk1", 1, zeta=1, n=64)
    assert wave.shift == 1
    assert abs(wave.samples[16] - 1j) < 1e-12
    down = bd_waveform("fsk1", 0, zeta=1, n=64)
    assert down.shift == -1


def test_fsk2_waveform_is_single_bin_tone():
    wave = bd_waveform("fsk2", 1, zeta=2, n=64)
    spectrum = np.fft.fft(wave.samples)
    expect = np.zeros(64, dtype=np.complex128)
    expect[2] = 64.0
    assert np.allclose(spectrum, expect, atol=1e-9)


def test_bd_waveform_rejects_bad_bit_and_scheme():
    with pytest.raises(ValueError):
        bd_waveform("ook", 2, zeta=1, n=64)
    with pytest.raises(ValueError):
        bd_waveform("psk", 0, zeta=1, n=64)


def test_backscatter_spectral_shift_identity():
    # multiplying the body by an integer tone circularly shifts the
    # demodulated spectrum by that many bins
    rng = np.random.default_rng(23)
    n = 64
    grid = FreqGrid(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig = ofdm_modulate(grid, cp_len=n // 8)
    for scheme, bit, shift in (("fsk1", 0, -1), ("fsk1", 1, 1),
                               ("fsk2", 0, 1), ("fsk2", 1, 2),
                               ("ook", 1, 1)):
        wave = bd_waveform(scheme, bit, zeta=1 if scheme != "fsk2" else 2, n=n)
        assert wave.shift == shift
        out = ofdm_demodulate(apply_backscatter(sig, wave, 1.0))
        err = np.abs(out.values - np.roll(grid.values, shift)).max()
        assert err < 1e-10, f"{scheme} bit {bit}: shift error {err}"


def test_fsk1_shift_lands_on_odd_bins():
    plan = build_subcarrier_plan("fsk1", 64)
    rng = np.random.default_rng(29)
    grid = map_symbols(rng.choice([-1.0, 1.0], size=plan.n_data), plan)
    sig = ofdm_modulate(grid, cp_len=8)
    out = ofdm_demodulate(apply_backscatter(sig, bd_waveform("fsk1", 1, 1, 64), 1.0))
    support = np.flatnonzero(np.abs(out.values) > 1e-9)
    assert set(support.tolist()) <= set(range(1, 64, 2))


def test_backscatter_energy_scales_with_gamma():
    rng = np.random.default_rng(31)
    n = 64
    grid = FreqGrid(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig = ofdm_modulate(grid, cp_len=8)
    wave = bd_waveform("fsk2", 1, zeta=2, n=n)
    gamma = 0.5 * np.exp(1.2j)
    out = apply_backscatter(sig, wave, gamma)
    e_in = np.sum(np.abs(sig.samples) ** 2)
    e_out = np.sum(np.abs(out.samples) ** 2)
    assert abs(e_out - 0.25 * e_in) < 1e-12 * e_in


def test_backscatter_prefix_stays_cyclic():
    # the reflected signal must still be a valid prefixed symbol so the
    # receiver window sees a circular product
    rng = np.random.default_rng(37)
    n = 32
    grid = FreqGrid(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig = ofdm_modulate(grid, cp_len=4)
    out = apply_backscatter(sig, bd_waveform("fsk1", 1, 1, n), 1.0)
    assert np.allclose(out.samples[:4], out.body[-4:], atol=1e-12)


def test_backscatter_interference_freedom():
    # tag reflections never land on data bins, for every scheme and bit
    rng = np.random.default_rng(41)
    n = 64
    for scheme, zeta in (("ook", 1), ("ook", 2), ("fsk1", 1), ("fsk2", 2)):
        plan = build_subcarrier_plan(scheme, n, zeta=zeta)
        grid = map_symbols(rng.choice([-1.0, 1.0], size=plan.n_data), plan)
        sig = ofdm_modulate(grid, cp_len=n // 8)
        for bit in (0, 1):
            wave = bd_waveform(scheme, bit, zeta, n)
            out = ofdm_demodulate(apply_backscatter(sig, wave, 0.8))
            spill = np.abs(out.values[plan.data_idx]).max() if plan.n_data else 0
            assert spill < 1e-10, f"{scheme} bit {bit} leaks {spill}"


def test_backscatter_length_mismatch_rejected():
    grid = FreqGrid(np.zeros(32, dtype=np.complex128))
    sig = ofdm_modulate(grid, cp_len=4)
    with pytest.raises(ValueError):
        apply_backscatter(sig, bd_waveform("fsk1", 1, 1, 64), 1.0)
