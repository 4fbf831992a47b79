"""Tests for the tag's bin shifts and their reflection in the time domain.

The tag tone and the reflection belong to the time-domain reference link.
"""

import numpy as np
import pytest

from reference_link import (
    FreqGrid,
    TimeSignal,
    apply_backscatter,
    map_symbols,
    ofdm_demodulate,
    ofdm_modulate,
)
from srbc.backscatter import tag_shift
from srbc.waveform import build_subcarrier_plan


def tag_tone(shift, n):
    # a constant body reflected by the tag is the tag's tone itself
    return apply_backscatter(TimeSignal(np.ones(n), 0), shift, 1.0).samples


def test_ook_waveforms():
    assert tag_shift("ook", 0, zeta=1) is None
    assert not tag_tone(None, 64).any()
    assert tag_shift("ook", 1, zeta=2) == 2
    assert np.allclose(tag_tone(2, 64),
                       np.exp(2j * np.pi * 2 * np.arange(64) / 64), atol=1e-12)


def test_fsk1_waveform_reference_sample():
    assert tag_shift("fsk1", 1, zeta=1) == 1
    assert abs(tag_tone(1, 64)[16] - 1j) < 1e-12
    assert tag_shift("fsk1", 0, zeta=1) == -1


def test_fsk2_waveform_is_single_bin_tone():
    spectrum = np.fft.fft(tag_tone(tag_shift("fsk2", 1, zeta=2), 64))
    expect = np.zeros(64, dtype=np.complex128)
    expect[2] = 64.0
    assert np.allclose(spectrum, expect, atol=1e-9)


def test_tag_shift_rejects_bad_bit_and_scheme():
    with pytest.raises(ValueError):
        tag_shift("ook", 2, zeta=1)
    with pytest.raises(ValueError):
        tag_shift("psk", 0, zeta=1)


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
        got = tag_shift(scheme, bit, zeta=1 if scheme != "fsk2" else 2)
        assert got == shift
        out = ofdm_demodulate(apply_backscatter(sig, got, 1.0))
        err = np.abs(out.values - np.roll(grid.values, shift)).max()
        assert err < 1e-10, f"{scheme} bit {bit}: shift error {err}"


def test_fsk1_shift_lands_on_odd_bins():
    plan = build_subcarrier_plan("fsk1", 64)
    rng = np.random.default_rng(29)
    grid = map_symbols(rng.choice([-1.0, 1.0], size=plan.n_data), plan)
    sig = ofdm_modulate(grid, cp_len=8)
    out = ofdm_demodulate(apply_backscatter(sig, tag_shift("fsk1", 1, 1), 1.0))
    support = np.flatnonzero(np.abs(out.values) > 1e-9)
    assert set(support.tolist()) <= set(range(1, 64, 2))


def test_backscatter_energy_scales_with_gamma():
    rng = np.random.default_rng(31)
    n = 64
    grid = FreqGrid(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig = ofdm_modulate(grid, cp_len=8)
    gamma = 0.5 * np.exp(1.2j)
    out = apply_backscatter(sig, tag_shift("fsk2", 1, zeta=2), gamma)
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
    out = apply_backscatter(sig, tag_shift("fsk1", 1, 1), 1.0)
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
            out = ofdm_demodulate(
                apply_backscatter(sig, tag_shift(scheme, bit, zeta), 0.8))
            spill = np.abs(out.values[plan.data_idx]).max() if plan.n_data else 0
            assert spill < 1e-10, f"{scheme} bit {bit} leaks {spill}"
