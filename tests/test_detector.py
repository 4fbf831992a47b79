"""Tests for the decision rules, the reference receiver's set energies
and the coherent primary receiver."""

import math

import numpy as np
import pytest

from reference_link import (
    FreqGrid,
    add_awgn,
    apply_backscatter,
    fsk_metrics,
    map_symbols,
    ofdm_demodulate,
    ofdm_modulate,
    ook_test_statistic,
    snr_to_noise_variance,
)
from srbc.backscatter import tag_shift
from srbc.detector import fsk_detect, ook_detect, primary_detect
from srbc.waveform import build_subcarrier_plan


def flat_channel(plan, gain=1.0 + 0j):
    """The direct link's gain on the plan's data bins for a one-tap link."""
    return np.full(plan.n_data, gain, dtype=np.complex128)


def test_ook_statistic_reference_values():
    plan = build_subcarrier_plan("ook", 64)
    zero = FreqGrid(np.zeros(64, dtype=np.complex128))
    assert ook_test_statistic(zero, plan) == 0.0
    ones = FreqGrid(np.zeros(64, dtype=np.complex128))
    ones.values[plan.kb0] = 1.0
    assert ook_test_statistic(ones, plan) == pytest.approx(len(plan.kb0))
    assert len(plan.kb0) == 32


def test_ook_statistic_matches_naive_sum():
    rng = np.random.default_rng(101)
    plan = build_subcarrier_plan("ook", 64)
    grid = FreqGrid(rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64)))
    stat = ook_test_statistic(grid, plan)
    naive = np.array([sum(abs(grid.values[i, k]) ** 2 for k in plan.kb0)
                      for i in range(6)])
    assert np.abs(stat - naive).max() < 1e-12 * naive.max()


def test_ook_decision_rule():
    assert ook_detect(0.0, 0.1) == 0
    assert ook_detect(5.0, 0.1) == 1
    assert ook_detect(0.1, 0.1) == 0  # tie: no reflection
    with pytest.raises(ValueError):
        ook_detect(1.0, -0.5)


def test_fsk_metrics_reference_values():
    plan = build_subcarrier_plan("fsk2", 64, zeta=2)
    zero = FreqGrid(np.zeros(64, dtype=np.complex128))
    assert fsk_metrics(zero, plan) == (0.0, 0.0)
    assert fsk_metrics(zero, build_subcarrier_plan("fsk1", 64)) == (0.0, 0.0)
    grid = FreqGrid(np.zeros(64, dtype=np.complex128))
    grid.values[plan.kb1] = 1.0
    ts0, ts1 = fsk_metrics(grid, plan)
    assert ts0 == 0.0 and ts1 == pytest.approx(len(plan.kb1))


def test_fsk_decision_rule():
    assert fsk_detect(5.0, 3.0) == 0
    assert fsk_detect(3.0, 5.0) == 1
    assert fsk_detect(4.0, 4.0) == 0  # tie


def test_fsk_decision_antisymmetry():
    rng = np.random.default_rng(103)
    a = rng.exponential(size=500)
    b = rng.exponential(size=500)
    distinct = a != b
    forward = fsk_detect(a, b)[distinct]
    backward = fsk_detect(b, a)[distinct]
    assert np.array_equal(forward, 1 - backward)


def test_decisions_are_scale_equivariant():
    rng = np.random.default_rng(107)
    plan = build_subcarrier_plan("fsk2", 64, zeta=2)
    grid = FreqGrid(rng.standard_normal((50, 64)) + 1j * rng.standard_normal((50, 64)))
    scaled = FreqGrid(3.7 * grid.values)
    assert np.array_equal(fsk_detect(*fsk_metrics(grid, plan)),
                          fsk_detect(*fsk_metrics(scaled, plan)))
    ook_plan = build_subcarrier_plan("ook", 64)
    stat = ook_test_statistic(grid, ook_plan)
    stat_scaled = ook_test_statistic(scaled, ook_plan)
    eta = float(np.median(stat))
    assert np.array_equal(ook_detect(stat, eta),
                          ook_detect(stat_scaled, eta * 3.7 ** 2))


def test_primary_detect_reference_cases():
    plan = build_subcarrier_plan("ook", 64)
    grid = map_symbols(np.ones(plan.n_data), plan)
    bits = primary_detect(grid.values[..., plan.data_idx], flat_channel(plan))
    assert not bits.any()
    flipped = map_symbols(-np.ones(plan.n_data), plan)
    received = FreqGrid(1j * flipped.values)  # what a gain-j channel delivers
    bits = primary_detect(received.values[..., plan.data_idx],
                          flat_channel(plan, gain=1j))
    assert (bits == 1).all()


def test_primary_detect_marks_dead_bins():
    plan = build_subcarrier_plan("ook", 64)
    grid = map_symbols(np.ones(plan.n_data), plan)
    bits = primary_detect(grid.values[..., plan.data_idx],
                          flat_channel(plan, gain=0.0))
    assert (bits == -1).all()


def test_primary_ber_matches_bpsk_formula():
    # flat unit channel with additive noise: bit error rate follows the
    # standard coherent BPSK expression 0.5*erfc(sqrt(snr))
    rng = np.random.default_rng(109)
    plan = build_subcarrier_plan("ook", 64)
    chan = flat_channel(plan)
    n_sym = 31_250  # one million data bits
    for snr_db in (0.0, 3.0, 6.0):
        data_bits = rng.integers(0, 2, size=(n_sym, plan.n_data))
        grid = map_symbols(1.0 - 2.0 * data_bits, plan)
        sig = ofdm_modulate(grid, cp_len=8)
        noisy = add_awgn(sig, snr_to_noise_variance(snr_db, plan), rng)
        decided = primary_detect(ofdm_demodulate(noisy).values[..., plan.data_idx],
                                 chan)
        ber = np.mean(decided != data_bits)
        expect = 0.5 * math.erfc(math.sqrt(10 ** (snr_db / 10)))
        assert abs(ber - expect) < 0.05 * expect, (snr_db, ber, expect)


def test_end_to_end_interference_freedom():
    # with flat links and no noise the tag cannot disturb the primary
    # bits, and the receiver reads the tag bit off the null bins
    rng = np.random.default_rng(113)
    for scheme, zeta in (("ook", 1), ("fsk1", 1), ("fsk2", 2)):
        plan = build_subcarrier_plan(scheme, 64, zeta=zeta)
        chan = flat_channel(plan)
        data_bits = rng.integers(0, 2, size=plan.n_data)
        grid = map_symbols(1.0 - 2.0 * data_bits, plan)
        sig = ofdm_modulate(grid, cp_len=8)
        for bit in (0, 1):
            shift = tag_shift(scheme, bit, zeta)
            direct = sig.samples
            reflected = apply_backscatter(sig, shift, 0.9).samples
            received = ofdm_demodulate(
                type(sig)(direct + reflected, sig.cp_len))
            assert np.array_equal(
                primary_detect(received.values[..., plan.data_idx], chan),
                data_bits), (scheme, bit)
            if scheme == "ook":
                decided = ook_detect(ook_test_statistic(received, plan), 1e-6)
            else:
                decided = fsk_detect(*fsk_metrics(received, plan))
            assert decided == bit, (scheme, bit)
