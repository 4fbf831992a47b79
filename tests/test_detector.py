"""Tests for the tag link's decision rules, the reference receiver's set
energies and the coherent primary receiver."""

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
from srbc.harness import SystemConfig, _tag_link, run_ber_sweep
from srbc.waveform import SCHEMES, build_subcarrier_plan, tag_shift


def flat_channel(plan):
    """The direct link's unit gain on the plan's data bins for a one-tap link."""
    return np.ones(plan.n_data, dtype=np.complex128)


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
    # the landing-set energy against the threshold unit_eta * noise:
    # just below, at (a tie: no reflection) and just above it
    link = _tag_link(SystemConfig(scheme="ook", n=64))
    noise = 0.3
    eta = link.unit_eta * noise
    energy = np.array([[0.0], [np.nextafter(eta, 0.0)], [eta],
                       [np.nextafter(eta, np.inf)], [5.0 * eta]])
    bits = link.decide(energy, noise)
    assert bits.dtype == np.int8
    assert bits.tolist() == [0, 0, 0, 1, 1]


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
    # the set with more energy wins and a tie goes to bit 0
    link = _tag_link(SystemConfig(scheme="fsk2", n=64))
    energy = np.array([[5.0, 3.0], [3.0, 5.0], [4.0, 4.0], [0.0, 0.0]])
    bits = link.decide(energy, 1.0)
    assert bits.dtype == np.int8
    assert bits.tolist() == [0, 1, 0, 0]


def test_fsk_decision_antisymmetry():
    # swapping the sets flips every decision but a tie
    link = _tag_link(SystemConfig(scheme="fsk2", n=64))
    rng = np.random.default_rng(103)
    energy = rng.exponential(size=(500, 2))
    energy[::10, 1] = energy[::10, 0]
    distinct = energy[:, 0] != energy[:, 1]
    forward = link.decide(energy, 1.0)
    backward = link.decide(energy[:, ::-1], 1.0)
    assert np.array_equal(forward[distinct], 1 - backward[distinct])
    assert not forward[~distinct].any() and not backward[~distinct].any()


def test_decisions_are_scale_equivariant():
    # scaling the reference receiver's energies and the bin noise by
    # one factor leaves every decision of both links unchanged
    rng = np.random.default_rng(107)
    grid = FreqGrid(rng.standard_normal((50, 64)) + 1j * rng.standard_normal((50, 64)))
    c = 3.7 ** 2
    fsk = _tag_link(SystemConfig(scheme="fsk2", n=64))
    energy = np.stack(fsk_metrics(grid, fsk.cfg.plan()), axis=1)
    assert np.array_equal(fsk.decide(c * energy, c), fsk.decide(energy, 1.0))
    ook = _tag_link(SystemConfig(scheme="ook", n=64))
    stat = ook_test_statistic(grid, ook.cfg.plan())[:, None]
    noise = float(np.median(stat)) / ook.unit_eta
    bits = ook.decide(stat, noise)
    assert 0 < bits.sum() < len(bits)
    assert np.array_equal(ook.decide(c * stat, c * noise), bits)


def test_primary_link_is_error_free_without_noise():
    # at 200 dB and zero offset every data bin holds Hd*X plus noise
    # 1e-20 below it, so the coherent rule reads every bit right
    for scheme in SCHEMES:
        cfg = SystemConfig(scheme=scheme, n=64, gamma_mag=1.0, snr_db=(200.0,),
                           trials=4096)
        curve = run_ber_sweep(cfg, target="primary", target_events=None)
        assert curve.values.tolist() == [0.0], scheme


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
        # the coherent rule: bit 1 where Re(y/hd) < 0
        decided = (ofdm_demodulate(noisy).values[..., plan.data_idx] / chan).real < 0
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
                (received.values[..., plan.data_idx] / chan).real < 0,
                data_bits), (scheme, bit)
            if scheme == "ook":
                decided = ook_test_statistic(received, plan) > 1e-6
            else:
                ts0, ts1 = fsk_metrics(received, plan)
                decided = ts1 > ts0
            assert decided == bit, (scheme, bit)
