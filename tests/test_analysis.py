"""Tests for the exact per-node error laws of the analysis layer."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from srbc import analysis
from srbc.analysis import (
    noise_bin_variance,
    optimal_threshold,
    rayleigh_nodes,
    theory_sweep,
)
from srbc.waveform import build_subcarrier_plan


def erlang_tail(x, n_b):
    """False-alarm probability P(G > x), G ~ Gamma(n_b, 1), from the Erlang log tail."""
    return math.exp(float(analysis._erlang_log_tail(x, n_b)[0]))


def pmd_given_v(eta, v, gamma_sq, sigma_w_sq, n_b):
    """Missed-detection probability F(eta) of the signal statistic at fixed v."""
    return analysis._missed_detection(eta, np.array([v]), np.ones(1), gamma_sq,
                                      sigma_w_sq, n_b)


def pmd_law(eta, sigma_v, gamma_sq, sigma_w_sq, n_b):
    """F(eta) averaged over the Rayleigh rule, at any set size n_b."""
    nodes, weights = rayleigh_nodes(sigma_v)
    return float(analysis._missed_detection(eta, nodes, weights, gamma_sq,
                                            sigma_w_sq, n_b))


def ber_law(gamma_sq, sigma_v, sigma_w_sq, n_b):
    """The fsk bit error averaged over the Rayleigh rule, at any set size n_b."""
    nodes, weights = rayleigh_nodes(sigma_v)
    return float(analysis._bit_error(nodes, weights, gamma_sq, sigma_w_sq, n_b))


def test_noise_bin_variance_convention():
    assert noise_bin_variance(0.0) == pytest.approx(1.0)
    assert noise_bin_variance(10.0) == pytest.approx(0.1)
    assert noise_bin_variance(20.0) == pytest.approx(0.01)


def test_pfa_limits_and_sampling():
    w = 0.1
    assert erlang_tail(0.0, 32) == 1.0
    assert erlang_tail(1e4 / w, 32) < 1e-12
    rng = np.random.default_rng(137)
    draws = rng.exponential(w, size=(1_000_000, 32)).sum(axis=1)
    eta = 4.0
    emp = np.mean(draws > eta)
    se = math.sqrt(emp * (1 - emp) / draws.size)
    assert abs(erlang_tail(eta / w, 32) - emp) < 3 * se


def test_pmd_given_v_closed_form():
    # two bins: the conditional statistic is Erlang-2 with a lifted mean
    eta, gamma_sq, v, w_var = 0.5, 0.25, 1.2, 0.1
    m1 = gamma_sq * v ** 2 + w_var
    expect = stats.gamma.cdf(eta, a=2, scale=m1)
    assert abs(pmd_given_v(eta, v, gamma_sq, w_var, 2) - expect) < 1e-8
    assert pmd_given_v(0.0, v, gamma_sq, w_var, 2) == 0.0


def test_threshold_hits_requested_false_alarm():
    median = optimal_threshold(0.5, 32)
    assert median == pytest.approx(stats.gamma.ppf(0.5, a=32), rel=1e-6)
    for target in (1e-1, 1e-2, 1e-3):
        x = optimal_threshold(target, 32)
        assert erlang_tail(x, 32) == pytest.approx(target, rel=1e-4)
    assert optimal_threshold(1e-3, 32) > optimal_threshold(1e-1, 32)


@settings(max_examples=200)
@given(n_b=st.integers(1, 512), log10_pfa=st.floats(-8.0, math.log10(0.99)))
def test_threshold_and_pfa_match_the_erlang_tail(n_b, log10_pfa):
    # the noise-only statistic of n_b unit bins is Gamma(n_b, 1), so the
    # threshold is gammainccinv and the false-alarm rate is gammaincc
    pfa = 10.0 ** log10_pfa
    x = optimal_threshold(pfa, n_b)
    assert x == pytest.approx(special.gammainccinv(n_b, pfa), rel=1e-12)
    assert erlang_tail(x, n_b) == pytest.approx(
        special.gammaincc(n_b, x), rel=1e-12)


def test_threshold_at_one_and_two_bins():
    # one bin is an exponential of the given mean; its threshold used to
    # raise QuadratureError at 1e-3, and two bins took seconds
    assert optimal_threshold(1e-3, 1) == pytest.approx(-math.log(1e-3), rel=1e-14)
    start = time.perf_counter()
    eta = optimal_threshold(1e-3, 2)
    assert time.perf_counter() - start < 0.05
    assert math.exp(-eta) * (1 + eta) == pytest.approx(1e-3, rel=1e-13)


def test_threshold_needs_a_positive_integer_bin_count():
    # a fractional or boolean count is not read as a count between its
    # neighbours or as 1
    for n_b in (0, -3, 2.0, 2.5, True, "8", np.ones(2)):
        with pytest.raises(ValueError, match="positive integer"):
            optimal_threshold(1e-3, n_b)
    # the plan's set sizes are numpy integers
    assert optimal_threshold(1e-3, np.int64(8)) == optimal_threshold(1e-3, 8)


def test_rayleigh_nodes_are_a_proper_average():
    for sigma_v in (0.5, 1.0, 2.0):
        nodes, weights = rayleigh_nodes(sigma_v)
        assert (nodes > 0).all() and nodes.max() <= 6 * sigma_v + 1e-12
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        second = np.sum(weights * nodes ** 2)
        assert second == pytest.approx(sigma_v ** 2, rel=1e-7)
    with pytest.raises(ValueError):
        rayleigh_nodes(0.0)


def test_pmd_marginal_is_the_node_average():
    w = noise_bin_variance(10.0)
    eta = w * optimal_threshold(1e-2, 8)
    nodes, weights = rayleigh_nodes(1.0)
    direct = sum(wt * pmd_given_v(eta, float(v), 0.0625, w, 8)
                 for v, wt in zip(nodes, weights))
    assert pmd_law(eta, 1.0, 0.0625, w, 8) == pytest.approx(
        direct, abs=1e-6)


def test_pmd_marginal_degenerate_tag_amplitude():
    # a vanishing backward link makes detection blind: the missed
    # detection rate collapses to one minus the false alarm rate
    w = noise_bin_variance(10.0)
    eta = w * optimal_threshold(1e-2, 8)
    value = pmd_law(eta, 1e-6, 0.0625, w, 8)
    assert value == pytest.approx(1 - 1e-2, abs=1e-5)


def test_fsk_error_reference_behavior():
    w = noise_bin_variance(20.0)
    silent = ber_law(0.0, 1.0, w, 21)
    assert abs(silent - 0.5) < 1e-3
    values = [ber_law(1.0, 1.0, noise_bin_variance(s), 21)
              for s in (0.0, 10.0, 20.0, 30.0)]
    assert all(0.0 <= p <= 0.5 for p in values)
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_theory_sweep_curves():
    snr = (0.0, 10.0, 20.0)
    for plan in (build_subcarrier_plan("ook", 64), build_subcarrier_plan("fsk2", 64, 2)):
        vals = theory_sweep(plan, 0.5, 1.0, 1e-3, snr)
        assert vals.shape == (len(snr),)
        assert ((vals >= 0) & (vals <= 1)).all()
        assert (np.diff(vals) <= 1e-9).all(), vals
    with pytest.raises(ValueError, match="snr_grid"):
        theory_sweep(build_subcarrier_plan("ook", 64), 0.5, 1.0, 1e-3, (10.0, 0.0))
    with pytest.raises(ValueError, match="sigma_w_sq"):
        theory_sweep(build_subcarrier_plan("fsk2", 64), 0.5, 1.0, 1e-3, (math.nan,))


def test_theory_sweep_matches_direct_evaluation():
    values = theory_sweep(build_subcarrier_plan("ook", 64), 0.25, 1.0, 1e-3, (15.0,))
    w = noise_bin_variance(15.0)
    eta = w * optimal_threshold(1e-3, 32)
    direct = pmd_law(eta, 1.0, 0.0625, w, 32)
    assert values[0] == pytest.approx(direct, rel=1e-9)


def rayleigh_average(sigma_v, per_node):
    nodes, weights = rayleigh_nodes(sigma_v)
    return float(weights @ per_node(nodes))


@pytest.mark.parametrize("gamma", [0.25, 1.0])
def test_fsk1_theory_holds_at_high_snr(gamma):
    # fsk1 collects one bin per hypothesis at every n, so each energy is
    # a single exponential and the loss is w/(m + w) at every node
    snr = np.arange(30.0, 51.0, 5.0)
    values = theory_sweep(build_subcarrier_plan("fsk1", 64), gamma, 1.0, 1e-3, snr)
    for s, value in zip(snr, values):
        w = noise_bin_variance(s)
        ref = rayleigh_average(1.0, lambda v: special.betainc(
            1, 1, w / (gamma ** 2 * v * v + 2 * w)))
        assert value == pytest.approx(ref, rel=1e-7), s


DFT_SIZES = st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024])
# bins per hypothesis set that a plan reaches: ook n/2 (the only scheme
# with a missed-detection rate), fsk2 (n-1)//(zeta+1), fsk1 always 1
OOK_SET_SIZES = DFT_SIZES.map(lambda n: n // 2)
FSK_SET_SIZES = st.one_of(
    st.just(1),
    st.tuples(DFT_SIZES, st.integers(2, 4)).map(lambda p: (p[0] - 1) // (p[1] + 1)),
)
SNR_DB = st.floats(-10.0, 50.0)
GAMMA = st.floats(0.02, 2.0)
SIGMA_V = st.floats(0.3, 3.0)


@settings(max_examples=50)
@given(n_b=FSK_SET_SIZES, snr_db=SNR_DB, gamma=GAMMA, sigma_v=SIGMA_V)
def test_fsk_error_matches_closed_form(n_b, snr_db, gamma, sigma_v):
    # two independent Gamma(n_b) energies: P(signal set loses) is a
    # regularized incomplete beta function at every backward gain
    w = noise_bin_variance(snr_db)
    value = ber_law(gamma ** 2, sigma_v, w, n_b)
    ref = rayleigh_average(sigma_v, lambda v: special.betainc(
        n_b, n_b, w / (gamma ** 2 * v * v + 2 * w)))
    assert abs(value - ref) <= 1e-8 + 1e-6 * ref


@settings(max_examples=50)
@given(n_b=OOK_SET_SIZES, snr_db=SNR_DB, gamma=GAMMA, sigma_v=SIGMA_V,
       pfa=st.floats(1e-4, 0.1))
def test_pmd_marginal_matches_closed_form(n_b, snr_db, gamma, sigma_v, pfa):
    # the statistic is Gamma(n_b) with the bin mean as scale at every gain
    w = noise_bin_variance(snr_db)
    eta = w * special.gammainccinv(n_b, pfa)
    value = pmd_law(eta, sigma_v, gamma ** 2, w, n_b)
    ref = rayleigh_average(sigma_v, lambda v: special.gammainc(
        n_b, eta / (gamma ** 2 * v * v + w)))
    assert abs(value - ref) <= 1e-8 + 1e-6 * ref


@pytest.mark.parametrize("n_b", [1, 8, 32])
def test_zero_bin_gains_leave_only_noise(n_b):
    # a silent tag (gamma 0) leaves the statistic Erlang(n_b, w) whatever
    # the backward gain, and the two fsk sets tie: half the bits are lost
    w = noise_bin_variance(10.0)
    eta = 1.5 * n_b * w
    ref = special.gammainc(n_b, eta / w)
    assert pmd_given_v(eta, 1.0, 0.0, w, n_b) == pytest.approx(ref, abs=1e-8)
    assert pmd_law(eta, 1.0, 0.0, w, n_b) == pytest.approx(ref, abs=1e-8)
    assert ber_law(0.0, 1.0, w, n_b) == 0.5


def log_erlang_tail(n_b, x):
    """log P(G > x), G ~ Gamma(n_b, 1), from scipy: log1p of the lower
    tail where that is small, else the log of the upper tail."""
    lower = special.gammainc(n_b, x)
    if lower < 0.5:
        return math.log1p(-lower)
    upper = special.gammaincc(n_b, x)
    return math.log(upper) if upper > 0 else -math.inf


@settings(max_examples=300)
@given(n_b=st.integers(1, 512), log10_x=st.floats(-300.0, 6.0),
       near=st.floats(0.5, 2.0))
def test_erlang_tail_matches_scipy(n_b, log10_x, near):
    # x anywhere from 1e-300 to 1e6 and near the mode n_b - 1, where the
    # sum turns from the lower tail to the upper one; no floating-point
    # warning on the way
    xs = np.array([10.0 ** log10_x, max(n_b - 1, 1) * near])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_tail = analysis._erlang_log_tail(xs, n_b)[0]
    for x, got in zip(xs, log_tail):
        ref = log_erlang_tail(n_b, x)
        if ref == -math.inf:  # below the smallest double
            assert got < math.log(np.finfo(float).tiny), (x, got)
        else:
            assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-300, (x, got, ref)


def _exact_log_fsk_loss(signal, noise, n_b):
    """log I_p(n_b, n_b) at p = noise / (signal + noise), summed exactly.

    I_p(n_b, n_b) is the binomial tail P(Bin(m, p) >= n_b), m = 2n_b - 1.
    With p = P/D in lowest terms (the floats are exact rationals) and
    Q = D - P, it is P^n_b * sum_j C(m, n_b + j) P^j Q^(n_b-1-j) / D^m,
    whose integer sum runs by Horner's rule; only the final logs round.
    """
    p = Fraction(noise) / (Fraction(signal) + Fraction(noise))
    P, D = p.numerator, p.denominator
    m = 2 * n_b - 1
    total, q_power = 1, 1
    for j in range(n_b - 2, -1, -1):
        q_power *= D - P
        total = total * P + math.comb(m, n_b + j) * q_power
    return n_b * math.log(P) + math.log(total) - m * math.log(D)


def test_exact_fsk_loss_reference():
    # the exact sum against closed forms: I_p(1, 1) = p, I_p(2, 2) =
    # p^2 (3 - 2p), and the falsifying example scipy's betainc misses
    # by 1.2 % (n_b = 37, ratio 10**8.5: 2.7608742086014e-294)
    assert _exact_log_fsk_loss(3.0, 1.0, 1) == pytest.approx(math.log(0.25), rel=1e-15)
    assert _exact_log_fsk_loss(1.0, 3.0, 2) == pytest.approx(
        math.log(0.75 ** 2 * 1.5), rel=1e-15)
    assert _exact_log_fsk_loss(10.0 ** 8.5, 1.0, 37) == pytest.approx(
        math.log(2.7608742086014e-294), abs=1e-12)


@settings(max_examples=300)
@given(n_b=st.integers(1, 512), log10_ratio=st.floats(0.0, 12.0),
       noise=st.floats(1e-30, 1e30))
def test_fsk_loss_matches_the_regularized_beta(n_b, log10_ratio, noise):
    # P(E0 < E1) for Gamma(n_b) energies of scales signal and noise is
    # I_p(n_b, n_b) at p = noise / (signal + noise).  Both sides build it
    # from logs, so they are compared in log form: scipy's own error grows
    # with |log I| (7.8e-11 relative at 9e-287, n_b = 32), and so would a
    # relative tolerance.  Below about 1e-280 scipy's betainc is up to 10 %
    # low, so there the reference is the exact rational binomial sum
    signal = noise * 10.0 ** log10_ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(analysis._fsk_loss(np.array([signal]), noise, n_b)[0])
    ref = special.betainc(n_b, n_b, noise / (signal + noise))
    log_ref = (math.log(ref) if ref >= 1e-280
               else _exact_log_fsk_loss(signal, noise, n_b))
    if log_ref < math.log(1e-300):
        assert got < 1e-290, (got, log_ref)
    else:
        assert abs(math.log(got) - log_ref) <= 2e-12 * max(1.0, -log_ref), (got, ref)


@settings(max_examples=60)
@given(scheme=st.sampled_from(["ook", "fsk1", "fsk2"]),
       n=st.sampled_from([64, 128, 256, 512]), gamma=st.floats(0.0, 2.0),
       sigma_v=st.floats(0.01, 100.0), pfa=st.floats(1e-12, 0.99),
       snr=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=40, unique=True))
def test_theory_sweep_is_the_pointwise_law(scheme, n, gamma, sigma_v, pfa, snr):
    # the curve's array pass, in blocks of points, gives what a one-point
    # curve gives at each point
    snr = np.sort(snr)
    plan = build_subcarrier_plan(scheme, n)
    values = theory_sweep(plan, gamma, sigma_v, pfa, snr)
    for s, value in zip(snr, values):
        ref = theory_sweep(plan, gamma, sigma_v, pfa, [s])[0]
        assert value == pytest.approx(ref, rel=1e-13, abs=0.0), s


@settings(max_examples=100)
@given(n_b=st.integers(1, 512),
       log10_pfa=st.lists(st.floats(-12.0, math.log10(0.99)), min_size=1, max_size=20))
def test_threshold_array_is_the_scalar_solve(n_b, log10_pfa):
    # one masked loop over an array of targets takes each target's own
    # steps: every threshold is the scalar one, bit for bit
    targets = 10.0 ** np.array(log10_pfa)
    thresholds = optimal_threshold(targets, n_b)
    assert thresholds.shape == targets.shape
    for target, x in zip(targets, thresholds):
        assert x == optimal_threshold(float(target), n_b)
    square = optimal_threshold(np.tile(targets, (2, 1)), n_b)
    assert square.shape == (2, len(targets)) and (square == thresholds).all()
