"""Tests for the characteristic-function error analysis."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from srbc.analysis import (
    ExpMixSpec,
    TheoryParams,
    charfn_h0,
    charfn_h1,
    fsk_error_prob,
    gil_pelaez_cdf,
    noise_bin_variance,
    optimal_threshold,
    pfa_of_threshold,
    pmd_given_v,
    pmd_marginal,
    rayleigh_nodes,
    theory_sweep,
)


def exp_cf(spec):
    return lambda t: charfn_h0(t, spec)


def test_noise_bin_variance_convention():
    assert noise_bin_variance(0.0) == pytest.approx(1.0)
    assert noise_bin_variance(10.0) == pytest.approx(0.1)
    assert noise_bin_variance(20.0) == pytest.approx(0.01)


def test_charfn_reference_values():
    spec = ExpMixSpec(np.array([1.0]))
    assert charfn_h0(np.array([0.0]), spec)[0] == pytest.approx(1.0)
    value = charfn_h0(np.array([1.0]), spec)[0]
    assert abs(value - (0.5 + 0.5j)) < 1e-12
    t = np.linspace(-30, 30, 101)
    mags = np.abs(charfn_h0(t, ExpMixSpec(np.array([2.0, 1.0, 0.5]))))
    assert (mags <= 1 + 1e-12).all()


def test_charfn_matches_empirical_average():
    rng = np.random.default_rng(127)
    spec = ExpMixSpec(np.full(4, 2.0))  # four components of mean 0.5
    draws = rng.exponential(0.5, size=(1_000_000, 4)).sum(axis=1)
    for t in (0.3, 1.0, 3.0):
        emp = np.mean(np.exp(1j * t * draws))
        num = charfn_h0(np.array([t]), spec)[0]
        assert abs(num - emp) < 1e-2, t


def test_charfn_h1_reduces_to_h0():
    t = np.linspace(-5, 5, 41)
    base = charfn_h0(t, ExpMixSpec(np.full(8, 1 / 0.1)))
    assert np.allclose(charfn_h1(t, 0.25, 0.0, 1.0, 0.1, 8), base, atol=1e-12)
    assert np.allclose(charfn_h1(t, 0.0, 1.0, 1.0, 0.1, 8), base, atol=1e-12)


def test_charfn_h1_matches_signal_model():
    # eight bins, each |gamma*v*H + W|^2 with H ~ CN(0,1), W ~ CN(0,0.1)
    rng = np.random.default_rng(131)
    n_b, gamma_sq, v, w_var = 8, 0.25, 1.0, 0.1
    h = rng.normal(size=(1_000_000, n_b, 2)) @ np.array([1, 1j]) / np.sqrt(2)
    w = rng.normal(size=(1_000_000, n_b, 2)) @ np.array([1, 1j]) * np.sqrt(w_var / 2)
    stat = np.abs(math.sqrt(gamma_sq) * v * h + w).__pow__(2).sum(axis=1)
    mean_expect = n_b * (gamma_sq * v ** 2 + w_var)
    assert abs(stat.mean() - mean_expect) < 0.01 * mean_expect
    for t in (0.5, 1.5):
        emp = np.mean(np.exp(1j * t * stat))
        num = charfn_h1(np.array([t]), gamma_sq, v, 1.0, w_var, n_b)[0]
        assert abs(num - emp) < 1e-2, t


def test_gil_pelaez_exponential_reference():
    cf = exp_cf(ExpMixSpec(np.array([1.0])))
    assert abs(gil_pelaez_cdf(cf, 1.0) - (1 - math.exp(-1))) < 1e-6
    assert abs(gil_pelaez_cdf(cf, 1e-6)) < 1e-4


def test_gil_pelaez_erlang_reference():
    cf = exp_cf(ExpMixSpec(np.array([1.0, 1.0])))
    expect = 1 - math.exp(-2) * 3  # Erlang-2 at x = 2
    assert abs(gil_pelaez_cdf(cf, 2.0) - expect) < 1e-6


def test_gil_pelaez_tracks_closed_form_over_range():
    mean = 2.0
    cf = exp_cf(ExpMixSpec(np.array([1 / mean] * 2)))
    xs = np.geomspace(0.01 * 2 * mean, 10 * 2 * mean, 40)
    worst = max(abs(gil_pelaez_cdf(cf, float(x))
                    - stats.gamma.cdf(x, a=2, scale=mean)) for x in xs)
    assert worst < 1e-6, worst


def test_pfa_limits_and_sampling():
    w = 0.1
    assert pfa_of_threshold(0.0, 32) == 1.0
    assert pfa_of_threshold(1e4 / w, 32) < 1e-12
    rng = np.random.default_rng(137)
    draws = rng.exponential(w, size=(1_000_000, 32)).sum(axis=1)
    eta = 4.0
    emp = np.mean(draws > eta)
    se = math.sqrt(emp * (1 - emp) / draws.size)
    assert abs(pfa_of_threshold(eta / w, 32) - emp) < 3 * se


def test_pmd_given_v_closed_form():
    # two bins: the conditional statistic is Erlang-2 with a lifted mean
    eta, gamma_sq, v, w_var = 0.5, 0.25, 1.2, 0.1
    m1 = gamma_sq * v ** 2 + w_var
    expect = stats.gamma.cdf(eta, a=2, scale=m1)
    assert abs(pmd_given_v(eta, v, gamma_sq, 1.0, w_var, 2) - expect) < 1e-8
    assert pmd_given_v(0.0, v, gamma_sq, 1.0, w_var, 2) == 0.0


def test_threshold_hits_requested_false_alarm():
    median = optimal_threshold(0.5, 32)
    assert median == pytest.approx(stats.gamma.ppf(0.5, a=32), rel=1e-6)
    for target in (1e-1, 1e-2, 1e-3):
        x = optimal_threshold(target, 32)
        assert pfa_of_threshold(x, 32) == pytest.approx(target, rel=1e-4)
    assert optimal_threshold(1e-3, 32) > optimal_threshold(1e-1, 32)


@settings(max_examples=200)
@given(n_b=st.integers(1, 512), log10_pfa=st.floats(-8.0, math.log10(0.99)))
def test_threshold_and_pfa_match_the_erlang_tail(n_b, log10_pfa):
    # the noise-only statistic of n_b unit bins is Gamma(n_b, 1), so the
    # threshold is gammainccinv and the false-alarm rate is gammaincc
    pfa = 10.0 ** log10_pfa
    x = optimal_threshold(pfa, n_b)
    assert x == pytest.approx(special.gammainccinv(n_b, pfa), rel=1e-12)
    assert pfa_of_threshold(x, n_b) == pytest.approx(
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
    for n_b in (0, -3, 2.0, 2.5, True, "8", np.ones(2)):
        with pytest.raises(ValueError, match="positive integer"):
            optimal_threshold(1e-3, n_b)
        with pytest.raises(ValueError, match="positive integer"):
            pfa_of_threshold(1.0, n_b)
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
    direct = sum(wt * pmd_given_v(eta, float(v), 0.0625, 1.0, w, 8)
                 for v, wt in zip(nodes, weights))
    assert pmd_marginal(eta, 1.0, 0.0625, 1.0, w, 8) == pytest.approx(
        direct, abs=1e-6)


def test_pmd_marginal_degenerate_tag_amplitude():
    # a vanishing backward link makes detection blind: the missed
    # detection rate collapses to one minus the false alarm rate
    w = noise_bin_variance(10.0)
    eta = w * optimal_threshold(1e-2, 8)
    value = pmd_marginal(eta, 1e-6, 0.0625, 1.0, w, 8)
    assert value == pytest.approx(1 - 1e-2, abs=1e-5)


def test_fsk_error_reference_behavior():
    w = noise_bin_variance(20.0)
    silent = fsk_error_prob(0.0, 1.0, 1.0, w, 21)
    assert abs(silent - 0.5) < 1e-3
    values = [fsk_error_prob(1.0, 1.0, 1.0, noise_bin_variance(s), 21)
              for s in (0.0, 10.0, 20.0, 30.0)]
    assert all(0.0 <= p <= 0.5 for p in values)
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_theory_sweep_curves():
    snr = (0.0, 10.0, 20.0)
    ook = theory_sweep("OOK_PMD", snr,
                       TheoryParams("ook", 64, 0.5, pfa_target=1e-3))
    fsk = theory_sweep("FSK_BER", snr, TheoryParams("fsk2", 64, 0.5, zeta=2))
    for curve in (ook, fsk):
        assert np.array_equal(curve.abscissa, np.array(snr))
        vals = curve.values
        assert ((vals >= 0) & (vals <= 1)).all()
        assert (np.diff(vals) <= 1e-9).all(), vals
    with pytest.raises(ValueError):
        theory_sweep("BLER", snr, TheoryParams("ook", 64, 0.5))


def test_theory_sweep_matches_direct_evaluation():
    params = TheoryParams("ook", 64, 0.25, pfa_target=1e-3)
    curve = theory_sweep("OOK_PMD", (15.0,), params)
    w = noise_bin_variance(15.0)
    eta = w * optimal_threshold(1e-3, 32)
    direct = pmd_marginal(eta, 1.0, 0.0625, 1.0, w, 32)
    assert curve.values[0] == pytest.approx(direct, rel=1e-9)


def rayleigh_average(sigma_v, per_node, n_nodes=64):
    nodes, weights = rayleigh_nodes(sigma_v, n_nodes)
    return float(weights @ per_node(nodes))


@pytest.mark.parametrize("gamma", [0.25, 1.0])
def test_fsk1_theory_holds_at_high_snr(gamma):
    # fsk1 collects one bin per hypothesis at every n, so the difference
    # statistic's characteristic function decays only like 1/t**2
    snr = np.arange(30.0, 51.0, 5.0)
    curve = theory_sweep("FSK_BER", snr, TheoryParams("fsk1", 64, gamma))
    for s, value in zip(snr, curve.values):
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
    value = fsk_error_prob(gamma ** 2, sigma_v, 1.0, w, n_b)
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
    value = pmd_marginal(eta, sigma_v, gamma ** 2, 1.0, w, n_b)
    ref = rayleigh_average(sigma_v, lambda v: special.gammainc(
        n_b, eta / (gamma ** 2 * v * v + w)))
    assert abs(value - ref) <= 1e-8 + 1e-6 * ref


@pytest.mark.parametrize("v, snr_db", [(0.3, 0.0), (1.0, 10.0), (2.0, 20.0)])
def test_pmd_given_v_with_two_bin_gains(v, snr_db):
    # three bins of gain 0.5 and two of gain 2: the statistic is the sum
    # of two independent Gamma variables, whose CDF is a convolution
    gamma_sq, w = 0.25, noise_bin_variance(snr_db)
    gains = np.array([0.5, 2.0, 0.5, 2.0, 0.5])
    m_lo, m_hi = gamma_sq * v * v * 0.5 + w, gamma_sq * v * v * 2.0 + w
    eta = 5 * (m_lo + m_hi) / 2
    ref, _ = integrate.quad(
        lambda s: (stats.gamma.pdf(s, 3, scale=m_lo)
                   * stats.gamma.cdf(eta - s, 2, scale=m_hi)),
        0.0, eta, epsabs=1e-12, epsrel=1e-10)
    assert pmd_given_v(eta, v, gamma_sq, gains, w, 5) == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("v, snr_db", [(0.3, 0.0), (1.0, 10.0), (2.0, 20.0)])
def test_pmd_given_v_with_a_zero_bin_gain(v, snr_db):
    # a zero gain is a noise-only bin: with gains [1, 0] the statistic is
    # one signal exponential of mean m1 plus one noise exponential of
    # mean w, whose CDF is the hypoexponential one
    gamma_sq, w = 0.25, noise_bin_variance(snr_db)
    m1 = gamma_sq * v * v + w
    eta = m1 + w
    ref = 1 - (m1 * math.exp(-eta / m1) - w * math.exp(-eta / w)) / (m1 - w)
    value = pmd_given_v(eta, v, gamma_sq, np.array([1.0, 0.0]), w, 2)
    assert value == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("n_b", [1, 8, 32])
def test_zero_bin_gains_leave_only_noise(n_b):
    # with every gain zero the statistic is Erlang(n_b, w) whatever the
    # backward gain, and the two fsk sets tie: half the bits are lost
    w = noise_bin_variance(10.0)
    eta = 1.5 * n_b * w
    ref = special.gammainc(n_b, eta / w)
    assert pmd_given_v(eta, 1.0, 0.25, 0.0, w, n_b) == pytest.approx(ref, abs=1e-8)
    assert pmd_marginal(eta, 1.0, 0.25, 0.0, w, n_b) == pytest.approx(ref, abs=1e-8)
    assert fsk_error_prob(0.25, 1.0, 0.0, w, n_b) == 0.5


@settings(max_examples=25)
@given(sigma_h_sq=st.lists(st.floats(0.2, 3.0), min_size=2, max_size=6),
       snr_db=SNR_DB, gamma=GAMMA, sigma_v=SIGMA_V, pfa=st.floats(1e-4, 0.1))
def test_pmd_marginal_with_unequal_bin_variances(sigma_h_sq, snr_db, gamma,
                                                 sigma_v, pfa):
    # unequal bin gains give unequal means at every node; the one
    # inversion of the averaged characteristic function must equal the
    # average of the per-node inversions (on a short rule, for speed)
    n_b, w = len(sigma_h_sq), noise_bin_variance(snr_db)
    gains = np.array(sigma_h_sq)
    eta = w * special.gammainccinv(n_b, pfa)
    value = pmd_marginal(eta, sigma_v, gamma ** 2, gains, w, n_b, n_nodes=8)
    ref = rayleigh_average(sigma_v, lambda nodes: np.array([
        pmd_given_v(eta, float(v), gamma ** 2, gains, w, n_b) for v in nodes]), 8)
    assert abs(value - ref) <= 1e-8
