"""Analytical error probabilities for the non-coherent detectors.

The per-bin SNR convention: direct and forward links are tapped delay
lines with uniform power profiles normalized to unit total power, so
every per-subcarrier response has unit mean-square gain.  The backward
link from the tag is a single Rayleigh tap of mean-square gain
sigma_v**2.  SNR is defined per data subcarrier after the receiver DFT
on the direct link: with unit-power symbols, snr_db fixes the per-bin
noise energy at 10**(-snr_db/10) (``noise_bin_variance``), which the
simulator uses too.

Every detector statistic here is a sum of independent exponentials:
each hypothesis-set bin contributes |bin|**2 with mean equal to its
total complex variance.  All variances are per-bin energies after the
receiver DFT, so a landing bin conditioned on backward gain v adds
gamma_sq * v**2 to the bin noise energy.

The noise-only OOK statistic of n_b bins at bin energy w is w times a
Gamma(n_b, 1) (Erlang) variable, so its false-alarm probability is the
Poisson sum exp(-x) * sum_{j<n_b} x**j / j! at x = eta/w, the
energy-detector law of Urkowitz (1967), and the CFAR threshold is w times
the unit one, found by Newton steps on the log tail from n_b alone, for
a whole array of targets in one masked loop.

Every bin shares one gain, so the signal-bearing laws are exact at
each node v_j of the backward-gain rule too: the OOK statistic is
Gamma(n_b) with the bin mean m_j as scale, so its CDF at eta is one
less the same Erlang tail at eta/m_j, and the FSK bit is lost when one
Gamma(n_b) energy falls below another, with probability I_p(n_b, n_b)
at p = w/(m_j + w), a binomial tail.
Both tails are sums of terms built up by cumulative products of term
ratios at most 1, each taken on the side of its mode where the terms
fall, and a curve evaluates them on one (points, nodes) array.

The backward link magnitude is Rayleigh, averaged with a 64-node rule
on [0, 6*sigma_v] whose weights are normalized to unit mass over the
truncated support, and each exact law is averaged node by node.
``theory_sweep`` is the one curve entry: the plan's scheme picks the
law and its set size n_b.  The module reads the plan, and with it the
link geometry, from ``waveform`` only, never from the simulator.
"""
from __future__ import annotations

import collections
import functools
import math
import types

import numpy as np

from .waveform import SubcarrierPlan, build_subcarrier_plan

__all__ = [
    "optimal_threshold", "rayleigh_nodes", "theory_sweep", "noise_bin_variance",
]

_LOG_2PI = math.log(2.0 * math.pi)
_NEWTON_REL_TOL = 1e-15
_N_NODES = 64  # Gauss-Legendre nodes of the backward-gain average
_POINT_BLOCK = 16  # SNR points per array pass: (16 * 64, terms) arrays of a few MB


def noise_bin_variance(snr_db: float) -> float:
    """Per-bin noise energy after the DFT at the given data-bin SNR."""
    return 10.0 ** (-snr_db / 10.0)


def _bin_count(n_b) -> int:
    if isinstance(n_b, bool) or not isinstance(n_b, (int, np.integer)) or n_b < 1:
        raise ValueError(f"n_b must be a positive integer, got {n_b!r}")
    return int(n_b)


def _stirling_error(k: int) -> float:
    """log(k!) - (k + 1/2)*log(k) + k - log(2*pi)/2, for k >= 1."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * _LOG_2PI
    r = 1.0 / (k * k)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / k


def _ratio_sum(ratios: np.ndarray) -> np.ndarray:
    """sum_i prod_{j <= i} ratios[..., j] along the last axis; overwrites ratios."""
    return np.multiply.accumulate(ratios, axis=-1, out=ratios).sum(axis=-1)


def _erlang_log_tail(x, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """log P(G > x) and log f(x) for G ~ Gamma(n_b, 1), at each x > 0.

    The density f(x) = x**k * exp(-x) / k!, k = n_b - 1, is the Poisson
    term P(N = k), N ~ Poisson(x), and G > x exactly when N <= k.  It is
    taken in Loader's (2000) saddle-point form exp(-stirling_error(k) -
    k*(u - log1p(u))) / sqrt(2*pi*k), u = x/k - 1, so that k*log(x), x
    and log(k!), each up to thousands, never cancel.  A tail is f(x)
    times the sum of its terms' ratios to P(N = k), cumulative products
    of per-term ratios at most 1, and each x sums only the side of the
    mode where they fall: at x >= k the upper tail, terms j < k with
    ratios j/x; below k the lower tail P(G <= x), terms k + i with
    ratios x/(k + i), of which the first k + 40 leave out less than
    exp(-40) of the sum.  On the other side the ratios grow to
    exp(k*log(k/x)) while f(x) shrinks to match.
    """
    x = np.asarray(x, dtype=np.float64)
    k = n_b - 1
    if k == 0:
        return -x, -x
    u = (x - k) / k
    log_tail = np.empty_like(x)
    above = x >= k
    below = ~above
    # log(x/k) is log1p(u) near the mode; below k/2 it is taken from
    # x/k itself, as 1 + u would drop the low digits of a small x; at
    # x = 0 the log density is -inf, which gives the right tails of 0 and 1
    with np.errstate(divide="ignore"):
        log_ratio = np.where(x < 0.5 * k, np.log(x / k), np.log1p(u))
        log_density = (-_stirling_error(k) - k * (u - log_ratio)
                       - 0.5 * (_LOG_2PI + math.log(k)))
        if above.any():
            ratios = np.arange(k, 0, -1) / x[above][:, None]
            log_tail[above] = log_density[above] + np.log1p(_ratio_sum(ratios))
        if below.any():
            ratios = x[below][:, None] / np.arange(n_b, n_b + k + 40)
            lower = log_density[below] + np.log(_ratio_sum(ratios))
            log_tail[below] = np.log1p(-np.exp(lower))
    return np.minimum(log_tail, 0.0), log_density


def _node_average(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The weighted average of per-node values along the last axis.

    It is divided by the weights' own sum, which is 1 only to rounding,
    so that a value the same at every node is its own average exactly.
    """
    return np.sum(weights * values, axis=-1) / np.sum(weights)


def _missed_detection(eta, v, weights, gamma_sq: float, sigma_w_sq, n_b: int):
    """F(eta) of the signal statistic averaged over gains v with weights.

    The statistic at gain v_j is Gamma(n_b) with the bin mean m_j =
    gamma_sq*v_j**2 + sigma_w_sq as scale, so F(eta) is the Erlang CDF
    at eta/m_j, averaged node by node, at every point of the matching
    arrays ``eta`` and ``sigma_w_sq`` at once; their axes go in front of
    the node axis.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if not np.all((eta >= 0) & (eta < math.inf)):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    means = gamma_sq * (v * v) + np.asarray(sigma_w_sq)[..., None]
    log_tail = _erlang_log_tail(eta[..., None] / means, n_b)[0]
    return _node_average(weights, -np.expm1(log_tail))


@functools.cache
def _legendre_rule():
    """The Gauss-Legendre nodes and weights, computed once and read-only."""
    rule = np.polynomial.legendre.leggauss(_N_NODES)
    for part in rule:
        part.flags.writeable = False
    return rule


def rayleigh_nodes(sigma_v: float):
    """Nodes and normalized weights for averaging over the backward-link gain.

    Gauss-Legendre on [0, 6*sigma_v] against the density
    (v/sigma_v**2) * exp(-v**2/sigma_v**2); the weights are normalized
    to sum to one over the truncated range (the mass beyond 6*sigma_v
    is below exp(-36)), making the average a proper expectation.
    """
    if not 0 < sigma_v < math.inf:
        raise ValueError(f"sigma_v must be finite and > 0, got {sigma_v}")
    x, w = _legendre_rule()
    v = 3.0 * sigma_v * (x + 1.0)
    density = (v / sigma_v ** 2) * np.exp(-(v / sigma_v) ** 2)
    weights = w * density
    return v, weights / weights.sum()


def optimal_threshold(pfa_target, n_b: int):
    """Threshold x on n_b unit noise bins whose false-alarm probability hits the target.

    x is the root of log P(G > x) = log(pfa_target) for G ~ Gamma(n_b, 1);
    at per-bin noise energy w the threshold is w*x.  That log tail
    is concave and falls with slope -f(x)/P(G > x), so Newton's method
    from x = n_b lands above the root after at most one step and then
    descends to it; a bracket kept from the residual's signs catches a
    step that rounding pushes outside it.  Iteration stops at 1e-15
    relative.  An array of targets gives the array of thresholds: one
    loop steps every unsolved target and drops each as it stops, so
    each takes the same steps as when solved alone.
    """
    targets = np.asarray(pfa_target, dtype=np.float64)
    if not np.all((targets > 0) & (targets < 1)):
        raise ValueError(f"pfa_target must be in (0, 1), got {pfa_target}")
    n_b = _bin_count(n_b)
    roots = np.empty(targets.size)
    todo = np.arange(targets.size)
    log_target = np.log(targets.ravel())
    lo, hi = np.zeros(targets.size), np.full(targets.size, math.inf)
    x = np.full(targets.size, float(n_b))
    for _ in range(100):
        log_tail, log_density = _erlang_log_tail(x, n_b)
        residual = log_tail - log_target
        rising = residual > 0
        np.copyto(lo, x, where=rising)
        np.copyto(hi, x, where=~rising)
        step = residual * np.exp(log_tail - log_density)
        tol = _NEWTON_REL_TOL * x
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        x += step
        if done.any():
            roots[todo[done]] = x[done]
            going = ~done
            if not going.any():
                roots = roots.reshape(targets.shape)
                return float(roots) if roots.ndim == 0 else roots
            todo, log_target, lo, hi, x = (
                a[going] for a in (todo, log_target, lo, hi, x))
        # rounding near the root; hi is finite by now
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    raise RuntimeError(f"threshold search stalled for pfa_target "
                       f"{targets.ravel()[todo]}")


def _fsk_loss(signal, noise, n_b: int) -> np.ndarray:
    """P(E0 < E1) for independent Gamma(n_b) energies of scales signal >= noise.

    It is the regularized beta I_p(n_b, n_b) at p = noise / (signal +
    noise), which is P(B >= n_b) for B ~ Bin(n, p), n = 2*n_b - 1.  The
    first term C(n, n_b) * p**n_b * q**(n_b - 1) is taken in log space
    from r = signal/noise, log p = -log1p(r) and log q = log(r) + log p,
    so that no power of p underflows before its coefficient lifts it;
    term k + 1 is term k times (n - k)/(k + 1) * p/q, with p/q = 1/r, a
    ratio at most 1.  At equal scales the two energies are
    exchangeable, and it is exactly 1/2.
    """
    n = 2 * n_b - 1
    r = signal / noise
    log_p = -np.log1p(r)
    log_first = (math.lgamma(n + 1.0) - math.lgamma(n_b + 1.0) - math.lgamma(n_b)
                 + n_b * log_p + (n_b - 1) * (np.log(r) + log_p))
    k = np.arange(n_b, n)
    later = _ratio_sum((noise / signal)[..., None] * ((n - k) / (k + 1.0)))
    return np.where(signal == noise, 0.5, np.exp(log_first) * (1.0 + later))


def _bit_error(v, weights, gamma_sq: float, sigma_w_sq, n_b: int):
    """P(E0 - E1 < 0) with bit 0 sent, averaged over gains v with weights.

    ``_fsk_loss`` at every node, at every point of an array
    ``sigma_w_sq`` at once.
    """
    noise = np.asarray(sigma_w_sq)[..., None]
    signal = gamma_sq * (v * v) + noise
    return _node_average(weights, _fsk_loss(signal, noise, n_b))


def theory_sweep(plan: SubcarrierPlan, gamma_mag: float, sigma_v: float,
                 pfa_target: float, snr_grid) -> np.ndarray:
    """The plan's error probability at each SNR of ``snr_grid``.

    An ook plan gives the missed-detection probability at the CFAR
    threshold for ``pfa_target``.  An fsk plan gives the bit error
    probability, which does not read ``pfa_target``: with bit 0 sent,
    set 0 carries signal plus noise and set 1 noise only, and bit 1 sent
    is the mirror image.  The exact laws run on (points, nodes) arrays,
    in one pass for up to ``_POINT_BLOCK`` points.
    """
    snr_grid = np.asarray(snr_grid, dtype=np.float64)
    if snr_grid.ndim != 1 or len(snr_grid) == 0 or np.any(np.diff(snr_grid) <= 0):
        raise ValueError("snr_grid must be a nonempty strictly increasing vector")
    # point by point: numpy's array power differs from the scalar one in
    # the last bit of a few percent of SNRs
    w_bins = np.array([noise_bin_variance(s) for s in snr_grid])
    if not np.all(w_bins > 0):
        raise ValueError("sigma_w_sq must be > 0 at every SNR")
    n_b = len(plan.kb0)
    gamma_sq = gamma_mag ** 2
    v_nodes, weights = rayleigh_nodes(sigma_v)
    # the noise statistic at bin energy w is w times the unit one
    unit_eta = optimal_threshold(pfa_target, n_b) if plan.scheme == "ook" else None
    values = np.empty(len(snr_grid))
    for lo in range(0, len(w_bins), _POINT_BLOCK):
        w = w_bins[lo:lo + _POINT_BLOCK]
        values[lo:lo + _POINT_BLOCK] = (
            _bit_error(v_nodes, weights, gamma_sq, w, n_b) if unit_eta is None
            else _missed_detection(unit_eta * w, v_nodes, weights, gamma_sq, w, n_b))
    return values


# The benchmark's oracle test still makes the call theory_sweep(kind,
# snr_grid, TheoryParams(scheme, n, gamma_mag, zeta)) and reads .abscissa
# and .values.  The benchmark's files change only with the benchmark,
# whose next change drops this (ROADMAP item 3).
TheoryParams = collections.namedtuple(
    "TheoryParams", "scheme n gamma_mag zeta sigma_v pfa_target",
    defaults=(None, 1.0, 1e-3))


def _take_the_benchmark_call(sweep):
    @functools.wraps(sweep)
    def entry(*args, **kwargs):
        if len(args) != 3 or not isinstance(args[0], str):
            return sweep(*args, **kwargs)
        _, snr, p = args
        values = sweep(build_subcarrier_plan(p.scheme, p.n, p.zeta), p.gamma_mag,
                       p.sigma_v, p.pfa_target, snr)
        return types.SimpleNamespace(abscissa=np.asarray(snr, float), values=values)
    return entry


theory_sweep = _take_the_benchmark_call(theory_sweep)
