"""Analytical error probabilities for the non-coherent detectors.

Every detector statistic here is a sum of independent exponentials:
each hypothesis-set bin contributes |bin|**2 with mean equal to its
total complex variance.  All variances are per-bin energies after the
receiver DFT, so with unit-power symbols and unit-gain links the
per-bin noise energy at snr_db is 10**(-snr_db/10) and a landing bin
conditioned on backward gain v adds gamma_sq * v**2 * sigma_h_sq.

The noise-only OOK statistic of n_b bins at bin energy w is w times a
Gamma(n_b, 1) (Erlang) variable, so its false-alarm probability is the
Poisson sum exp(-x) * sum_{j<n_b} x**j / j! at x = eta/w, the
energy-detector law of Urkowitz (1967), and the CFAR threshold is w times
the unit one, found by Newton steps on the log tail from n_b alone.

The signal-bearing laws have no such closed form.  Their
characteristic functions are products of (1 - i*t*mean)**-1 factors
(a negative mean is a subtracted exponential, as in the FSK energy
difference); CDFs come from the sign-split inversion integral
F(x) = 1/2 - (1/pi) * int_0^T Im[phi(t) exp(-i t x)] / t dt,
evaluated with oscillation-aware adaptive quadrature.

The backward link magnitude is Rayleigh, averaged with a 64-node rule
on [0, 6*sigma_v] whose weights are normalized to unit mass over the
truncated support.  The inversion integral is linear in phi, so a
marginal is one inversion of the node-averaged characteristic function
sum_j w_j phi_j(t), not one inversion per node.  The truncation T is
the first doubling at which a certified bound on the dropped tail,
taken node by node so that phase cancellation between nodes cannot
hide a slowly decaying one, falls below a tenth of the absolute
tolerance.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import noise_bin_variance
from .quadrature import QuadratureError, integrate_adaptive
from .waveform import build_subcarrier_plan

__all__ = [
    "ExpMixSpec", "QuadratureSpec", "TheoryCurve", "TheoryParams",
    "QuadratureError", "charfn_h0", "charfn_h1", "gil_pelaez_cdf",
    "pfa_of_threshold", "pmd_given_v", "pmd_marginal", "optimal_threshold",
    "fsk_error_prob", "theory_sweep", "noise_bin_variance",
]

_INIT_PANEL_CAP = 16384
_REL_TOL = 1e-8
_MAX_EVALS = 3_000_000
_LOG_2PI = math.log(2.0 * math.pi)
_NEWTON_REL_TOL = 1e-15


@dataclass(frozen=True)
class ExpMixSpec:
    """Rates of the independent exponential components of a statistic."""

    rates: np.ndarray

    def __post_init__(self):
        rates = np.atleast_1d(np.asarray(self.rates, dtype=np.float64))
        if rates.ndim != 1 or len(rates) == 0 or np.any(rates <= 0):
            raise ValueError("rates must be a nonempty vector of positive reals")
        object.__setattr__(self, "rates", rates)

    @property
    def means(self) -> np.ndarray:
        return 1.0 / self.rates


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation and absolute tolerance of one inversion integral."""

    truncation: float
    abs_tol: float = 1e-9

    def __post_init__(self):
        if self.truncation <= 0 or self.abs_tol <= 0:
            raise ValueError("truncation and tolerance must be positive")


@dataclass
class TheoryCurve:
    """Analytical values on an SNR grid; NaN marks a failed point."""

    abscissa: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class TheoryParams:
    """System-level knobs the analytical sweeps need."""

    scheme: str
    n: int
    gamma_mag: float
    zeta: int = 1
    sigma_v: float = 1.0
    pfa_target: float = 1e-3


_T_BLOCK = 2048  # t values per block: one (64 nodes, t) float array is 1 MB


@dataclass(frozen=True)
class _ExpMixture:
    """Characteristic function sum_j w_j * prod_g (1 - i*t*m_jg)**-c_g.

    Node j (of the backward-gain rule, or the only one) has weight w_j
    and c_g independent exponentials of mean m_jg in column g; a
    negative mean is a subtracted exponential, as in an energy difference.
    """

    weights: np.ndarray  # (nodes,)
    means: np.ndarray  # (nodes, columns)
    counts: np.ndarray  # (columns,)

    def __call__(self, t):
        return _prod_charfn(t, self)

    def tail_bound(self, truncation, x: float = 0.0) -> np.ndarray:
        """Certified bound on |int_T^inf phi(t) exp(-i*t*x) / t dt| at each T.

        Each factor has |1 - i*t*m| >= t*|m|, so |phi_j(t)| <= P_j(t) =
        prod_g (t*|m_jg|)**-c_g and the tail is at most P(T) / K, with
        P = sum_j w_j P_j and K = sum_g c_g.  For x != 0, integrating by
        parts, with |phi_j'| <= K*|phi_j|/t <= K*P_j/t, bounds it by
        (E(T) + P(T)) / (T*|x|), where E(T) = sum_j w_j*|phi_j(T)|.
        Both bound every node's magnitude, so no phase cancellation
        between nodes can hide a slowly decaying one.
        """
        truncation = np.asarray(truncation, dtype=np.float64)
        tm = np.multiply.outer(truncation, np.abs(self.means))
        power = np.exp(np.minimum(-np.log(tm) @ self.counts, 700.0)) @ self.weights
        if x == 0:
            return power / self.counts.sum()
        envelope = np.exp(-0.5 * np.log1p(tm * tm) @ self.counts) @ self.weights
        with np.errstate(over="ignore"):  # an infinite bound is a true one
            by_parts = (envelope + power) / (truncation * abs(x))
        return np.minimum(power / self.counts.sum(), by_parts)


def _prod_charfn(t, mix: _ExpMixture):
    """Evaluate the mixture's characteristic function at t.

    Each factor is exp(-c*log(1 - i*t*m)).  The base has real part 1,
    so the principal log is continuous in t, and at large t*m the
    magnitude underflows to 0 where a complex power overflows to NaN.
    The node average runs over blocks of t so that no (nodes, t) array
    outgrows a few MB, however many panels the quadrature sends.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    flat = t_arr.ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    for lo in range(0, len(flat), _T_BLOCK):
        tb = flat[lo:lo + _T_BLOCK]
        log_mag = phase = 0.0
        for m, c in zip(mix.means.T, mix.counts):
            a = m[:, None] * tb
            log_mag = log_mag - 0.5 * c * np.log1p(a * a)
            phase = phase + c * np.arctan(a)
        mag = np.exp(log_mag)
        out[lo:lo + _T_BLOCK] = (mix.weights @ (mag * np.cos(phase))
                                 + 1j * (mix.weights @ (mag * np.sin(phase))))
    return complex(out[0]) if np.isscalar(t) else out.reshape(t_arr.shape)


def charfn_h0(t, spec: ExpMixSpec):
    """Characteristic function of the noise-only statistic."""
    means, counts = np.unique(spec.means, return_counts=True)
    return _prod_charfn(t, _ExpMixture(np.ones(1), means[None, :], counts))


def _h1_means(gamma_sq: float, v, sigma_h_sq, sigma_w_sq: float, n_b: int):
    """Distinct bin means of the signal-bearing statistic and their counts.

    The means have one row per gain in v and one column per distinct
    value of ``sigma_h_sq``; a zero gain is a noise-only column.
    """
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if np.any(v < 0) or gamma_sq < 0:
        raise ValueError("v and gamma_sq must be >= 0")
    if sigma_w_sq <= 0:
        raise ValueError("sigma_w_sq must be > 0")
    if n_b < 1:
        raise ValueError("n_b must be >= 1")
    sigma_h_sq = np.broadcast_to(np.asarray(sigma_h_sq, dtype=np.float64), (n_b,))
    if np.any(sigma_h_sq < 0):
        raise ValueError("sigma_h_sq must be >= 0")
    gains, counts = np.unique(sigma_h_sq, return_counts=True)
    return gamma_sq * (v * v)[:, None] * gains + sigma_w_sq, counts


def charfn_h1(t, gamma_sq: float, v: float, sigma_h_sq, sigma_w_sq: float,
              n_b: int):
    """Characteristic function of the signal-bearing statistic given v."""
    return _prod_charfn(t, _ExpMixture(
        np.ones(1), *_h1_means(gamma_sq, v, sigma_h_sq, sigma_w_sq, n_b)))


def auto_quadrature(charfn, abs_tol: float = 1e-9, x: float = 0.0) -> QuadratureSpec:
    """Pick the truncation: the first T = 1e-3 * 2**k with its tail below abs_tol/10.

    A mixture built here is truncated on its certified ``tail_bound`` at
    the evaluation point x; any other callable on the heuristic
    |phi(T)|/T, which is not a bound.
    """
    ts = 1e-3 * 2.0 ** np.arange(100)
    tail = getattr(charfn, "tail_bound", None)
    bounds = tail(ts, x) if tail is not None else np.abs(charfn(ts)) / ts
    below = np.flatnonzero(bounds < abs_tol / 10.0)
    if len(below) == 0:
        raise QuadratureError("characteristic function decays too slowly to truncate",
                              np.nan, np.inf)
    return QuadratureSpec(float(ts[below[0]]), abs_tol)


def _inversion_edges(truncation: float, x: float) -> np.ndarray:
    """Initial panels: log-spaced near 0 plus half-period steps of the oscillation."""
    parts = [np.array([0.0, truncation]),
             np.geomspace(truncation * 1e-7, truncation, 64)]
    if x != 0:
        half_period = np.pi / abs(x)
        if truncation / half_period > 2:
            step = max(half_period, truncation / _INIT_PANEL_CAP)
            parts.append(np.arange(step, truncation, step))
    edges = np.unique(np.concatenate(parts))
    return edges[(edges >= 0) & (edges <= truncation)]


def _inversion_integral(charfn, x: float, q: QuadratureSpec) -> float:
    def integrand(t: np.ndarray) -> np.ndarray:
        return np.imag(charfn(t) * np.exp(-1j * t * x)) / t

    res = integrate_adaptive(integrand, _inversion_edges(q.truncation, x),
                             _REL_TOL, q.abs_tol, _MAX_EVALS)
    return res.value


def gil_pelaez_cdf(charfn, x: float, q: QuadratureSpec | None = None) -> float:
    """CDF of the law behind ``charfn`` at x, clamped to [0, 1]."""
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if q is None:
        q = auto_quadrature(charfn, x=x)
    return float(np.clip(0.5 - _inversion_integral(charfn, x, q) / np.pi, 0.0, 1.0))


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


def _erlang_log_tail(x: float, n_b: int) -> tuple[float, float]:
    """log P(G > x) and log f(x) for G ~ Gamma(n_b, 1) and x > 0.

    The density f(x) = x**k * exp(-x) / k!, k = n_b - 1, is the last
    Poisson term of the tail.  It is taken in Loader's (2000) saddle-point
    form exp(-stirling_error(k) - k*(u - log1p(u))) / sqrt(2*pi*k),
    u = x/k - 1, so that k*log(x), x and log(k!), each up to thousands,
    never cancel.  The tail is f(x) times the sum of every term's ratio
    to the last, a log-sum-exp of cumulative log(j/x).
    """
    k = n_b - 1
    if k == 0:
        return -x, -x
    u = (x - k) / k
    log_density = (-_stirling_error(k) - k * (u - math.log1p(u))
                   - 0.5 * (_LOG_2PI + math.log(k)))
    log_ratios = np.cumsum(np.log(np.arange(k, 0, -1) / x))
    top = max(float(log_ratios.max()), 0.0)
    log_sum = top + math.log(math.exp(-top) + float(np.exp(log_ratios - top).sum()))
    return min(log_density + log_sum, 0.0), log_density


def pfa_of_threshold(x: float, n_b: int) -> float:
    """False-alarm probability P(G > x), G ~ Gamma(n_b, 1), of n_b unit noise bins.

    At per-bin noise energy w the statistic exceeds eta with P(G > eta/w).
    """
    n_b = _bin_count(n_b)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 1.0
    return math.exp(_erlang_log_tail(x, n_b)[0])


def _missed_detection(eta: float, v, weights, gamma_sq: float, sigma_h_sq,
                      sigma_w_sq: float, n_b: int) -> float:
    """F(eta) of the signal statistic averaged over gains v with weights."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0:
        return 0.0
    charfn = _ExpMixture(weights, *_h1_means(gamma_sq, v, sigma_h_sq, sigma_w_sq, n_b))
    return gil_pelaez_cdf(charfn, eta)


def pmd_given_v(eta: float, v: float, gamma_sq: float, sigma_h_sq,
                sigma_w_sq: float, n_b: int) -> float:
    """Missed-detection probability F(eta) of the signal statistic at fixed v."""
    return _missed_detection(eta, v, np.ones(1), gamma_sq, sigma_h_sq, sigma_w_sq, n_b)


@functools.lru_cache(maxsize=4)
def _legendre_rule(n_nodes: int):
    """Gauss-Legendre nodes and weights, computed once per size and read-only."""
    rule = np.polynomial.legendre.leggauss(n_nodes)
    for part in rule:
        part.flags.writeable = False
    return rule


def rayleigh_nodes(sigma_v: float, n_nodes: int = 64):
    """Nodes and normalized weights for averaging over the backward-link gain.

    Gauss-Legendre on [0, 6*sigma_v] against the density
    (v/sigma_v**2) * exp(-v**2/sigma_v**2); the weights are normalized
    to sum to one over the truncated range (the mass beyond 6*sigma_v
    is below exp(-36)), making the average a proper expectation.
    """
    if sigma_v <= 0:
        raise ValueError(f"sigma_v must be > 0, got {sigma_v}")
    x, w = _legendre_rule(n_nodes)
    v = 3.0 * sigma_v * (x + 1.0)
    density = (v / sigma_v ** 2) * np.exp(-(v / sigma_v) ** 2)
    weights = w * density
    return v, weights / weights.sum()


def pmd_marginal(eta: float, sigma_v: float, gamma_sq: float, sigma_h_sq,
                 sigma_w_sq: float, n_b: int, n_nodes: int = 64) -> float:
    """Missed-detection probability averaged over the Rayleigh backward gain.

    One inversion of the node-averaged characteristic function; bins
    with unequal ``sigma_h_sq`` give unequal means at every node.
    """
    v_nodes, weights = rayleigh_nodes(sigma_v, n_nodes)
    return _missed_detection(eta, v_nodes, weights, gamma_sq, sigma_h_sq,
                             sigma_w_sq, n_b)


def optimal_threshold(pfa_target: float, n_b: int) -> float:
    """Threshold x on n_b unit noise bins whose false-alarm probability hits the target.

    x is the root of log P(G > x) = log(pfa_target) for G ~ Gamma(n_b, 1);
    at per-bin noise energy w the threshold is w*x.  That log tail
    is concave and falls with slope -f(x)/P(G > x), so Newton's method
    from x = n_b lands above the root after at most one step and then
    descends to it; a bracket kept from the residual's signs catches a
    step that rounding pushes outside it.  Iteration stops at 1e-15
    relative.
    """
    if not 0 < pfa_target < 1:
        raise ValueError(f"pfa_target must be in (0, 1), got {pfa_target}")
    n_b = _bin_count(n_b)
    log_target = math.log(pfa_target)
    lo, hi, x = 0.0, math.inf, float(n_b)
    for _ in range(100):
        log_tail, log_density = _erlang_log_tail(x, n_b)
        residual = log_tail - log_target
        if residual > 0:
            lo = x
        else:
            hi = x
        step = residual * math.exp(log_tail - log_density)
        if abs(step) <= _NEWTON_REL_TOL * x or hi - lo <= _NEWTON_REL_TOL * x:
            return x + step
        x += step
        if not lo < x < hi:  # rounding near the root; hi is finite by now
            x = 0.5 * (lo + hi)
    raise RuntimeError(f"threshold search stalled for pfa_target {pfa_target:.6g}")


def fsk_error_prob(gamma_sq: float, sigma_v: float, sigma_h_sq,
                   sigma_w_sq: float, n_b: int, n_nodes: int = 64) -> float:
    """Bit error probability of the two-set energy detector, Rayleigh-averaged.

    With bit 0 sent, set 0 carries signal plus noise and set 1 noise
    only; the bit is lost when D = E0 - E1 < 0.  The noise sum enters D
    as exponentials of negative mean, so phi_D = phi_signal *
    conj(phi_noise), and one inversion of its node average at 0 gives
    the error rate.  Bit 1 sent gives -D, whose CF is the conjugate: the
    same inversion, so the equiprobable average needs nothing more.
    """
    v_nodes, weights = rayleigh_nodes(sigma_v, n_nodes)
    signal, counts = _h1_means(gamma_sq, v_nodes, sigma_h_sq, sigma_w_sq, n_b)
    means = np.column_stack([signal, np.full(len(v_nodes), -sigma_w_sq)])
    return gil_pelaez_cdf(_ExpMixture(weights, means, np.append(counts, n_b)), 0.0)


def theory_sweep(kind: str, snr_grid, params: TheoryParams) -> TheoryCurve:
    """Evaluate OOK_PMD or FSK_BER across an SNR grid.

    Points where the quadrature fails are set to NaN rather than dropped.
    """
    snr_grid = np.asarray(snr_grid, dtype=np.float64)
    if snr_grid.ndim != 1 or len(snr_grid) == 0 or np.any(np.diff(snr_grid) <= 0):
        raise ValueError("snr_grid must be a nonempty strictly increasing vector")
    if kind not in ("OOK_PMD", "FSK_BER"):
        raise ValueError(f"kind must be OOK_PMD or FSK_BER, got {kind!r}")
    plan = build_subcarrier_plan(params.scheme, params.n, params.zeta)
    if kind == "OOK_PMD" and params.scheme != "ook":
        raise ValueError("OOK_PMD needs an ook plan")
    if kind == "FSK_BER" and params.scheme not in ("fsk1", "fsk2"):
        raise ValueError("FSK_BER needs an fsk plan")
    n_b = len(plan.kb0)
    if kind == "FSK_BER" and len(plan.kb1) != n_b:
        raise ValueError("hypothesis sets must have equal size")
    gamma_sq = params.gamma_mag ** 2
    values = np.empty(len(snr_grid))
    # the noise statistic at bin energy w is w times the unit one
    unit_eta = (optimal_threshold(params.pfa_target, n_b)
                if kind == "OOK_PMD" else None)
    for i, snr_db in enumerate(snr_grid):
        w_bin = noise_bin_variance(snr_db)
        try:
            if kind == "OOK_PMD":
                values[i] = pmd_marginal(unit_eta * w_bin, params.sigma_v,
                                         gamma_sq, 1.0, w_bin, n_b)
            else:
                values[i] = fsk_error_prob(gamma_sq, params.sigma_v, 1.0,
                                           w_bin, n_b)
        except QuadratureError:
            values[i] = np.nan
    return TheoryCurve(snr_grid, values)
