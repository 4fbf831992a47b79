"""Config-driven Monte Carlo experiment runner.

Every random draw comes from a generator seeded by (seed, batch index)
over a fixed batch geometry, shared by every point of a curve: a batch
is drawn once and scored at each SNR point, as the noise enters only as
a scale on unit draws (common random numbers).  The adaptive stop rule
scans batch results in index order, so a run's numbers depend only on
its configuration — never on the worker-thread count or on completion
order.  Results are curves (abscissa, value, 95% confidence halfwidth)
plus a flat string metadata block, written to CSV with every value in
its ``repr``, so the file holds each float exactly.

Every simulation runs one frequency-domain kernel that draws only what
the receiver reads: for the tag bit the energy of each detection set,
whose law given a row's channel draws is exact (``_set_energies``), for
primary detection the data bins.  Without an offset a set's energy is
a sum of exponentials whose means are its covariance's eigenvalues:
one law, and the channel modes differ only in the landing spectrum.
"tdl" has the Gram eigenvalues of tapped-delay-line fading; "iid" has
unit gains on independent subcarriers, the analytical model's own
assumptions, and exists to validate the analysis module.
A carrier offset (tdl only) enters the kernel as an exact map from the
data bins to the bins a link reads (the detection bins for the tag bit,
the data bins for primary detection): a real matrix between unit
phases.  ``waveform`` builds the landing spectrum and these maps; the
kernel only draws and applies them, the tag bit's products over
cache-sized runs of rows after the batch's draws, so the runs change no
number.
The tests check the kernel against a time-domain reference link and
receiver, and its iid mode against a per-bin reference.

Every simulated curve runs one walk over the shared batches,
``_accumulate``, every SNR sweep through ``_sweep``, which returns its
curve.  Each runner supplies its validation and its batch kernel, which
makes the batch's noise-free part and returns its scoring at a point's
per-bin noise energy.  Nothing is drawn per time sample, so the kernel
knows no other noise unit.  Every tag-bit decision is the link's own
(``_TagLink.decide``): the OOK threshold test or the FSK comparison.
The primary link is read coherently: a data bit is 1 when Re(y/Hd) < 0
at its bin's received value y and direct gain Hd.
"""
from __future__ import annotations

import builtins
import contextlib
import csv
import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import analysis
from .analysis import noise_bin_variance
from .crc import CRC_BITS, crc5_check_many, crc5_encode_many
from .waveform import (ConfigurationError, build_subcarrier_plan, landing_spectrum,
                       offset_leakage, tap_response)

CSV_HEADER = ("abscissa", "value", "ci95", "scheme", "N", "gamma",
              "pfa_target", "cfo", "seed", "trials")
CHANNEL_MODES = ("tdl", "iid")
TARGET_ERROR_EVENTS = 100
FRAME_PAYLOAD_BITS = 7
FRAME_BITS = FRAME_PAYLOAD_BITS + CRC_BITS
_BATCH_SYMBOLS = 2048
_BATCH_FRAMES = 512
_ROW_BLOCK = 128  # offset-kernel rows per run of one bit: its temporaries stay in L2
_MIN_PROB = 1e-3  # smallest analytical value compare_theory_sim checks
# 10**(-snr_db/10) within [1e-300, 1e300] leaves the analysis room to
# scale it by thresholds and gains without overflow
_MAX_ABS_SNR_DB = 3000.0
# the backward gain within 60 dB of unit gain leaves the same room for
# its square and its Rayleigh density
_SIGMA_V_RANGE = (1e-3, 1e3)
# each batch in flight holds a worker thread and its draws
_MAX_THREADS = 64


@dataclass(frozen=True)
class SystemConfig:
    """One experiment's full parameterization.

    ``snr_db`` accepts a scalar or a strictly increasing grid and is
    stored as a tuple.  ``zeta`` is the plan's spacing, so None becomes
    the scheme's natural one.  ``trials`` caps the per-point Monte Carlo
    budget; runs stop early once enough error events accumulate.  A
    carrier offset needs the tapped-delay-line channel.
    """

    scheme: str = "ook"
    n: int = 64
    zeta: int | None = None
    gamma_mag: float = 0.25
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    cfo_eps: float = 0.0
    l_direct: int = 4
    l_forward: int = 4
    sigma_v: float = 1.0
    pfa_target: float = 1e-3
    trials: int = 200_000
    seed: int = 20260801
    channel_mode: str = "tdl"
    crc_preset: int = 0
    threads: int = 1

    def __post_init__(self):
        for name in ("gamma_mag", "cfo_eps", "sigma_v", "pfa_target"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        for name in ("n", "l_direct", "l_forward", "trials", "seed",
                     "crc_preset", "threads"):
            value = getattr(self, name)
            if (isinstance(value, float) and not value.is_integer()  # inf, nan
                    or int(value) != value and not isinstance(value, str)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "zeta", self.plan().zeta)
        snr = np.atleast_1d(np.asarray(self.snr_db, dtype=np.float64))
        if snr.ndim != 1 or len(snr) == 0 or not np.isfinite(snr).all():
            raise ConfigurationError("snr_db must be a finite scalar or vector")
        if len(snr) > 1 and np.any(np.diff(snr) <= 0):
            raise ConfigurationError("snr_db grid must be strictly increasing")
        outside = snr[np.abs(snr) > _MAX_ABS_SNR_DB]
        if len(outside):
            raise ConfigurationError(
                f"snr_db {outside[0]:g} puts the per-bin noise energy "
                "10**(-snr_db/10) outside [1e-300, 1e300]")
        object.__setattr__(self, "snr_db", tuple(float(s) for s in snr))
        if not 0.0 <= self.gamma_mag <= 1.0:
            raise ConfigurationError(
                f"gamma_mag must lie in [0, 1], got {self.gamma_mag}")
        if self.l_direct < 1 or self.l_forward < 1:
            raise ConfigurationError("channels need at least one tap")
        if max(self.l_direct, self.l_forward) - 1 > self.cp_len:
            raise ConfigurationError(
                f"channel memory exceeds the cyclic prefix ({self.cp_len})")
        lo, hi = _SIGMA_V_RANGE
        if not lo <= self.sigma_v <= hi:
            raise ConfigurationError(
                f"sigma_v must lie in [{lo:g}, {hi:g}], got {self.sigma_v}")
        if not 0.0 < self.pfa_target < 1.0:
            raise ConfigurationError(
                f"pfa_target must lie in (0, 1), got {self.pfa_target}")
        if self.channel_mode not in CHANNEL_MODES:
            raise ConfigurationError(
                f"channel_mode must be one of {CHANNEL_MODES}, got {self.channel_mode!r}")
        if self.cfo_eps and self.channel_mode != "tdl":
            raise ConfigurationError(
                "simulating a frequency offset needs channel_mode='tdl'")
        if not 0 <= self.crc_preset < 32:
            raise ConfigurationError(
                f"crc_preset must be a 5-bit value, got {self.crc_preset}")
        for name, low in (("trials", 1), ("seed", 0), ("threads", 1)):
            if getattr(self, name) < low:
                raise ConfigurationError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.threads > _MAX_THREADS:
            raise ConfigurationError(
                f"threads must be <= {_MAX_THREADS}, got {self.threads}")

    @property
    def cp_len(self) -> int:
        return self.n // 8

    def plan(self):
        return build_subcarrier_plan(self.scheme, self.n, self.zeta)

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


@dataclass
class SimCurve:
    """A measured or analytical curve: values, 95% halfwidths and metadata.

    Values are probabilities in [0, 1].  An analytical curve has zero
    halfwidths.  ``meta`` holds exactly the flat string fields of the
    CSV schema.
    """

    abscissa: np.ndarray
    values: np.ndarray
    confidence_halfwidth: np.ndarray
    meta: dict

    def __post_init__(self):
        self.abscissa = np.asarray(self.abscissa, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.confidence_halfwidth = np.asarray(self.confidence_halfwidth,
                                               dtype=np.float64)
        if not (self.abscissa.ndim == self.values.ndim
                == self.confidence_halfwidth.ndim == 1):
            raise ValueError("curve columns must be one-dimensional")
        if not (len(self.abscissa) == len(self.values)
                == len(self.confidence_halfwidth) >= 1):
            raise ValueError("curve columns must share a nonzero length")
        if np.any(~((self.values >= 0) & (self.values <= 1))):
            raise ValueError("curve values must be probabilities in [0, 1]")
        if np.any(~(self.confidence_halfwidth >= 0)):
            raise ValueError("confidence halfwidths must be >= 0")
        expected = set(CSV_HEADER[3:])
        if set(self.meta) != expected:
            raise ValueError(f"meta must carry exactly the fields {sorted(expected)}")
        self.meta = {k: str(self.meta[k]) for k in CSV_HEADER[3:]}


def _config_meta(cfg: SystemConfig) -> dict:
    return {
        "scheme": cfg.scheme,
        "N": str(cfg.n),
        "gamma": repr(float(cfg.gamma_mag)),
        "pfa_target": repr(float(cfg.pfa_target)),
        "cfo": repr(float(cfg.cfo_eps)),
        "seed": str(cfg.seed),
        "trials": str(cfg.trials),
    }


def _ci95(p: np.ndarray, trials) -> np.ndarray:
    return 1.96 * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / np.maximum(trials, 1))


# ---------------------------------------------------------------------------
# Deterministic batched Monte Carlo engine


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Batch ``batch_index``'s stream, shared by every point of a curve.

    The key's leading 0 keeps the streams that the first point of a
    curve read when each point had its own, so one-point curves and
    every curve's first point are unchanged.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, batch_index))
    return np.random.default_rng(seq)


def _accumulate(batch_fn, total: int, seed: int, points, *,
                threads: int = 1, target_events: int | None = None,
                batch_size: int = _BATCH_SYMBOLS):
    """Sum batch counts at every point under the in-order adaptive stop rule.

    ``batch_fn(rng, size)`` makes one batch's draws and returns
    ``score(point)``, the batch's counts vector at one of ``points``
    (most runners' are per-bin noise energies).  Batch j is drawn once,
    from ``_batch_rng(seed, j)``.  Point i stops after the batch that
    brings its first count to ``target_events`` (never, for None) and is
    charged no later batch.  Batch 0 runs alone, as many curves stop on
    it; the rest run in waves of up to ``threads`` batches, each scored
    at the points running when the wave starts.  A score reads the draws
    only, so a point's count for a batch does not depend on the other
    points it is scored at, and the walk over results in batch order
    charges only the points still running: the outcome is
    schedule-independent.  The walk ends with the wave in which the last
    point stops, its queued batches cancelled, so it throws away at most
    threads - 1 computed batches.

    Returns the (points, counts) sums, the trials taken from the stream
    and the trials each point used.
    """
    batches = -(-total // batch_size)
    running = list(range(len(points)))
    counts = [0] * len(points)
    used = np.zeros(len(points), dtype=np.int64)

    def run(j, live):
        size = min(batch_size, total - j * batch_size)
        score = batch_fn(_batch_rng(seed, j), size)
        return size, {i: score(points[i]) for i in live}

    with (ThreadPoolExecutor(threads) if threads > 1
          else contextlib.nullcontext()) as pool:
        start = 0
        while running and start < batches:
            wave = range(start, min(start + (threads if start else 1), batches))
            live = tuple(running)
            for size, scored in (pool or builtins).map(run, wave, repeat(live)):
                for i in tuple(running):
                    counts[i] = counts[i] + np.asarray(scored[i], dtype=np.int64)
                    used[i] += size
                    if target_events is not None and counts[i][0] >= target_events:
                        running.remove(i)
                if not running:
                    break
            start = wave.stop
        if pool:
            pool.shutdown(cancel_futures=True)
    return np.array(counts), int(used.max()), used


# ---------------------------------------------------------------------------
# Link simulation kernels


@dataclass(frozen=True)
class _TagLink:
    """What a batch of symbols needs besides its random draws.

    The link reads its bins as columns, in blocks of ``sizes`` bins: for
    the tag bit the detection sets side by side, kb0 then kb1 (kb0 alone
    for ook, whose sets coincide), for primary detection the data bins
    as one block.  At zero offset a tag-bit link carries the landing
    spectrum, ``rank`` and ``landings`` (``waveform.landing_spectrum``);
    at a nonzero offset ``responses``, ``leakage`` and ``phases``
    (``waveform.offset_leakage``); without one a primary link only the
    direct ``tap_response`` on the data bins.  ``unit_eta`` is the OOK
    CFAR threshold at unit bin noise that ``decide`` scales, None for
    fsk and for primary detection.
    """

    cfg: SystemConfig
    sizes: np.ndarray
    unit_eta: float | None
    responses: tuple = ()
    leakage: tuple = ()
    phases: tuple = ()
    landings: tuple = ()
    rank: int = 0

    def decide(self, energy, noise: float) -> np.ndarray:
        """The tag receiver: bits from (rows, sets) energies at bin noise ``noise``.

        FSK declares 1 when set kb1 holds more energy than kb0; OOK when
        the landing set's energy exceeds the CFAR threshold, which at bin
        energy w is w times the unit one.  A tie goes to bit 0.
        """
        if self.unit_eta is None:
            return (energy[:, 1] > energy[:, 0]).astype(np.int8)
        return (energy[:, 0] > self.unit_eta * noise).astype(np.int8)


def _tag_link(cfg: SystemConfig, target: str = "bd") -> _TagLink:
    """The kernel's link for ``cfg``, built once per configuration.

    ``target`` "bd" reads the tag's detection sets, "primary" the data
    bins.
    """
    plan = cfg.plan()
    sets = ((plan.data_idx,) if target == "primary"
            else (plan.kb0,) if plan.scheme == "ook" else (plan.kb0, plan.kb1))
    sizes = np.array([len(b) for b in sets])
    unit_eta = (analysis.optimal_threshold(cfg.pfa_target, sizes[0])
                if plan.scheme == "ook" and target == "bd" else None)
    if cfg.cfo_eps:
        return _TagLink(cfg, sizes, unit_eta, *offset_leakage(
            plan, cfg.cfo_eps, np.concatenate(sets), cfg.l_direct, cfg.l_forward))
    if target == "primary":
        return _TagLink(cfg, sizes, unit_eta,
                        responses=(tap_response(cfg.l_direct, plan.data_idx, plan.n),))
    rank, landings = landing_spectrum(plan, cfg.l_forward, cfg.channel_mode)
    return _TagLink(cfg, sizes, unit_eta, landings=landings, rank=rank)


def _normal_pairs(rng, shape) -> np.ndarray:
    """Complex numbers with standard normal real and imaginary parts, as one draw."""
    return rng.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]


def _complex_normal_draw(rng, shape, variance) -> np.ndarray:
    """Circular complex normals of the given total variance, as one draw."""
    return _normal_pairs(rng, shape) * math.sqrt(variance / 2.0)


def _leaked_runs(link: _TagLink, bits, hb, taps, direct, signs):
    """Yield (rows, the real and imaginary parts of their bins read short of
    the read phase) over runs of up to ``_ROW_BLOCK`` rows of one bit.

    The phased terms, signs times w*Hd and w(s_b)*gamma*hb*w*Hf, go
    through the bit's real leakage matrix as one real product.  A run's
    temporaries stay in cache; a batch's would be fresh pages each time.
    """
    order = np.argsort(bits, kind="stable")
    ends = np.cumsum(np.bincount(bits, minlength=2))
    for bit, (start, stop) in enumerate(zip((0, ends[0]), ends)):
        leak, shift = link.leakage[bit]
        for lo in range(start, stop, _ROW_BLOCK):
            rows = order[lo:min(lo + _ROW_BLOCK, stop)]
            sign = signs[rows]
            gains = [direct[rows] @ link.responses[0]]
            if shift is not None:
                gains.append((taps[rows] * (link.cfg.gamma_mag * shift * hb[rows, None]))
                             @ link.responses[1])
            terms = np.empty((2, len(rows), len(gains), sign.shape[1]))
            for k, gain in enumerate(gains):
                np.multiply(gain.real, sign, out=terms[0, :, k])
                np.multiply(gain.imag, sign, out=terms[1, :, k])
            yield rows, (terms.reshape(2 * len(rows), -1) @ leak).reshape(2, len(rows), -1)


def _leak_onto(out, link: _TagLink, bits, hb, taps, direct, signs) -> np.ndarray:
    """Add each row's offset-spread direct and tag terms on every column.

    ``taps`` and ``direct`` are the forward and direct taps, ``signs``
    the +-1 data symbols on the data bins; the terms spread are the
    data-bin terms [X*Hd, gamma*hb*X*Hf], or X*Hd alone on a primary
    link without an offset.  Returns the direct gains Hd.
    """
    hd = direct @ link.responses[0]
    if not link.leakage:
        out += hd * signs
        return hd
    w, read_phase = link.phases
    for rows, (re, im) in _leaked_runs(link, bits, hb, taps, direct, signs):
        out[rows] += read_phase * (re + 1j * im)
    return hd * np.conj(w)


def _signal_power(link: _TagLink, bits, hb, taps, direct, signs) -> np.ndarray:
    """(size, sets) noise-free energy ||s||^2 of each set at a nonzero offset.

    A set's energy does not read the unit phases of its bins, so it is
    the sum of squares of ``_leaked_runs`` over its block of n_b columns.
    """
    power = np.empty((len(bits), len(link.sizes)))
    for rows, leaked in _leaked_runs(link, bits, hb, taps, direct, signs):
        leaked = leaked.reshape(2, len(rows), len(link.sizes), -1)
        power[rows] = np.einsum("irsk,irsk->rs", leaked, leaked)
    return power


def _landing_power(link: _TagLink, bits, gain, spread, rest) -> np.ndarray:
    """(size, sets) ``gain`` times the landing spectrum on ``spread`` and ``rest``."""
    power = np.zeros((len(bits), len(link.sizes)))
    for bit, landing in enumerate(link.landings):
        if landing is not None:
            col, weights, bulk = landing
            # whole columns times the 0/1 mask: a boolean gather and
            # scatter of the rows would cost several times more
            power[:, col] += (bits == bit) * (
                gain * (weights @ spread[..., col] + bulk * rest[:, col]))
    return power


def _data_signs(rng, shape) -> np.ndarray:
    """The +-1 data signs 1 - 2*b of one integer draw b, formed in its float copy."""
    signs = rng.integers(0, 2, size=shape).astype(np.float64)
    signs *= -2.0
    signs += 1.0
    return signs


def _set_energies(rng, size, link: _TagLink, bits):
    """Draw a batch; return ``energies(noise)``, the (size, sets) energies
    the tag-bit detectors read, kb0 (then kb1), at per-bin noise ``noise``.

    The channel memory fits the cyclic prefix and tag tones are integer
    bins, so bin k of the DFT is exactly Z[k] = Hd[k]*X[k] +
    gamma*hb*Hf[k-s]*X[k-s] + W[k], with X the +-1 data symbols (zero
    off the data bins), s the sent bit's tone shift and W white with
    per-bin variance sigma^2 = ``noise``; an offset eps multiplies the
    body by exp(2j*pi*eps*t/n), which keeps W white and maps the rest
    through the link's leakage matrices.

    Without an offset, given hb, a set's energy is a sum of independent
    exponentials whose means are the eigenvalues of its covariance
    (Imhof 1961): sigma^2 plus, on the sent bit's set, gamma^2*|hb|^2
    times the link's landing spectrum, a weight on each of r directions
    and bulk on each of the other n_b - r, whose exponentials sum to one
    Gamma(n_b - r) draw; |hb|^2 is sigma_v^2 times one exponential E_0.
    For iid mode (r = 0, bulk 1) that is (gamma^2*|hb|^2 + sigma^2)
    times one Gamma(n_b) draw (Urkowitz 1967).  The draws come in a
    fixed order: every set's gamma, its r exponentials, every row's E_0.

    With an offset, given a row's channel draws, a set holds s + W with
    s fixed, and by the rotation invariance of W its energy has exactly
    the law of sigma^2*Gamma(n_b - 1) + |(||s||) + w|^2, w ~ CN(0,
    sigma^2): one gamma and one complex normal draw per set, drawn
    first, then hb, the forward taps, the data signs and the direct
    taps.  None of them reads the offset, so ``energies(noise, at)``
    scores them at the offset of any link ``at`` whose config is
    ``link``'s but for the offset, making ``_signal_power``'s products
    when it first reads that offset.  An offset run shares only its bits
    with the zero-offset run.

    The noise-free part is computed once per batch; ``energies`` scales
    the unit noise to the point's, so every point reads the same draws.
    """
    cfg = link.cfg
    bits = np.asarray(bits)
    sets = len(link.sizes)
    if not link.leakage:
        # the sets share n_b, and a scalar shape draws faster than an array
        rest = rng.standard_gamma(float(link.sizes[0] - link.rank), size=(size, sets))
        # direction first: a sum over a short trailing axis is slow
        spread = rng.standard_exponential((link.rank, size, sets))
        gain = cfg.gamma_mag ** 2 * cfg.sigma_v ** 2 * rng.standard_exponential(size)
        power = _landing_power(link, bits, gain, spread, rest)
        total = rest + spread.sum(axis=0)
        return lambda noise: power + noise * total
    rest = rng.standard_gamma(float(link.sizes[0] - 1), size=(size, sets))
    pairs = _normal_pairs(rng, (size, sets))
    hb = _complex_normal_draw(rng, (size,), cfg.sigma_v ** 2)
    taps = _complex_normal_draw(rng, (size, cfg.l_forward), 1.0 / cfg.l_forward)
    signs = _data_signs(rng, (size, link.responses[0].shape[1]))
    direct = _complex_normal_draw(rng, (size, cfg.l_direct), 1.0 / cfg.l_direct)
    amplitudes = {}

    def energies(noise: float, at: _TagLink = link) -> np.ndarray:
        if at.cfg.cfo_eps not in amplitudes:
            amplitudes[at.cfg.cfo_eps] = np.sqrt(
                _signal_power(at, bits, hb, taps, direct, signs))
        w = pairs * math.sqrt(noise / 2.0)
        return (amplitudes[at.cfg.cfo_eps] + w.real) ** 2 + w.imag ** 2 + noise * rest
    return energies


def _primary_grid(rng, size, link: _TagLink, bits):
    """Draw a batch of symbols; return ``received(noise)``, Hd and the data signs.

    Bin k holds Hd[k]*X[k] + W[k], W of per-bin variance ``noise``, plus
    the direct and tag terms an offset spreads onto it through the
    link's leakage matrices.  Without an offset there are none, as every
    tag tone lands on nulls, but hb and the forward taps are drawn all
    the same, so the data signs and noise after them are an offset
    run's.  ``received(noise)`` scales the unit noise to the point's and
    adds it to the noise-free bins.
    """
    cfg = link.cfg
    direct = _complex_normal_draw(rng, (size, cfg.l_direct), 1.0 / cfg.l_direct)
    hb = _complex_normal_draw(rng, (size,), cfg.sigma_v ** 2)
    taps = _complex_normal_draw(rng, (size, cfg.l_forward), 1.0 / cfg.l_forward)
    n_data = link.sizes[0]
    signs = _data_signs(rng, (size, n_data))
    pairs = _normal_pairs(rng, (size, n_data))
    clean = np.zeros((size, n_data), dtype=np.complex128)
    hd = _leak_onto(clean, link, np.asarray(bits), hb, taps, direct, signs)

    def received(noise: float) -> np.ndarray:
        return pairs * math.sqrt(noise / 2.0) + clean
    return received, hd, signs


# ---------------------------------------------------------------------------
# Experiment runners


def _sweep(cfg: SystemConfig, kernel, target_events: int | None,
           per_trial: int = 1, batch_size: int = _BATCH_SYMBOLS) -> SimCurve:
    """The curve of the batch kernel's first count across the SNR grid.

    ``kernel(rng, size)`` draws one batch and returns its scoring at a
    point's per-bin noise energy.  Every point reads the same (seed,
    batch index) streams and stops once its first count reaches
    ``target_events`` (never, for None).  A point's value is its count
    over the ``per_trial`` events each of its trials holds; its interval
    counts trials.
    """
    counts, _, used = _accumulate(
        kernel, cfg.trials, cfg.seed, [noise_bin_variance(s) for s in cfg.snr_db],
        threads=cfg.threads, target_events=target_events, batch_size=batch_size)
    return _curve(cfg, counts[:, 0], used, per_trial)


def _curve(cfg: SystemConfig, counts, used, per_trial: int = 1) -> SimCurve:
    """The curve of ``counts`` over the ``per_trial`` events of ``used`` trials."""
    p = counts / (used * per_trial)
    return SimCurve(cfg.snr_db, p, _ci95(p, used), _config_meta(cfg))


def run_pmd_sweep(cfg: SystemConfig,
                  target_events: int | None = TARGET_ERROR_EVENTS) -> SimCurve:
    """Missed-detection probability of the OOK tag bit across the SNR grid.

    The detection threshold at each point is set analytically to hit
    ``pfa_target``; the trial cap must allow at least 100 expected false
    alarms (trials >= 100 / pfa_target) so that operating point is
    meaningful.
    """
    if cfg.scheme != "ook":
        raise ConfigurationError("the missed-detection sweep is defined for ook")
    if cfg.trials * cfg.pfa_target < TARGET_ERROR_EVENTS:
        raise ConfigurationError(
            f"trials must be at least {TARGET_ERROR_EVENTS}/pfa_target "
            f"= {math.ceil(TARGET_ERROR_EVENTS / cfg.pfa_target)}, got {cfg.trials}")
    link = _tag_link(cfg)

    def kernel(rng, size):
        energies = _set_energies(rng, size, link, np.ones(size, dtype=np.int8))
        return lambda noise: [np.count_nonzero(link.decide(energies(noise), noise) == 0)]

    return _sweep(cfg, kernel, target_events)


def _auto_eta_grid(cfg: SystemConfig) -> np.ndarray:
    """Thresholds hitting a spread of design false-alarm points, plus 0."""
    w_bin = noise_bin_variance(cfg.snr_db[0])
    pfas = np.geomspace(5e-3, 0.9, 12)
    etas = w_bin * analysis.optimal_threshold(pfas, len(cfg.plan().kb0))
    return np.concatenate(([0.0], etas))


def run_roc(cfg: SystemConfig, eta_grid=None) -> SimCurve:
    """Detection-vs-false-alarm pairs for OOK at one SNR point.

    Every threshold in ``eta_grid`` is applied to the same simulated
    statistic pools under both hypotheses; the curve comes back sorted
    by false-alarm probability.  With no grid it thresholds at 0 and at
    the CFAR thresholds of 12 design false-alarm points, 5e-3 to 0.9.
    """
    if cfg.scheme != "ook":
        raise ConfigurationError("the ROC sweep is defined for ook")
    if len(cfg.snr_db) != 1:
        raise ConfigurationError("the ROC is computed at exactly one SNR point")
    etas = np.asarray(_auto_eta_grid(cfg) if eta_grid is None else eta_grid,
                      dtype=np.float64)
    if etas.ndim != 1 or len(etas) == 0 or np.any(~(etas >= 0)):
        raise ValueError("eta_grid must be a nonempty vector of thresholds >= 0")
    link = _tag_link(cfg)

    def kernel(rng, size):
        hypotheses = [_set_energies(rng, size, link, np.full(size, bit, dtype=np.int8))
                      for bit in (0, 1)]
        return lambda noise: np.concatenate(
            [np.count_nonzero(energies(noise) > etas, axis=0) for energies in hypotheses])

    # one point, counting false alarms then detections, that never stops
    counts, taken, _ = _accumulate(kernel, cfg.trials, cfg.seed,
                                   [noise_bin_variance(cfg.snr_db[0])],
                                   threads=cfg.threads)
    pfa, pd = np.split(counts[0] / taken, 2)
    order = np.argsort(pfa, kind="stable")
    return SimCurve(pfa[order], pd[order], _ci95(pd[order], taken), _config_meta(cfg))


def run_ber_sweep(cfg: SystemConfig, target: str = "bd",
                  target_events: int | None = TARGET_ERROR_EVENTS) -> SimCurve:
    """Bit error rate across the SNR grid.

    ``target="bd"`` measures the tag bit through the non-coherent
    detector (fsk1/fsk2); ``target="primary"`` measures the coherent
    BPSK data bits on the direct link, per data bit, with the tag
    reflecting random bits in the background.  The bits of one symbol
    share its direct channel, so there the interval counts symbols.
    """
    link = _ber_link(cfg, target)

    def kernel(rng, size):
        bits = rng.integers(0, 2, size=size).astype(np.int8)
        if target == "bd":
            energies = _set_energies(rng, size, link, bits)
            return lambda noise: [np.count_nonzero(
                link.decide(energies(noise), noise) != bits)]
        received, hd, signs = _primary_grid(rng, size, link, bits)
        return lambda noise: [np.count_nonzero(
            ((received(noise) / hd).real < 0) != (signs < 0))]

    return _sweep(cfg, kernel, target_events,
                  link.sizes[0] if target == "primary" else 1)


def _ber_link(cfg: SystemConfig, target: str) -> _TagLink:
    """``run_ber_sweep``'s link, built once its config passes the sweep's checks."""
    if target not in ("bd", "primary"):
        raise ValueError(f"target must be 'bd' or 'primary', got {target!r}")
    if target == "bd" and cfg.scheme not in ("fsk1", "fsk2"):
        raise ConfigurationError(
            "the tag bit error rate compares two hypothesis sets; use fsk1 or fsk2")
    if target == "primary" and cfg.channel_mode != "tdl":
        raise ConfigurationError("primary-link detection needs channel_mode='tdl'")
    return _tag_link(cfg, target)


def run_cfo_study(cfg: SystemConfig, eps_grid,
                  target_events: int | None = TARGET_ERROR_EVENTS) -> list:
    """One tag BER curve per frequency offset, each ``run_ber_sweep``'s.

    A zero offset runs that sweep, as its kernel draws each set's energy
    from its exact law.  The nonzero offsets are the points of one walk:
    each batch is drawn once (``_set_energies``), and an offset's
    energies are made when the batch first scores one of its points, so
    an offset whose points have all stopped costs nothing.
    """
    eps = np.atleast_1d(np.asarray(eps_grid, dtype=np.float64))
    if len(eps) == 0:
        raise ValueError("eps_grid must be a nonempty vector")
    # every offset's config first: one the config refuses runs no curve
    configs = [cfg.replace(cfo_eps=float(e)) for e in eps]
    links = [_ber_link(c, "bd") for c in configs if c.cfo_eps]

    def kernel(rng, size):
        bits = rng.integers(0, 2, size=size).astype(np.int8)
        energies = _set_energies(rng, size, links[0], bits)
        return lambda point: [np.count_nonzero(
            point[0].decide(energies(point[1], point[0]), point[1]) != bits)]

    shifted = iter(())
    if links:
        counts, _, used = _accumulate(
            kernel, cfg.trials, cfg.seed,
            [(link, noise_bin_variance(s)) for link in links for s in cfg.snr_db],
            threads=cfg.threads, target_events=target_events)
        shifted = map(_curve, [link.cfg for link in links],
                      counts[:, 0].reshape(len(links), -1), used.reshape(len(links), -1))
    return [next(shifted) if c.cfo_eps else run_ber_sweep(c, "bd", target_events)
            for c in configs]


def run_retx(cfg: SystemConfig,
             target_events: int | None = TARGET_ERROR_EVENTS) -> SimCurve:
    """Frame retransmission probability across the SNR grid.

    Frames carry 7 payload bits plus 5 check bits, one bit per OFDM
    symbol over independent channel draws; a frame counts as
    retransmitted when the receiver-side check fails.  ``trials`` caps
    the frame count per point.
    """
    link = _tag_link(cfg)

    def kernel(rng, size):
        payloads = rng.integers(0, 2, size=(size, FRAME_PAYLOAD_BITS))
        tx = crc5_encode_many(payloads, cfg.crc_preset)
        energies = _set_energies(rng, size * FRAME_BITS, link, tx.reshape(-1))

        def score(noise):
            decided = link.decide(energies(noise), noise).reshape(size, FRAME_BITS)
            return [np.count_nonzero(~crc5_check_many(decided, cfg.crc_preset))]
        return score

    return _sweep(cfg, kernel, target_events, batch_size=_BATCH_FRAMES)


# ---------------------------------------------------------------------------
# CSV plumbing and theory comparison


def emit_csv(curve: SimCurve, path) -> None:
    """Write one curve per file under the pinned column schema."""
    meta = [str(curve.meta[k]) for k in CSV_HEADER[3:]]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for a, v, c in zip(curve.abscissa, curve.values, curve.confidence_halfwidth):
            writer.writerow([repr(float(a)), repr(float(v)), repr(float(c))]
                            + meta)


def compare_theory_sim(theory_curve, sim_curve):
    """Check simulated points against analytical ones where both resolve.

    A point is checked when the analytical value is at least
    ``_MIN_PROB``; it passes when the gap is within the larger of 10% of
    the analytical value and three confidence halfwidths.  Returns the
    per-point rows and the overall verdict.
    """
    th_x = np.asarray(theory_curve.abscissa, dtype=np.float64)
    sim_x = np.asarray(sim_curve.abscissa, dtype=np.float64)
    if th_x.shape != sim_x.shape or not np.allclose(th_x, sim_x):
        raise ValueError("curves are defined on different abscissas")
    rows = []
    all_ok = True
    for x, t, s, ci in zip(th_x, theory_curve.values, sim_curve.values,
                           sim_curve.confidence_halfwidth):
        t, s, ci = float(t), float(s), float(ci)
        checked = t >= _MIN_PROB
        tol = max(0.1 * t, 3.0 * ci)
        ok = (not checked) or abs(t - s) <= tol
        rows.append({"abscissa": x, "theory": t, "sim": s, "ci95": ci,
                     "tol": tol, "checked": checked, "ok": ok})
        all_ok = all_ok and ok
    return rows, all_ok


def _theory_curve(cfg: SystemConfig):
    """The scheme's analytical curve on the config's SNR grid, as (kind, curve).

    The kind is OOK_PMD for ook and FSK_BER for the fsk schemes.  The
    analysis has no carrier offset, so a nonzero one is refused.  The
    curve has zero halfwidths, and its meta reads offset, seed and
    trials as 0: the analysis has none of them.
    """
    if cfg.cfo_eps:
        raise ConfigurationError(
            f"the analysis has no carrier offset; got cfo_eps={cfg.cfo_eps:g}")
    kind = "OOK_PMD" if cfg.scheme == "ook" else "FSK_BER"
    values = analysis.theory_sweep(cfg.plan(), cfg.gamma_mag, cfg.sigma_v,
                                   cfg.pfa_target, cfg.snr_db)
    return kind, SimCurve(cfg.snr_db, values, np.zeros(len(values)),
                          dict(_config_meta(cfg), cfo="0.0", seed="0", trials="0"))


def run_compare(cfg: SystemConfig):
    """Analytical curve vs. iid-mode simulation on the config's SNR grid.

    The analysis has no carrier offset, and neither has iid mode, so a
    config with one is refused as the iid config is built, before the
    theory curve.  Returns (theory curve, simulated curve, comparison
    rows, verdict).
    """
    iid = cfg.replace(channel_mode="iid")
    kind, theory = _theory_curve(cfg)
    run = run_pmd_sweep if kind == "OOK_PMD" else run_ber_sweep
    sim = run(iid)
    rows, ok = compare_theory_sim(theory, sim)
    return theory, sim, rows, ok
