"""Config-driven Monte Carlo experiment runner.

Every random draw comes from a generator seeded by (seed, point index,
batch index) over a fixed batch geometry, and the adaptive stop rule
scans batch results in index order, so a run's numbers depend only on
its configuration — never on the worker-thread count or on completion
order.  Results are curves (abscissa, value, 95% confidence halfwidth)
plus a flat string metadata block, written to and read back from CSV
losslessly.

Every simulation runs one frequency-domain kernel that draws only what
the receiver reads: for the tag bit the energy of each detection set,
whose law given a row's channel draws is exact (``_set_energies``), for
primary detection the data bins.  The two channel modes differ in the
tag's gain per bin: "tdl" evaluates the response of tapped-delay-line
fading, while "iid" draws an independent complex-normal gain per
subcarrier — the analytical model's own assumptions — and exists to
validate the analysis module.  A carrier offset (tdl only) enters the
kernel as one exact matrix per link from the data bins to the bins it
reads: the detection bins for the tag bit, the data bins themselves for
primary detection.  Without an offset the primary link's matrix is the
identity on the direct term and zero on the tag's.  The tests check the
kernel against a time-domain reference link and receiver.

Every simulated curve runs one per-point loop, ``_sweep``: each runner
supplies only its validation and its batch kernel, built for the
point's per-bin noise energy.  Nothing is drawn per time sample, so the
kernel knows no other noise unit.
"""
from __future__ import annotations

import csv
import dataclasses
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis
from .backscatter import tag_shift
from .channel import noise_bin_variance
from .crc import crc5_check_many, crc5_encode_many
from .detector import fsk_detect, ook_detect, primary_detect
from .waveform import SCHEMES, ConfigurationError, build_subcarrier_plan

CSV_HEADER = ("abscissa", "value", "ci95", "scheme", "N", "gamma",
              "pfa_target", "cfo", "seed", "trials")
DFT_SIZES = (64, 128, 256, 512)
CHANNEL_MODES = ("tdl", "iid")
TARGET_ERROR_EVENTS = 100
FRAME_PAYLOAD_BITS = 7
FRAME_BITS = 12
_BATCH_SYMBOLS = 2048
_BATCH_FRAMES = 512


@dataclass(frozen=True)
class SystemConfig:
    """One experiment's full parameterization.

    ``snr_db`` accepts a scalar or a strictly increasing grid and is
    stored as a tuple.  ``zeta`` defaults to the scheme's natural
    spacing (1, except 2 for fsk2, whose plan needs two nulls per data
    bin).  ``trials`` caps the per-point Monte Carlo budget; runs stop
    early once enough error events accumulate.
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
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.zeta is None:
            object.__setattr__(self, "zeta", 2 if self.scheme == "fsk2" else 1)
        for name in ("n", "zeta", "l_direct", "l_forward", "trials", "seed",
                     "crc_preset", "threads"):
            value = getattr(self, name)
            if int(value) != value and not isinstance(value, str):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.n not in DFT_SIZES:
            raise ConfigurationError(
                f"DFT size must be one of {DFT_SIZES}, got {self.n}")
        snr = np.atleast_1d(np.asarray(self.snr_db, dtype=np.float64))
        if snr.ndim != 1 or len(snr) == 0 or not np.isfinite(snr).all():
            raise ConfigurationError("snr_db must be a finite scalar or vector")
        if len(snr) > 1 and np.any(np.diff(snr) <= 0):
            raise ConfigurationError("snr_db grid must be strictly increasing")
        object.__setattr__(self, "snr_db", tuple(float(s) for s in snr))
        if not 0.0 <= self.gamma_mag <= 1.0:
            raise ConfigurationError(
                f"gamma_mag must lie in [0, 1], got {self.gamma_mag}")
        if self.l_direct < 1 or self.l_forward < 1:
            raise ConfigurationError("channels need at least one tap")
        if max(self.l_direct, self.l_forward) - 1 > self.cp_len:
            raise ConfigurationError(
                f"channel memory exceeds the cyclic prefix ({self.cp_len})")
        if self.sigma_v <= 0:
            raise ConfigurationError(f"sigma_v must be > 0, got {self.sigma_v}")
        if not 0.0 < self.pfa_target < 1.0:
            raise ConfigurationError(
                f"pfa_target must lie in (0, 1), got {self.pfa_target}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.channel_mode not in CHANNEL_MODES:
            raise ConfigurationError(
                f"channel_mode must be one of {CHANNEL_MODES}, got {self.channel_mode!r}")
        if not 0 <= self.crc_preset < 32:
            raise ConfigurationError(
                f"crc_preset must be a 5-bit value, got {self.crc_preset}")
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")
        build_subcarrier_plan(self.scheme, self.n, self.zeta)

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

    Values are probabilities; a not-a-number entry marks a point whose
    computation failed and is rejected only where finiteness matters.
    An analytical curve has zero halfwidths.  ``meta`` holds exactly the
    flat string fields of the CSV schema.
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
        finite = np.isfinite(self.values)
        if np.any((self.values[finite] < 0) | (self.values[finite] > 1)):
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


def _batch_rng(seed: int, point_index: int, batch_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed,
                                 spawn_key=(point_index, batch_index))
    return np.random.default_rng(seq)


def _batch_sizes(total: int, batch_size: int) -> list:
    n_batches = math.ceil(total / batch_size)
    sizes = [batch_size] * n_batches
    sizes[-1] = total - batch_size * (n_batches - 1)
    return sizes


def _accumulate(batch_fn, total: int, seed: int, point_index: int, *,
                threads: int = 1, target_events: int | None = None,
                batch_size: int = _BATCH_SYMBOLS):
    """Sum batch counts under the in-order adaptive stop rule.

    ``batch_fn(rng, size)`` returns (counts vector, trials consumed).
    The run stops after the batch that brings the first count to
    ``target_events``, and runs every batch for None.  Batches may run
    concurrently, but the stop rule walks results in batch order and
    discards everything past the stopping batch, so the outcome is
    schedule-independent.  The first batch runs alone, as many points
    stop on it; after it at most ``threads`` batches are in flight, the
    one the scan waits for included, so a later stop throws away at
    most threads - 1 computed batches.
    """
    sizes = _batch_sizes(total, batch_size)
    counts = used = 0

    def run(j):
        return batch_fn(_batch_rng(seed, point_index, j), sizes[j])

    def consume(result) -> bool:
        nonlocal counts, used
        c, t = result
        counts = counts + np.asarray(c, dtype=np.int64)
        used += int(t)
        return target_events is not None and counts[0] >= target_events

    if threads == 1:
        for j in range(len(sizes)):
            if consume(run(j)):
                break
        return counts, used
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        try:
            for j in range(len(sizes)):
                ahead.append(pool.submit(run, j))
                if (len(ahead) == (threads if j else 1)
                        and consume(ahead.popleft().result())):
                    return counts, used
            while ahead:
                if consume(ahead.popleft().result()):
                    break
        finally:
            for future in ahead:
                future.cancel()
    return counts, used


# ---------------------------------------------------------------------------
# Link simulation kernels


def _require_tdl(cfg: SystemConfig, why: str) -> None:
    if cfg.channel_mode != "tdl":
        raise ConfigurationError(f"{why} needs channel_mode='tdl'")


@dataclass(frozen=True)
class _TagLink:
    """What a batch of symbols needs besides its random draws.

    The link reads its bins as columns, in blocks of ``sizes`` bins: for
    the tag bit the detection sets side by side, kb0 then kb1 (kb0 alone
    for ook, whose sets coincide), for primary detection the data bins
    as one block.  At zero offset a tag-bit link has ``landings``: per
    bit None, when the bit does not reflect, or the set its tone lands
    on and the Gram G = R R^H of the matrix R that maps forward taps to
    Hf at the set's source bins, as the real (2*l_forward)-square matrix
    that acts on the taps' interleaved real and imaginary parts.  Every plan builds
    its landing sets as shifted data bins, so every bin has a source.
    At a nonzero offset, and always for primary detection, ``spectra``
    is the block-diagonal matrix that maps [direct taps, forward taps]
    to [Hd, Hf] on the data bins, and ``leakage`` holds per bit the
    matrix that maps the data-bin terms [X*Hd, gamma*hb*X*Hf] onto every
    column: M_d stacked on the bit's M_s, or M_d alone when the bit does
    not reflect.
    """

    cfg: SystemConfig
    sizes: np.ndarray
    landings: tuple = ()
    spectra: np.ndarray | None = None
    leakage: tuple = ()


def _tap_response(n_taps: int, bins, n: int) -> np.ndarray:
    """(n_taps, len(bins)) matrix mapping channel taps to their DFT at bins."""
    return np.exp(-2j * np.pi * np.arange(n_taps)[:, None] * bins / n)


def _tag_link(cfg: SystemConfig, target: str = "bd") -> _TagLink:
    """The kernel's link for ``cfg``, built once per configuration.

    ``target`` "bd" reads the tag's detection sets, "primary" the data
    bins.
    """
    plan = cfg.plan()
    shifts = [tag_shift(cfg.scheme, bit, plan.zeta) for bit in (0, 1)]
    sets = ((plan.data_idx,) if target == "primary"
            else (plan.kb0,) if plan.scheme == "ook" else (plan.kb0, plan.kb1))
    read = np.concatenate(sets)
    sizes = np.array([len(b) for b in sets])
    if cfg.cfo_eps or target == "primary":
        # the offset ramp starts on the first body sample, so it maps
        # the spectrum Z to Y[k] = sum_m D[k-m] Z[m]; without an offset
        # D is exactly a unit impulse
        t = np.arange(plan.n)
        d = np.fft.fft(np.exp(2j * np.pi * cfg.cfo_eps * t / plan.n)) / plan.n
        lag = read[None, :] - plan.data_idx[:, None]
        m_d = d[lag % plan.n]
        leakage = tuple(m_d if s is None else np.vstack((m_d, d[(lag - s) % plan.n]))
                        for s in shifts)
        spectra = np.zeros((cfg.l_direct + cfg.l_forward, 2 * plan.n_data),
                           dtype=np.complex128)
        spectra[:cfg.l_direct, :plan.n_data] = _tap_response(
            cfg.l_direct, plan.data_idx, plan.n)
        spectra[cfg.l_direct:, plan.n_data:] = _tap_response(
            cfg.l_forward, plan.data_idx, plan.n)
        return _TagLink(cfg, sizes, spectra=spectra, leakage=leakage)
    landings = []
    for bit, (s, kb) in enumerate(zip(shifts, (plan.kb0, plan.kb1))):
        if s is None:
            landings.append(None)
            continue
        response = _tap_response(cfg.l_forward, (kb - s) % plan.n, plan.n)
        gram = response @ response.conj().T
        landings.append((0 if plan.scheme == "ook" else bit,
                         np.kron(gram.real, np.eye(2))
                         + np.kron(gram.imag, [[0.0, 1.0], [-1.0, 0.0]])))
    return _TagLink(cfg, sizes, landings=tuple(landings))


def _complex_normal_draw(rng, shape, variance) -> np.ndarray:
    """Circular complex normals of the given total variance, as one draw."""
    z = rng.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]
    z *= math.sqrt(variance / 2.0)
    return z


def _leak_onto(out, link: _TagLink, bits, hb, taps, direct, signs) -> np.ndarray:
    """Add each row's offset-spread direct and tag terms on every column.

    ``taps`` and ``direct`` are the forward and direct taps, ``signs``
    the +-1 data symbols on the data bins.  Returns the data-bin terms
    [X*Hd, gamma*hb*X*Hf].
    """
    size, n_data = signs.shape
    terms = np.concatenate(
        (direct, taps * (link.cfg.gamma_mag * hb[:, None])), axis=1) @ link.spectra
    terms.reshape(size, 2, n_data)[...] *= signs[:, None, :]
    for bit, leak in enumerate(link.leakage):
        rows = np.flatnonzero(bits == bit)
        out[rows] += terms[rows, :len(leak)] @ leak
    return terms


def _signal_power(link: _TagLink, bits, hb, taps, direct=None, signs=None,
                  rng=None) -> np.ndarray:
    """(size, sets) noise-free energy ||s||^2 of each detection set.

    Without an offset it is gamma^2*|hb|^2 * taps^H G taps on the sent
    bit's landing set, with G that set's Gram, and zero elsewhere; with
    ``taps`` None every landing bin is an independent unit complex-normal
    gain (the iid channel model), whose energies sum to a Gamma(n_b)
    draw from ``rng``.  With an offset it sums |.|^2 per set over what
    ``_leak_onto`` adds to zeros.
    """
    if link.leakage:
        out = np.zeros((len(bits), link.sizes.sum()), dtype=np.complex128)
        _leak_onto(out, link, bits, hb, taps, direct, signs)
        # the sets lie side by side, each complex column two float ones
        starts = 2 * (np.cumsum(link.sizes) - link.sizes)
        return np.add.reduceat(out.view(np.float64) ** 2, starts, axis=1)
    power = np.zeros((len(bits), len(link.sizes)))
    gain = link.cfg.gamma_mag ** 2 * (hb.real ** 2 + hb.imag ** 2)
    for bit, landing in enumerate(link.landings):
        if landing is None:
            continue
        col, gram = landing
        rows = np.flatnonzero(bits == bit)
        if taps is None:
            fade = rng.standard_gamma(link.sizes[col], size=len(rows))
        else:
            x = taps[rows].view(np.float64)
            fade = np.einsum("ri,ri->r", x @ gram, x)
        power[rows, col] = gain[rows] * fade
    return power


def _set_energies(rng, size, link: _TagLink, bits, noise: float) -> np.ndarray:
    """(size, sets) energies the tag-bit detectors read: kb0 (then kb1).

    The channel memory fits the cyclic prefix and tag tones are integer
    bins, so bin k of the DFT is exactly Z[k] = Hd[k]*X[k] +
    gamma*hb*Hf[k-s]*X[k-s] + W[k], with X the +-1 data symbols (zero
    off the data bins), s the sent bit's tone shift and W white with
    per-bin variance sigma^2 = ``noise``; an offset eps multiplies the
    body by exp(2j*pi*eps*t/n), which keeps W white and maps the rest
    through the link's leakage matrices.  Given a row's
    channel draws, a set of n_b bins thus holds s + W with s fixed, and
    by the rotation invariance of W its energy ||s + W||^2 has exactly
    the law of sigma^2*Gamma(n_b - 1) + |(||s||) + w|^2, w ~ CN(0,
    sigma^2).  So each set costs one gamma and one complex normal draw,
    whatever n_b is.  In iid mode every landing bin is an independent
    unit complex-normal gain, so ||s||^2 = gamma^2*|hb|^2*Gamma(n_b).

    The draws come in a fixed order: the noise (the gamma, then w, of
    every set), hb, then the forward taps (tdl) or the iid landing
    energies, and only at a nonzero offset the data signs and direct
    taps.  An offset run therefore shares its noise, hb and forward
    taps with the zero-offset run on the same stream.
    """
    cfg = link.cfg
    bits = np.asarray(bits)
    sets = len(link.sizes)
    rest = rng.standard_gamma(link.sizes - 1.0, size=(size, sets))
    w = _complex_normal_draw(rng, (size, sets), noise)
    hb = _complex_normal_draw(rng, (size,), cfg.sigma_v ** 2)
    taps = (_complex_normal_draw(rng, (size, cfg.l_forward), 1.0 / cfg.l_forward)
            if cfg.channel_mode == "tdl" else None)
    direct = signs = None
    if link.leakage:
        n_data = link.spectra.shape[1] // 2
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(size, n_data))
        direct = _complex_normal_draw(rng, (size, cfg.l_direct), 1.0 / cfg.l_direct)
    power = _signal_power(link, bits, hb, taps, direct, signs, rng)
    return (np.sqrt(power) + w.real) ** 2 + w.imag ** 2 + noise * rest


def _primary_grid(rng, size, link: _TagLink, bits, noise: float):
    """Data bins of one batch of symbols, with Hd there and the data signs.

    Bin k holds Hd[k]*X[k] + W[k], W of per-bin variance ``noise``, plus
    the direct and tag terms an offset spreads onto it through the
    link's leakage matrices; without an offset those add exact zeros, as
    every tag tone lands on nulls.
    """
    cfg = link.cfg
    direct = _complex_normal_draw(rng, (size, cfg.l_direct), 1.0 / cfg.l_direct)
    hb = _complex_normal_draw(rng, (size,), cfg.sigma_v ** 2)
    taps = _complex_normal_draw(rng, (size, cfg.l_forward), 1.0 / cfg.l_forward)
    n_data = link.sizes[0]
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(size, n_data))
    out = _complex_normal_draw(rng, (size, n_data), noise)
    terms = _leak_onto(out, link, np.asarray(bits), hb, taps, direct, signs)
    # the signs are +-1, so a second product undoes the first exactly
    return out, terms[:, :n_data] * signs, signs


# ---------------------------------------------------------------------------
# Experiment runners


def _sweep(cfg: SystemConfig, point_kernel, target_events: int | None,
           batch_size: int = _BATCH_SYMBOLS):
    """Run one batch kernel per point of the SNR grid under the stop rule.

    ``point_kernel(noise)`` returns the batch kernel of a point whose
    per-bin noise energy is ``noise``.  Each point draws from its own
    (seed, point index) streams and stops once its first count reaches
    ``target_events`` (never, for None).  Returns the counts as a
    (points, counts per batch) array and the trials each point used.
    """
    if cfg.cfo_eps:
        _require_tdl(cfg, "simulating a frequency offset")
    runs = [_accumulate(point_kernel(noise_bin_variance(snr)),
                        cfg.trials, cfg.seed, i, threads=cfg.threads,
                        target_events=target_events, batch_size=batch_size)
            for i, snr in enumerate(cfg.snr_db)]
    return np.array([c for c, _ in runs]), np.array([u for _, u in runs])


def _curve(cfg: SystemConfig, abscissa, p, used) -> SimCurve:
    return SimCurve(abscissa, p, _ci95(p, used), _config_meta(cfg))


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
    # the noise-only statistic at bin energy w is w times the unit one
    unit_eta = analysis.optimal_threshold(cfg.pfa_target, link.sizes[0])

    def point_kernel(noise):
        eta = unit_eta * noise

        def kernel(rng, size):
            energy = _set_energies(rng, size, link, np.ones(size, dtype=np.int8),
                                   noise)
            return [np.count_nonzero(ook_detect(energy[:, 0], eta) == 0)], size
        return kernel

    counts, used = _sweep(cfg, point_kernel, target_events)
    return _curve(cfg, cfg.snr_db, counts[:, 0] / used, used)


def run_roc(cfg: SystemConfig, eta_grid) -> SimCurve:
    """Detection-vs-false-alarm pairs for OOK at one SNR point.

    Every threshold in ``eta_grid`` is applied to the same simulated
    statistic pools under both hypotheses; the curve comes back sorted
    by false-alarm probability.
    """
    if cfg.scheme != "ook":
        raise ConfigurationError("the ROC sweep is defined for ook")
    if len(cfg.snr_db) != 1:
        raise ConfigurationError("the ROC is computed at exactly one SNR point")
    etas = np.asarray(eta_grid, dtype=np.float64)
    if etas.ndim != 1 or len(etas) == 0 or np.any(~(etas >= 0)):
        raise ValueError("eta_grid must be a nonempty vector of thresholds >= 0")
    link = _tag_link(cfg)

    def point_kernel(noise):
        def kernel(rng, size):
            above = [np.count_nonzero(_set_energies(
                rng, size, link, np.full(size, bit, dtype=np.int8), noise)
                > etas, axis=0) for bit in (0, 1)]
            return np.concatenate(above), size
        return kernel

    # one point, counting false alarms then detections, that never stops
    counts, used = _sweep(cfg, point_kernel, None)
    pfa, pd = np.split(counts[0] / used[0], 2)
    order = np.argsort(pfa, kind="stable")
    return _curve(cfg, pfa[order], pd[order], used[0])


def run_ber_sweep(cfg: SystemConfig, target: str = "bd",
                  target_events: int | None = TARGET_ERROR_EVENTS) -> SimCurve:
    """Bit error rate across the SNR grid.

    ``target="bd"`` measures the tag bit through the non-coherent
    detector (fsk1/fsk2); ``target="primary"`` measures the coherent
    BPSK data bits on the direct link, per data bit, with the tag
    reflecting random bits in the background.  The bits of one symbol
    share its direct channel, so there the interval counts symbols.
    """
    if target not in ("bd", "primary"):
        raise ValueError(f"target must be 'bd' or 'primary', got {target!r}")
    if target == "bd" and cfg.scheme not in ("fsk1", "fsk2"):
        raise ConfigurationError(
            "the tag bit error rate compares two hypothesis sets; use fsk1 or fsk2")
    if target == "primary":
        _require_tdl(cfg, "primary-link detection")
    link = _tag_link(cfg, target)

    def point_kernel(noise):
        def kernel(rng, size):
            bits = rng.integers(0, 2, size=size).astype(np.int8)
            if target == "bd":
                decided = fsk_detect(*_set_energies(rng, size, link, bits, noise).T)
                return [np.count_nonzero(decided != bits)], size
            y, hd, signs = _primary_grid(rng, size, link, bits, noise)
            errors = np.count_nonzero(primary_detect(y, hd) != (signs < 0))
            return [errors], size
        return kernel

    counts, used = _sweep(cfg, point_kernel, target_events)
    bits = used * (link.sizes[0] if target == "primary" else 1)
    return _curve(cfg, cfg.snr_db, counts[:, 0] / bits, used)


def run_cfo_study(cfg: SystemConfig, eps_grid,
                  target_events: int | None = TARGET_ERROR_EVENTS) -> list:
    """One tag BER curve per frequency offset.

    Every curve runs the frequency-domain kernel on the same (seed,
    point, batch) streams, and the zero-offset curve is the plain sweep.
    An offset curve draws the same bits, noise, backward gains and
    forward taps as the zero-offset one, and only then its data signs
    and direct taps, so the curves are paired: differences between them
    are not washed out by independent sampling noise.
    """
    eps = np.atleast_1d(np.asarray(eps_grid, dtype=np.float64))
    if len(eps) == 0 or not np.isfinite(eps).all():
        raise ValueError("eps_grid must be a nonempty finite vector")
    _require_tdl(cfg, "simulating a frequency offset")
    return [run_ber_sweep(cfg.replace(cfo_eps=float(e)), "bd", target_events)
            for e in eps]


def run_retx(cfg: SystemConfig,
             target_events: int | None = TARGET_ERROR_EVENTS) -> SimCurve:
    """Frame retransmission probability across the SNR grid.

    Frames carry 7 payload bits plus 5 check bits, one bit per OFDM
    symbol over independent channel draws; a frame counts as
    retransmitted when the receiver-side check fails.  ``trials`` caps
    the frame count per point.
    """
    link = _tag_link(cfg)
    unit_eta = (analysis.optimal_threshold(cfg.pfa_target, link.sizes[0])
                if cfg.scheme == "ook" else None)

    def point_kernel(noise):
        eta = None if unit_eta is None else unit_eta * noise

        def kernel(rng, size):
            payloads = rng.integers(0, 2, size=(size, FRAME_PAYLOAD_BITS))
            tx = crc5_encode_many(payloads, cfg.crc_preset)
            energy = _set_energies(rng, size * FRAME_BITS, link, tx.reshape(-1),
                                   noise)
            decided = (fsk_detect(*energy.T) if eta is None
                       else ook_detect(energy[:, 0], eta)).reshape(size, FRAME_BITS)
            return [np.count_nonzero(~crc5_check_many(decided, cfg.crc_preset))], size
        return kernel

    counts, used = _sweep(cfg, point_kernel, target_events, _BATCH_FRAMES)
    return _curve(cfg, cfg.snr_db, counts[:, 0] / used, used)


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


def parse_csv(path) -> SimCurve:
    """Read a curve back; the inverse of emit_csv."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected curve header")
    if len(rows) < 2:
        raise ValueError(f"{path} holds no curve points")
    meta_cols = [row[3:] for row in rows[1:]]
    if any(cols != meta_cols[0] for cols in meta_cols):
        raise ValueError(f"{path} mixes points from different runs")
    data = np.array([[float(x) for x in row[:3]] for row in rows[1:]])
    meta = dict(zip(CSV_HEADER[3:], meta_cols[0]))
    return SimCurve(data[:, 0], data[:, 1], data[:, 2], meta)


def compare_theory_sim(theory_curve, sim_curve, min_prob: float = 1e-3):
    """Check simulated points against analytical ones where both resolve.

    A point is checked when the analytical value is finite and at least
    ``min_prob``; it passes when the gap is within the larger of 10% of
    the analytical value and three confidence halfwidths.  Returns the
    per-point rows and an overall verdict that also fails on any
    non-finite analytical value.
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
        if not np.isfinite(t):
            rows.append({"abscissa": x, "theory": t, "sim": s, "ci95": ci,
                         "tol": np.nan, "checked": True, "ok": False})
            all_ok = False
            continue
        checked = t >= min_prob
        tol = max(0.1 * t, 3.0 * ci)
        ok = (not checked) or abs(t - s) <= tol
        rows.append({"abscissa": x, "theory": t, "sim": s, "ci95": ci,
                     "tol": tol, "checked": checked, "ok": ok})
        all_ok = all_ok and ok
    return rows, all_ok


def _theory_curve(cfg: SystemConfig, kind: str = "auto"):
    """Analytical ``kind`` curve on the config's SNR grid, as (kind, curve).

    Kind "auto" picks OOK_PMD for ook and FSK_BER for the fsk schemes.
    The curve has zero halfwidths, and its meta reads offset, seed and
    trials as 0: the analysis has none of them.
    """
    if kind == "auto":
        kind = "OOK_PMD" if cfg.scheme == "ook" else "FSK_BER"
    params = analysis.TheoryParams(cfg.scheme, cfg.n, cfg.gamma_mag, cfg.zeta,
                                   cfg.sigma_v, cfg.pfa_target)
    theory = analysis.theory_sweep(kind, np.asarray(cfg.snr_db), params)
    return kind, SimCurve(theory.abscissa, theory.values,
                          np.zeros(len(theory.values)),
                          dict(_config_meta(cfg), cfo="0.0", seed="0", trials="0"))


def run_compare(cfg: SystemConfig):
    """Analytical curve vs. iid-mode simulation on the config's SNR grid.

    Returns (theory curve, simulated curve, comparison rows, verdict).
    """
    kind, theory = _theory_curve(cfg)
    sim_cfg = cfg.replace(channel_mode="iid", cfo_eps=0.0)
    if kind == "OOK_PMD":
        sim = run_pmd_sweep(sim_cfg)
    else:
        sim = run_ber_sweep(sim_cfg, "bd")
    rows, ok = compare_theory_sim(theory, sim)
    return theory, sim, rows, ok
