"""OFDM waveform construction and subcarrier planning.

The synthesis IDFT carries the 1/n factor and the analysis DFT is
unnormalized, so a frequency-domain grid round-trips exactly through
modulate/demodulate.  Subcarrier plans partition the grid into data bins
(used by the primary link) and null bins; a backscatter tag conveys its
bit by shifting primary energy onto scheme-specific null bins, and each
plan records the detection index sets for both bit hypotheses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEMES = ("ook", "fsk1", "fsk2")


class ConfigurationError(ValueError):
    """Raised when a requested system configuration is not constructible."""


@dataclass(frozen=True)
class SubcarrierPlan:
    """Frequency plan for one scheme at one DFT size.

    ``data_idx`` holds the primary data bins and ``null_idx`` its
    complement.  ``kb0``/``kb1`` are the null bins a detector inspects
    under the bit-0 and bit-1 hypotheses; for OOK both name the single
    landing set that carries energy only when the tag reflects.
    """

    scheme: str
    n: int
    zeta: int
    data_idx: np.ndarray
    null_idx: np.ndarray
    kb0: np.ndarray
    kb1: np.ndarray

    @property
    def n_data(self) -> int:
        return len(self.data_idx)


@dataclass
class FreqGrid:
    """Length-n complex spectrum; leading axes are batch dimensions."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-1]


@dataclass
class TimeSignal:
    """Cyclic-prefixed time samples; leading axes are batch dimensions."""

    samples: np.ndarray
    cp_len: int

    @property
    def n(self) -> int:
        return self.samples.shape[-1] - self.cp_len

    @property
    def body(self) -> np.ndarray:
        """The n samples after the cyclic prefix."""
        return self.samples[..., self.cp_len:]


def _require_power_of_two(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"DFT size must be a power of two >= 8, got {n}")


def build_subcarrier_plan(scheme: str, n: int, zeta: int = 1) -> SubcarrierPlan:
    """Construct the data/null partition and detection sets for a scheme.

    OOK alternates blocks of ``zeta`` data bins and ``zeta`` null bins so
    that a frequency shift of +zeta moves every data bin onto a null bin;
    the detection set is that landing set.  FSK1 keeps data on even bins
    up to n-4 and signals by shifting the whole spectrum one bin down
    (bit 0) or up (bit 1); the detection sets are the bins reached under
    exactly one hypothesis, found here by set difference rather than by
    closed form.  FSK2 places a data bin every ``zeta``+1 bins starting
    at bin 1, leaving bin 0 permanently unused, and signals with shifts
    of +1 (bit 0) and +2 (bit 1), each landing on its own null set.
    """
    _require_power_of_two(n)
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if int(zeta) != zeta:
        raise ConfigurationError(f"zeta must be an integer, got {zeta!r}")
    zeta = int(zeta)
    if zeta < 1:
        raise ConfigurationError(f"zeta must be >= 1, got {zeta}")

    if scheme == "ook":
        if zeta not in (1, 2):
            raise ConfigurationError(f"ook supports zeta in (1, 2), got {zeta}")
        k = np.arange(n)
        data = k[(k % (2 * zeta)) < zeta]
        land = np.sort((data + zeta) % n)
        kb0 = land
        kb1 = land
    elif scheme == "fsk1":
        if zeta != 1:
            raise ConfigurationError(f"fsk1 uses unit shifts only, got zeta={zeta}")
        data = np.arange(0, n - 2, 2)
        land0 = {int(x) for x in (data - 1) % n}
        land1 = {int(x) for x in (data + 1) % n}
        kb0 = np.sort(np.array(sorted(land0 - land1), dtype=np.int64))
        kb1 = np.sort(np.array(sorted(land1 - land0), dtype=np.int64))
    else:
        if zeta < 2:
            raise ConfigurationError(f"fsk2 needs zeta >= 2, got {zeta}")
        m = (n - 1) // (zeta + 1)
        if m < 1:
            raise ConfigurationError(f"no room for data bins at n={n}, zeta={zeta}")
        data = 1 + (zeta + 1) * np.arange(m)
        kb0 = np.sort((data + 1) % n)
        kb1 = np.sort((data + 2) % n)

    data = np.asarray(data, dtype=np.int64)
    null = np.setdiff1d(np.arange(n, dtype=np.int64), data)
    plan = SubcarrierPlan(scheme, n, zeta, data, null, np.asarray(kb0, dtype=np.int64),
                          np.asarray(kb1, dtype=np.int64))
    _validate_plan(plan)
    return plan


def _validate_plan(plan: SubcarrierPlan) -> None:
    data = set(plan.data_idx.tolist())
    null = set(plan.null_idx.tolist())
    kb0 = set(plan.kb0.tolist())
    kb1 = set(plan.kb1.tolist())
    if data & null or len(data) + len(null) != plan.n:
        raise ConfigurationError("data/null sets do not partition the grid")
    if not (kb0 <= null and kb1 <= null):
        raise ConfigurationError("detection sets must lie inside the null set")
    if plan.scheme != "ook" and kb0 & kb1:
        raise ConfigurationError("hypothesis detection sets must be disjoint")
    if plan.scheme == "fsk2" and (0 in data or 0 in kb0 or 0 in kb1):
        raise ConfigurationError("bin 0 must stay unused under fsk2")


def map_symbols(symbols: np.ndarray, plan: SubcarrierPlan) -> FreqGrid:
    """Scatter data symbols onto the plan's data bins, zeros elsewhere."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.shape[-1] != plan.n_data:
        raise ValueError(
            f"expected {plan.n_data} symbols for {plan.scheme} at n={plan.n}, "
            f"got {symbols.shape[-1]}")
    values = np.zeros(symbols.shape[:-1] + (plan.n,), dtype=np.complex128)
    values[..., plan.data_idx] = symbols
    return FreqGrid(values)


def ofdm_modulate(grid: FreqGrid, cp_len: int) -> TimeSignal:
    """IDFT the grid (1/n scaling) and prepend a cyclic prefix."""
    n = grid.n
    if not 0 <= cp_len < n:
        raise ConfigurationError(f"cp_len must be in [0, {n}), got {cp_len}")
    body = np.fft.ifft(grid.values, axis=-1)
    if cp_len:
        samples = np.concatenate([body[..., n - cp_len:], body], axis=-1)
    else:
        samples = body
    return TimeSignal(samples, cp_len)


def ofdm_demodulate(sig: TimeSignal) -> FreqGrid:
    """Drop the cyclic prefix and take the unnormalized DFT of the body."""
    return FreqGrid(np.fft.fft(sig.body, axis=-1))
