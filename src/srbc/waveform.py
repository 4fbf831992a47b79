"""OFDM subcarrier planning.

Subcarrier plans partition the DFT grid into data bins (used by the
primary link) and null bins; a backscatter tag conveys its bit by
shifting primary energy onto scheme-specific null bins, and each plan
records the detection index sets for both bit hypotheses.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

SCHEMES = ("ook", "fsk1", "fsk2")
DFT_SIZES = (64, 128, 256, 512)


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


def build_subcarrier_plan(scheme: str, n: int, zeta: int | None = None) -> SubcarrierPlan:
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
    ``zeta`` None picks the scheme's natural spacing: 2 for fsk2, whose
    plan needs two nulls per data bin, else 1.  ``n`` must be one of
    ``DFT_SIZES``.  Each plan is built once per process, and its index
    arrays are read-only.
    """
    if not isinstance(n, (int, np.integer)) or n not in DFT_SIZES:
        raise ConfigurationError(f"DFT size must be one of {DFT_SIZES}, got {n}")
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if zeta is None:
        zeta = 2 if scheme == "fsk2" else 1
    if int(zeta) != zeta:
        raise ConfigurationError(f"zeta must be an integer, got {zeta!r}")
    zeta = int(zeta)
    if zeta < 1:
        raise ConfigurationError(f"zeta must be >= 1, got {zeta}")
    return _build_plan(str(scheme), int(n), zeta)


@functools.cache
def _build_plan(scheme: str, n: int, zeta: int) -> SubcarrierPlan:
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
    for part in (plan.data_idx, plan.null_idx, plan.kb0, plan.kb1):
        part.flags.writeable = False
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
    if len(kb0) != len(kb1):
        raise ConfigurationError("hypothesis sets must have equal size")
    if plan.scheme == "fsk2" and (0 in data or 0 in kb0 or 0 in kb1):
        raise ConfigurationError("bin 0 must stay unused under fsk2")
