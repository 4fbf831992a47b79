"""Correctness gate for every curve a workload pass writes.

A curve point fails when
- its subcommand exited nonzero or left no CSV behind;
- it is a theory point that is not finite or misses the closed-form
  value by more than the quadrature tolerance;
- it is a simulated point outside the ``compare_theory_sim`` band of the
  stored high-trial reference curve (reference.json, written by
  make_reference.py with a seed the workloads do not use);
- it is a ``compare`` row whose verdict is not ok.

The closed forms are independent of the code under test: the OOK
statistic is Gamma(n_b) distributed given the backward gain v, and the
FSK decision compares two independent Gamma(n_b) sums, whose error
probability is a regularized incomplete beta function.  Both are
averaged over the same 64-node Rayleigh rule the analysis module uses.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

REFERENCE = Path(__file__).resolve().parent / "reference.json"
GAMMA = 0.25
PFA_TARGET = 1e-3
# The threshold bisection stops at 1e-6 relative false-alarm error and
# the inversion integrals at 1e-8 relative; the values agree with the
# closed forms to about 1e-7 relative at the seed.
THEORY_REL_TOL = 1e-5
THEORY_ABS_TOL = 1e-8
# A simulated point is checked where the reference resolves it: at least
# 1e-3 (the compare_theory_sim floor) and at least this many expected
# events at the trial cap, so that a Wald interval does not collapse to
# zero width by chance.
MIN_EXPECTED_EVENTS = 30


def read_curve(path: Path) -> dict:
    """Columns of one curve CSV as float arrays, plus the trial cap."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"{path} holds no points")
    return {
        "abscissa": np.array([float(r["abscissa"]) for r in rows]),
        "value": np.array([float(r["value"]) for r in rows]),
        "ci95": np.array([float(r["ci95"]) for r in rows]),
        "trials": int(rows[0]["trials"]),
    }


def _detection_set_size(scheme: str, n: int) -> int:
    """Bins per hypothesis set at the default spacing of each scheme."""
    return {"ook": n // 2, "fsk1": 1, "fsk2": (n - 1) // 3}[scheme]


def _rayleigh_rule(sigma_v: float = 1.0, n_nodes: int = 64):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    v = 3.0 * sigma_v * (x + 1.0)
    weights = w * (v / sigma_v ** 2) * np.exp(-(v / sigma_v) ** 2)
    return v, weights / weights.sum()


def theory_value(scheme: str, n: int, snr_db: float,
                 pfa_target: float = PFA_TARGET) -> float:
    """Closed-form OOK missed detection (ook) or FSK bit error (fsk1/2)."""
    n_b = _detection_set_size(scheme, n)
    w = 10.0 ** (-snr_db / 10.0)
    v, weights = _rayleigh_rule()
    signal = GAMMA ** 2 * v * v + w
    if scheme == "ook":
        eta = w * special.gammainccinv(n_b, pfa_target)
        return float(weights @ special.gammainc(n_b, eta / signal))
    return float(weights @ special.betainc(n_b, n_b, w / (signal + w)))


def check_theory(curve: dict, scheme: str, n: int,
                 pfa_target: float = PFA_TARGET) -> list:
    """One bool per point: finite and within tolerance of the closed form."""
    out = []
    for x, value in zip(curve["abscissa"], curve["value"]):
        ref = theory_value(scheme, n, float(x), pfa_target)
        out.append(bool(math.isfinite(value)
                        and abs(value - ref) <= THEORY_ABS_TOL + THEORY_REL_TOL * ref))
    return out


def _wald(p: float, trials: int) -> float:
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / max(trials, 1))


def band_ok(sim: float, sim_ci: float, ref: float, ref_ci: float) -> bool:
    """The compare_theory_sim band, widened by the reference's own interval."""
    tol = max(0.1 * ref, 3.0 * math.hypot(sim_ci, ref_ci))
    return abs(sim - ref) <= tol


def check_against_reference(curve: dict, ref: dict, sub: str) -> list:
    """One bool per point of a simulated curve against its stored reference.

    Points are matched by index.  The roc abscissa is a simulated
    false-alarm rate; it is checked in the same band as the detection
    rate, with its interval taken from the trial count.
    """
    n_points = len(ref["value"])
    if len(curve["value"]) != n_points:
        return [False] * max(n_points, len(curve["value"]))
    cap = curve["trials"]
    out = []
    for i in range(n_points):
        value, ci = float(curve["value"][i]), float(curve["ci95"][i])
        ok = math.isfinite(value) and 0.0 <= value <= 1.0
        pairs = [(value, ci, ref["value"][i], ref["ci95"][i])]
        if sub == "roc":
            pfa = float(curve["abscissa"][i])
            pairs.append((pfa, _wald(pfa, cap), ref["abscissa"][i],
                          _wald(ref["abscissa"][i], ref["trials"])))
        elif float(curve["abscissa"][i]) != ref["abscissa"][i]:
            ok = False
        for sim, sim_ci, r, r_ci in pairs:
            if r >= 1e-3 and r * cap >= MIN_EXPECTED_EVENTS:
                ok = ok and band_ok(sim, sim_ci, r, r_ci)
        out.append(bool(ok))
    return out


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)["curves"]


def compare_rows_ok(stdout: str) -> list:
    """One bool per ``srbc compare`` row: its verdict is ok or below-floor."""
    return [line.endswith((" ok", " below-floor"))
            for line in stdout.splitlines() if line.startswith("abscissa=")]
