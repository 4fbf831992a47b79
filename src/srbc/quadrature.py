"""Vectorized adaptive Gauss-Kronrod integration.

Panels are processed as arrays so the integrand is always called on a
single flat vector of nodes; refinement splits the worst panels in
batches.  The 7/15 Gauss-Kronrod pair gives an embedded error estimate
per panel (the Gauss/Kronrod difference, a conservative bound).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.zeros(15)
_WG[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
             0.417959183673469, 0.381830050505119, 0.279705391489277,
             0.129484966168870]
# At most this many panels split in one refinement pass, the worst first.
_MAX_SPLIT = 8192


class QuadratureError(RuntimeError):
    """Integration did not reach the requested tolerance.

    Carries the best estimate and the achieved error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate:.6g}, "
                         f"error bound {error_bound:.3g})")
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass
class PanelIntegral:
    value: float
    error_bound: float
    n_evals: int


def _evaluate(f: Callable[[np.ndarray], np.ndarray],
              lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod value, error estimate, and |f| scale per [lo, hi] panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(f(nodes.ravel()), dtype=np.float64).reshape(nodes.shape)
    val = half * (y @ _WK)
    err = np.abs(val - half * (y @ _WG))
    scale = half * (np.abs(y) @ _WK)
    return val, err, scale


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray],
                       edges: np.ndarray, rel_tol: float, abs_tol: float,
                       max_evals: int) -> PanelIntegral:
    """Integrate f over the interval covered by the sorted panel edges.

    The integrand must map a float vector to a float vector of the same
    length and be finite on the open interior (panel endpoints are never
    evaluated; the Kronrod nodes are interior).  Raises QuadratureError
    when the tolerance is not met within max_evals integrand calls.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be a strictly increasing vector of >= 2 points")
    lo, hi = edges[:-1], edges[1:]
    val, err, scale = _evaluate(f, lo, hi)
    n_evals = 15 * len(lo)
    eps = np.finfo(np.float64).eps
    while True:
        total = float(val.sum())
        bound = float(err.sum())
        if bound <= max(abs_tol, rel_tol * abs(total)):
            return PanelIntegral(total, bound, n_evals)
        if n_evals >= max_evals:
            raise QuadratureError(
                f"tolerance not reached within {max_evals} evaluations",
                total, bound)
        # Panels whose Gauss/Kronrod disagreement sits at the rounding
        # noise of their own magnitude cannot be improved by splitting.
        splittable = err > 100.0 * eps * scale
        if not np.any(splittable):
            raise QuadratureError(
                "error bound limited by floating-point rounding", total, bound)
        cut = err[splittable].max() * 0.3
        split = np.nonzero(splittable & (err >= cut))[0]
        if len(split) > _MAX_SPLIT:
            split = split[np.argsort(err[split])[::-1][:_MAX_SPLIT]]
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        if np.any(new_lo >= new_hi):  # interval at floating-point resolution
            raise QuadratureError(
                "panel collapsed below floating-point resolution", total, bound)
        new_val, new_err, new_scale = _evaluate(f, new_lo, new_hi)
        n_evals += 15 * len(new_lo)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        scale = np.concatenate([scale[keep], new_scale])
