"""OFDM subcarrier planning and the link geometry it fixes.

Subcarrier plans partition the DFT grid into data bins (used by the
primary link) and null bins.  A backscatter tag conveys one bit per OFDM
symbol by multiplying the incident signal with a unit-modulus tone of
integer frequency; after the receiver DFT that is exactly a circular
shift of the spectrum by ``tag_shift`` bins, which moves primary energy
from the data bins onto scheme-specific null bins.  Each plan derives
its detection index sets for both bit hypotheses from those shifts.

The same shifts fix what the link kernel reads of the channel: at zero
carrier offset the landing spectrum of each detection set
(``landing_spectrum``), and at an offset the exact map from the
data-bin terms onto the bins read, a real matrix between unit phases
(``offset_leakage``).  Both are built from ``tap_response``, the DFT of
a tapped delay line at given bins.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

SCHEMES = ("ook", "fsk1", "fsk2")
DFT_SIZES = (64, 128, 256, 512)


class ConfigurationError(ValueError):
    """Raised when a requested system configuration is not constructible."""


def tag_shift(scheme: str, bit: int, zeta: int) -> int | None:
    """Bins the tag's tone moves the incident spectrum for one bit.

    OOK reflects the tone of frequency ``zeta`` for bit 1 and nothing
    (None) for bit 0.  FSK1 shifts down one bin for bit 0 and up one for
    bit 1.  FSK2 always reflects, shifting by one bin for bit 0 and two
    for bit 1 (its plan spaces data bins ``zeta``+1 apart so both
    landings stay on nulls).
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if scheme == "ook":
        return zeta if bit else None
    if scheme == "fsk1":
        return 1 if bit else -1
    if scheme == "fsk2":
        return 2 if bit else 1
    raise ConfigurationError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class SubcarrierPlan:
    """Frequency plan for one scheme at one DFT size.

    ``data_idx`` holds the primary data bins; every other bin is a null.
    ``kb0``/``kb1`` are the null bins a detector inspects under the
    bit-0 and bit-1 hypotheses; for OOK both name the single landing set
    that carries energy only when the tag reflects.
    """

    scheme: str
    n: int
    zeta: int
    data_idx: np.ndarray
    kb0: np.ndarray
    kb1: np.ndarray

    @property
    def n_data(self) -> int:
        return len(self.data_idx)


def build_subcarrier_plan(scheme: str, n: int, zeta: int | None = None) -> SubcarrierPlan:
    """Construct the data/null partition and detection sets for a scheme.

    OOK alternates blocks of ``zeta`` data bins and ``zeta`` null bins so
    that a frequency shift of +zeta moves every data bin onto a null bin.
    FSK1 keeps data on even bins up to n-4.  FSK2 places a data bin every
    ``zeta``+1 bins starting at bin 1, leaving bin 0 permanently unused.
    The detection sets follow from ``tag_shift``: bit b's tone lands the
    data bins on (data + s_b) mod n.  OOK inspects the bit-1 landing
    under both hypotheses; an FSK scheme inspects for each bit the bins
    its landing reaches and the other's does not, which for fsk2, whose
    landings are disjoint, is the whole landing.  Every plan it accepts
    keeps its sets apart by construction: the landings stay on nulls,
    and an FSK scheme's two sets are disjoint and equal in size.
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
    elif scheme == "fsk1":
        if zeta != 1:
            raise ConfigurationError(f"fsk1 uses unit shifts only, got zeta={zeta}")
        data = np.arange(0, n - 2, 2)
    else:
        if zeta < 2:
            raise ConfigurationError(f"fsk2 needs zeta >= 2, got {zeta}")
        m = (n - 1) // (zeta + 1)
        if m < 1:
            raise ConfigurationError(f"no room for data bins at n={n}, zeta={zeta}")
        data = 1 + (zeta + 1) * np.arange(m)
    data = np.asarray(data, dtype=np.int64)
    lands = [None if s is None else np.unique((data + s) % n)
             for s in (tag_shift(scheme, bit, zeta) for bit in (0, 1))]
    if scheme == "ook":
        kb0 = kb1 = lands[1]
    else:
        kb0, kb1 = np.setdiff1d(*lands), np.setdiff1d(*lands[::-1])
    plan = SubcarrierPlan(scheme, n, zeta, data, kb0, kb1)
    for part in (plan.data_idx, plan.kb0, plan.kb1):
        part.flags.writeable = False
    return plan


def tap_response(n_taps: int, bins, n: int) -> np.ndarray:
    """(n_taps, len(bins)) matrix mapping channel taps to their DFT at bins."""
    return np.exp(-2j * np.pi * np.arange(n_taps)[:, None] * bins / n)


def landing_spectrum(plan: SubcarrierPlan, l_forward: int, channel_mode: str):
    """The tag's signal weights on its detection sets at zero offset.

    Returns ``rank`` r and per bit in ``landings`` None, when the bit
    does not reflect, or (col, weights, bulk): the detection set its tone
    lands on (0 for ook, whose sets coincide, else the bit) and the
    signal weight on each of r directions and on each of the other
    n_b - r.  In "tdl" mode r = min(l_forward, n_b), the weights are the
    r largest eigenvalues over l_forward (clipped at 0, ascending) of the
    Gram G = R R^H of the matrix R that maps forward taps to Hf at the
    set's source bins (landing sets are shifted data bins, so every bin
    has a source), and bulk is 0; in "iid" mode, whose bins have
    independent unit gains, r = 0 and bulk is 1.
    """
    rank = min(l_forward, len(plan.kb0)) if channel_mode == "tdl" else 0
    landings = []
    for bit, kb in enumerate((plan.kb0, plan.kb1)):
        s = tag_shift(plan.scheme, bit, plan.zeta)
        weights = np.zeros(0)
        # iid mode makes no LAPACK call: a first one adds 1 MB to peak RSS
        if s is not None and rank:
            response = tap_response(l_forward, (kb - s) % plan.n, plan.n)
            weights = np.maximum(np.linalg.eigvalsh(
                response @ response.conj().T)[-rank:], 0.0) / l_forward
        landings.append(None if s is None else
                        (0 if plan.scheme == "ook" else bit, weights, float(not rank)))
    return rank, tuple(landings)


def offset_leakage(plan: SubcarrierPlan, cfo_eps: float, read, l_direct: int,
                   l_forward: int):
    """The exact map of a carrier offset from the data bins onto the bins ``read``.

    The offset ramp, from the first body sample, maps the spectrum Z to
    Y[c] = sum_q D(c-q) Z[q], D its DFT over n, which at the unreduced
    lag k is kappa*conj(w(k))*Dn(eps-k): Dn the real Dirichlet kernel,
    w(q) = exp(i*pi*q*(n-1)/n), kappa = w(eps) (Moose 1994).  So Y[c] =
    kappa*conj(w(c)) * sum_q Dn w(q) Z[q], a real matrix between unit
    phases; Dn is read off the FFT, which keeps an integer offset exact.
    ``responses`` holds the direct and forward ``tap_response`` on the
    data bins times w; ``leakage`` per bit the real matrix from the
    phased terms [w*X*Hd, w(s_b)*gamma*hb*w*X*Hf] onto ``read`` and
    w(s_b) (the first block alone and None when the bit does not
    reflect); ``phases`` w on the data bins and kappa*conj(w(read)).
    """
    n, data = plan.n, plan.data_idx
    d = np.fft.fft(np.exp(2j * np.pi * cfo_eps * np.arange(n) / n)) / n
    kappa = np.exp(1j * np.pi * cfo_eps * (n - 1) / n)
    # w and Dn at k mod 2n, their period in k, the angle of w reduced exactly
    k = np.arange(2 * n)
    w = np.exp(1j * np.pi * (k * (n - 1) % (2 * n)) / n)
    dn = (d[k % n] * np.conj(kappa) * w).real
    leakage = []
    for s in (tag_shift(plan.scheme, bit, plan.zeta) for bit in (0, 1)):
        src = data if s is None else np.concatenate((data, data + s))
        leakage.append((dn[(read[None, :] - src[:, None]) % (2 * n)],
                        None if s is None else w[s % (2 * n)]))
    responses = tuple(tap_response(taps, data, n) * w[data]
                      for taps in (l_direct, l_forward))
    return responses, tuple(leakage), (w[data], kappa * np.conj(w[read]))
