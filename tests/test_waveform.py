"""Tests for subcarrier plans and the OFDM modulator/demodulator.

The modulator, the demodulator and the symbol mapper belong to the
time-domain reference link.
"""

import numpy as np
import pytest

from reference_link import FreqGrid, map_symbols, ofdm_demodulate, ofdm_modulate
from srbc.waveform import (DFT_SIZES, SCHEMES, ConfigurationError, build_subcarrier_plan,
                           offset_leakage, tag_shift)


def landing_set(data_idx, shift, n):
    """Bins reached by shifting every data bin by ``shift`` (mod n)."""
    return {(int(k) + shift) % n for k in data_idx}


def null_bins(plan):
    """The plan's null bins: every bin that is not a data bin."""
    return np.setdiff1d(np.arange(plan.n), plan.data_idx)


def accepted_plans():
    """Every plan the builder accepts: each scheme, size and spacing."""
    for n in DFT_SIZES:
        for scheme, zetas in (("ook", (1, 2)), ("fsk1", (1,)),
                              ("fsk2", range(2, n - 1))):
            for zeta in zetas:
                yield build_subcarrier_plan(scheme, n, zeta=zeta)


def test_ook_plan_small_grid():
    # the smallest grid: data on the even bins, the odd bins empty
    plan = build_subcarrier_plan("ook", 64, zeta=1)
    assert plan.data_idx.tolist() == list(range(0, 64, 2))
    assert null_bins(plan).tolist() == list(range(1, 64, 2))
    assert plan.kb0.tolist() == plan.kb1.tolist() == list(range(1, 64, 2))
    assert plan.n_data == 32


def test_ook_plan_zeta_two_blocks():
    plan = build_subcarrier_plan("ook", 64, zeta=2)
    # alternating blocks of two data bins and two null bins
    assert plan.data_idx.tolist() == [4 * j + b for j in range(16) for b in (0, 1)]
    assert null_bins(plan).tolist() == [4 * j + b for j in range(16) for b in (2, 3)]
    assert plan.kb0.tolist() == null_bins(plan).tolist()


def test_fsk1_plan_reference_grid():
    plan = build_subcarrier_plan("fsk1", 64)
    assert plan.data_idx.tolist() == list(range(0, 62, 2))
    assert plan.n_data == 31
    assert len(null_bins(plan)) == 33
    assert plan.kb0.tolist() == [63]
    assert plan.kb1.tolist() == [61]


def test_fsk1_detection_bins_are_landing_differences():
    # an fsk bit-0 detection bin is reachable only by the bit-0 shift, a
    # bit-1 bin only by the bit-1 shift; ook's bit 0 does not reflect,
    # so both of its sets are the whole bit-1 landing
    cases = [("fsk1", 1, -1, 1), ("ook", 1, None, 1), ("ook", 2, None, 2),
             ("fsk2", 2, 1, 2), ("fsk2", 3, 1, 2)]
    for n in DFT_SIZES:
        for scheme, zeta, shift0, shift1 in cases:
            plan = build_subcarrier_plan(scheme, n, zeta=zeta)
            land0 = set() if shift0 is None else landing_set(plan.data_idx, shift0, n)
            land1 = landing_set(plan.data_idx, shift1, n)
            kb0, kb1 = plan.kb0.tolist(), plan.kb1.tolist()
            if scheme == "ook":
                assert kb0 == kb1 == sorted(land1), (n, zeta)
            else:
                assert kb0 == sorted(land0 - land1), (scheme, n, zeta)
                assert kb1 == sorted(land1 - land0), (scheme, n, zeta)


def test_fsk2_plan_reference_grid():
    plan = build_subcarrier_plan("fsk2", 64, zeta=2)
    assert plan.data_idx.tolist() == [1 + 3 * m for m in range(21)]
    assert plan.kb0.tolist() == [2 + 3 * m for m in range(21)]
    assert plan.kb1.tolist() == [3 + 3 * m for m in range(21)]
    assert plan.n_data == 21
    assert len(null_bins(plan)) == 64 - 21
    assert 0 in null_bins(plan).tolist()
    assert 0 not in plan.kb0.tolist() and 0 not in plan.kb1.tolist()


def test_plan_invariants_across_sizes():
    # the builder checks none of these at run time: every plan it
    # accepts holds them by construction
    plans = list(accepted_plans())
    assert len(plans) == 960
    for plan in plans:
        n, case = plan.n, (plan.scheme, plan.n, plan.zeta)
        data = set(plan.data_idx.tolist())
        kb0, kb1 = set(plan.kb0.tolist()), set(plan.kb1.tolist())
        # the data bins are distinct bins of the grid, the rest its nulls
        assert len(data) == plan.n_data and data <= set(range(n)), case
        nulls = set(range(n)) - data
        assert kb0 <= nulls and kb1 <= nulls, case
        assert len(kb0) == len(kb1) >= 1, case
        if plan.scheme != "ook":
            assert not kb0 & kb1, case
        if plan.scheme == "fsk2":
            assert 0 not in data | kb0 | kb1, case
        # every data-bin landing under the scheme's tone shifts stays
        # on null bins, so the tag never hits a data bin
        shifts = {"ook": (plan.zeta,), "fsk1": (-1, 1), "fsk2": (1, 2)}[plan.scheme]
        for s in shifts:
            assert landing_set(plan.data_idx, s, n) <= nulls, case
    # one step past the widest fsk2 spacing leaves no room for data
    for n in DFT_SIZES:
        with pytest.raises(ConfigurationError, match="no room for data bins"):
            build_subcarrier_plan("fsk2", n, zeta=n - 1)


def test_plan_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("qam", 64)
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("ook", 12)
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("ook", 4)
    # a power of two outside the simulator's sizes is refused here, so
    # the analysis cannot evaluate a grid that no configuration runs
    for n in (8, 32, 1024, 64.0):
        with pytest.raises(ConfigurationError, match="DFT size must be one of"):
            build_subcarrier_plan("ook", n)
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("ook", 64, zeta=0)
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("ook", 64, zeta=3)
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("fsk1", 64, zeta=2)
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("fsk2", 64, zeta=1)
    assert issubclass(ConfigurationError, ValueError)


def test_each_plan_is_built_once_and_read_only():
    # the natural zeta, an integral float and a numpy integer all name
    # one plan, whose index arrays no caller can change
    plan = build_subcarrier_plan("fsk2", 128)
    assert build_subcarrier_plan("fsk2", np.int64(128), 2.0) is plan
    for part in (plan.data_idx, plan.kb0, plan.kb1):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0
    # unhashable or non-integral arguments are refused before the cache
    for args in ((["ook"], 64), ("ook", [64]), ("ook", 64, 1.5), ("ook", 64, "1")):
        with pytest.raises(ConfigurationError):
            build_subcarrier_plan(*args)


def test_map_symbols_ook_reference():
    plan = build_subcarrier_plan("ook", 64, zeta=1)
    grid = map_symbols(np.ones(32), plan)
    expect = np.tile(np.array([1, 0], dtype=np.complex128), 32)
    assert np.array_equal(grid.values, expect)


def test_map_symbols_fsk2_reference():
    plan = build_subcarrier_plan("fsk2", 64, zeta=2)
    symbols = np.zeros(21)
    symbols[0] = -1.0
    grid = map_symbols(symbols, plan)
    expect = np.zeros(64, dtype=np.complex128)
    expect[1] = -1.0
    assert np.array_equal(grid.values, expect)


def test_map_symbols_batched_and_length_checked():
    plan = build_subcarrier_plan("ook", 64, zeta=1)
    rng = np.random.default_rng(7)
    symbols = rng.choice([-1.0, 1.0], size=(5, plan.n_data))
    grid = map_symbols(symbols, plan)
    assert grid.values.shape == (5, 64)
    assert np.array_equal(grid.values[:, plan.data_idx], symbols)
    assert not grid.values[:, null_bins(plan)].any()
    with pytest.raises(ValueError):
        map_symbols(np.ones(plan.n_data + 1), plan)


def test_modulate_impulse_gives_constant_body():
    n = 64
    grid = FreqGrid(np.zeros(n, dtype=np.complex128))
    grid.values[0] = n
    sig = ofdm_modulate(grid, cp_len=n // 8)
    assert np.allclose(sig.body, np.ones(n), atol=1e-12)


def test_cyclic_prefix_copies_tail():
    rng = np.random.default_rng(11)
    n = 64
    grid = FreqGrid(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig = ofdm_modulate(grid, cp_len=8)
    assert sig.samples.shape == (72,)
    assert np.array_equal(sig.samples[:8], sig.body[-8:])
    assert sig.cp_len == 8 and sig.n == 64


def test_modulate_demodulate_round_trip():
    rng = np.random.default_rng(13)
    for n in (8, 64, 512):
        grid = FreqGrid(rng.standard_normal((3, n))
                        + 1j * rng.standard_normal((3, n)))
        back = ofdm_demodulate(ofdm_modulate(grid, cp_len=n // 8))
        err = np.abs(back.values - grid.values).max()
        assert err < 1e-12, f"round trip error {err} at n={n}"


def test_modulator_energy_scaling():
    # time-domain body energy equals (1/N) of the frequency-domain energy
    rng = np.random.default_rng(17)
    n = 256
    grid = FreqGrid(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig = ofdm_modulate(grid, cp_len=0)
    e_time = np.sum(np.abs(sig.body) ** 2)
    e_freq = np.sum(np.abs(grid.values) ** 2)
    assert abs(e_time - e_freq / n) < 1e-12 * e_freq


def test_modulate_rejects_bad_prefix():
    grid = FreqGrid(np.zeros(16, dtype=np.complex128))
    with pytest.raises(ConfigurationError):
        ofdm_modulate(grid, cp_len=16)
    with pytest.raises(ConfigurationError):
        ofdm_modulate(grid, cp_len=-1)


@pytest.mark.parametrize("eps", (0.05, -0.2, 0.3, 0.5, 1.0, -1.0))
@pytest.mark.parametrize("n", DFT_SIZES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_factored_offset_map_is_the_dirichlet_map(scheme, n, eps):
    # kappa*w(src)*conj(w(read))*R_b is the ramp's DFT d at the lag from
    # each source bin (the data bins, then the bit's landing sources) to
    # each bin read; R_b is real, and d at an unreduced lag k times
    # exp(-i*pi*(eps-k)*(n-1)/n) is the real Dirichlet kernel, whose
    # closed form R_b equals off the integer offsets
    plan = build_subcarrier_plan(scheme, n)
    read = np.concatenate((plan.kb0, plan.kb1))
    d = np.fft.fft(np.exp(2j * np.pi * eps * np.arange(n) / n)) / n
    (r_d, r_f), leakage, (w, read_phase) = offset_leakage(plan, eps, read, 3, 2)
    for bit, (leak, shift) in enumerate(leakage):
        s = tag_shift(scheme, bit, plan.zeta)
        src = plan.data_idx if s is None else np.concatenate((plan.data_idx,
                                                              plan.data_idx + s))
        phased_src = w if s is None else np.concatenate((w, w * shift))
        assert (shift is None) == (s is None)
        assert leak.dtype == np.float64 and leak.shape == (len(src), len(read))
        lag = read[None, :] - src[:, None]
        full = read_phase[None, :] * phased_src[:, None] * leak
        assert np.abs(full - d[lag % n]).max() <= 1e-13
        # the phase exp(i*pi*k*(n-1)/n) with its angle reduced mod 2*pi
        kernel = (d[lag % n] * np.exp(-1j * np.pi * eps * (n - 1) / n)
                  * np.exp(1j * np.pi * ((lag * (n - 1)) % (2 * n)) / n))
        assert np.abs(kernel.imag).max() <= 1e-14
        if eps != round(eps):
            x = np.pi * (eps - lag)
            assert np.abs(leak - np.sin(x) / (n * np.sin(x / n))).max() <= 1e-13
    direct = np.exp(-2j * np.pi * np.arange(3)[:, None] * plan.data_idx / n)
    assert np.abs(r_d - direct * w).max() <= 1e-13
    assert np.abs(r_f - direct[:2] * w).max() <= 1e-13
