"""Acceptance suite: eleven end-to-end checks with one verdict line each.

Each test prints ``CRITERION k <name>: PASS/FAIL — measured values`` and
then asserts.  Tolerances and runtime budgets are fixed; an assertion
failure therefore documents a real gap between this implementation and
the corresponding reference value, never a flaky sample.
"""

import filecmp
import math
import time

import numpy as np
from scipy import stats

from reference_link import (
    TimeSignal,
    apply_backscatter,
    map_symbols,
    ofdm_demodulate,
    ofdm_modulate,
)
from srbc.analysis import (
    _erlang_log_tail,
    noise_bin_variance,
    optimal_threshold,
)
from srbc.crc import crc5_check_many, crc5_encode_many
from srbc.harness import (
    SystemConfig,
    _theory_curve,
    emit_csv,
    run_cfo_study,
    run_compare,
    run_pmd_sweep,
    run_retx,
    run_roc,
)
from srbc.waveform import build_subcarrier_plan, tag_shift


def verdict(number, name, ok, detail):
    line = (f"CRITERION {number:02d} {name}: "
            f"{'PASS' if ok else 'FAIL'} — {detail}")
    print(line)
    return line


def test_criterion_01_tag_orthogonality():
    # flat links, no noise, no offset: the tag's reflection must leave
    # the data bins and the untransmitted hypothesis set numerically
    # empty (< 1e-20 of the total received energy)
    start = time.perf_counter()
    rng = np.random.default_rng(20260801)
    worst = 0.0
    for n in (64, 512):
        for scheme, zeta in (("ook", 1), ("fsk1", 1), ("fsk2", 2)):
            plan = build_subcarrier_plan(scheme, n, zeta=zeta)
            hd, hf, hb = (rng.normal(size=2) @ np.array([1, 1j]) for _ in range(3))
            data_bits = rng.integers(0, 2, size=plan.n_data)
            sig = ofdm_modulate(map_symbols(1.0 - 2.0 * data_bits, plan),
                                n // 8)
            for bit in (0, 1):
                shift = tag_shift(scheme, bit, zeta)
                direct = hd * sig.samples
                reflected = hb * apply_backscatter(
                    TimeSignal(hf * sig.samples, sig.cp_len), shift, 1.0).samples
                grid = ofdm_demodulate(TimeSignal(direct + reflected,
                                                  sig.cp_len))
                bd_only = ofdm_demodulate(TimeSignal(reflected, sig.cp_len))
                total = np.sum(np.abs(grid.values) ** 2)
                leak_data = np.sum(np.abs(bd_only.values[plan.data_idx]) ** 2)
                other = plan.kb0 if bit else plan.kb1
                if scheme == "ook":
                    other = plan.kb0 if bit == 0 else None
                leak_other = (np.sum(np.abs(grid.values[other]) ** 2)
                              if other is not None else 0.0)
                worst = max(worst, leak_data / total, leak_other / total)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-20 and elapsed < 1.0
    line = verdict(1, "tag-orthogonality", ok,
                   f"worst relative leakage {worst:.3g} (limit 1e-20), "
                   f"{elapsed:.2f}s (limit 1s)")
    assert ok, line


def erlang_cdf(x, n_b, mean):
    """P(G <= x) for G ~ Gamma(n_b) of scale mean, from the analysis tail."""
    return 1.0 - math.exp(_erlang_log_tail(float(x) / mean, n_b)[0])


def test_criterion_02_inversion_oracles():
    # the analysis layer's exact Erlang CDF against closed forms, then
    # against ten million samples of the idle-channel and tag-on statistics
    start = time.perf_counter()
    sup_closed = 0.0
    for a, scale in ((1, 1.0), (2, 1.0)):
        mean = a * scale
        xs = np.geomspace(0.01 * mean, 10 * mean, 300)
        for x in xs:
            err = abs(erlang_cdf(x, a, scale) - stats.gamma.cdf(x, a=a, scale=scale))
            sup_closed = max(sup_closed, err)

    n_b, w = 32, noise_bin_variance(10.0)
    m1 = 0.0625 + w  # tag-on bin mean at unit tag amplitude
    rng = np.random.default_rng(2)
    ks_total = {}
    for label, mean, gamma_sq, v in (("idle", w, 0.0, 0.0),
                                     ("tag-on", m1, 0.0625, 1.0)):
        chunks = [rng.exponential(mean, size=(1_000_000, n_b)).sum(axis=1)
                  for _ in range(10)]
        draws = np.sort(np.concatenate(chunks))
        grid_f = stats.gamma.cdf(draws, a=n_b, scale=mean)
        steps = np.arange(1, draws.size + 1) / draws.size
        d_exact = max(np.abs(grid_f - steps).max(),
                      np.abs(grid_f - steps + 1 / draws.size).max())
        # closeness of the analysis CDF to the closed form, spot-checked
        # on a quantile-spaced grid, with 1e-8 allowed between grid points
        qs = stats.gamma.ppf(np.linspace(1e-7, 1 - 1e-7, 120), a=n_b,
                             scale=mean)
        sup_inv = max(abs(erlang_cdf(x, n_b, mean)
                          - stats.gamma.cdf(x, a=n_b, scale=mean))
                      for x in qs)
        ks_total[label] = d_exact + sup_inv + 1e-8
    elapsed = time.perf_counter() - start
    ok = (sup_closed < 1e-6 and max(ks_total.values()) < 1e-3
          and elapsed < 120.0)
    line = verdict(2, "inversion-oracles", ok,
                   f"sup vs closed forms {sup_closed:.2g} (limit 1e-6), "
                   f"Kolmogorov idle {ks_total['idle']:.2g} / "
                   f"tag-on {ks_total['tag-on']:.2g} (limit 1e-3), "
                   f"{elapsed:.0f}s (limit 120s)")
    assert ok, line


def test_criterion_03_theory_simulation_agreement():
    # independent-per-subcarrier channel mode must match the analytical
    # curves within max(10% relative, 3 halfwidths) wherever p >= 1e-3
    start = time.perf_counter()
    grid = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    summaries = []
    all_ok = True
    for scheme, n, seed in (("ook", 128, 301), ("fsk2", 64, 302)):
        cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.25, snr_db=grid,
                           trials=200_000, channel_mode="iid", seed=seed,
                           threads=2)
        _, _, rows, ok = run_compare(cfg)
        checked = [r for r in rows if r["checked"]]
        gap = max(abs(r["theory"] - r["sim"]) / max(r["theory"], 1e-12)
                  for r in checked)
        summaries.append(f"{scheme}: {len(checked)} points, "
                         f"worst rel gap {gap:.1%}")
        all_ok = all_ok and ok
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 600.0
    line = verdict(3, "theory-simulation-agreement", ok,
                   "; ".join(summaries) + f", {elapsed:.0f}s (limit 600s)")
    assert ok, line


def test_criterion_04_roc_operating_points():
    # detection probability at a 10% false-alarm rate, N=64, gamma 0.25,
    # against the reference operating points 0.22 / 0.27 / 0.75
    start = time.perf_counter()
    targets = {0.0: 0.22, 5.0: 0.27, 10.0: 0.75}
    measured = {}
    for (snr, target), seed in zip(targets.items(), (401, 402, 403)):
        noise = noise_bin_variance(snr)
        etas = np.array([noise * optimal_threshold(float(p), 32)
                         for p in np.geomspace(0.05, 0.2, 7)])
        cfg = SystemConfig(scheme="ook", n=64, gamma_mag=0.25, snr_db=(snr,),
                           trials=60_000, seed=seed, threads=2)
        curve = run_roc(cfg, etas)
        measured[snr] = float(np.interp(0.1, curve.abscissa, curve.values))
    elapsed = time.perf_counter() - start
    deltas = {snr: measured[snr] - targets[snr] for snr in targets}
    ok = all(abs(d) <= 0.05 for d in deltas.values()) and elapsed < 300.0
    detail = ", ".join(f"{snr:g}dB: {measured[snr]:.3f} vs {targets[snr]:.2f} "
                       f"({deltas[snr]:+.3f})" for snr in targets)
    line = verdict(4, "roc-operating-points", ok,
                   detail + f" (tolerance ±0.05), {elapsed:.0f}s (limit 300s)")
    assert ok, line


def test_criterion_05_detection_gain_with_reflection():
    # at 30 dB and a 1e-3 false-alarm target, raising the reflection
    # magnitude from 0.25 to 1 must cut the missed-detection rate by 10x,
    # moving from the 1e-2 range to below 1e-3
    start = time.perf_counter()
    values = {}
    for gamma, seed in ((0.25, 501), (1.0, 502)):
        cfg = SystemConfig(scheme="ook", n=128, gamma_mag=gamma,
                           snr_db=(30.0,), trials=200_000, seed=seed,
                           threads=2)
        curve = run_pmd_sweep(cfg)
        values[gamma] = float(curve.values[0])
    ratio = values[0.25] / values[1.0]
    elapsed = time.perf_counter() - start
    ok = (ratio >= 10.0 and 1e-2 / 3 <= values[0.25] <= 3e-2
          and values[1.0] < 1e-3 and elapsed < 300.0)
    line = verdict(5, "detection-gain-with-reflection", ok,
                   f"pmd {values[0.25]:.3g} -> {values[1.0]:.3g}, "
                   f"ratio {ratio:.1f} (need >= 10), "
                   f"{elapsed:.0f}s (limit 300s)")
    assert ok, line


def fsk2_ber(n, gamma, snr_db):
    """The analytical FSK-2 bit error rate, as ``srbc theory`` computes it."""
    cfg = SystemConfig(scheme="fsk2", n=n, gamma_mag=gamma, snr_db=snr_db)
    return float(_theory_curve(cfg)[1].values[0])


def test_criterion_06_fsk2_error_rate_levels():
    # analytical FSK-2 error rate at 30 dB, N=64: order 1e-3 at
    # gamma 0.25 and order 1e-4 at gamma 1, within a factor of three
    start = time.perf_counter()
    low, high = (fsk2_ber(64, gamma, 30.0) for gamma in (0.25, 1.0))
    elapsed = time.perf_counter() - start
    ok = (1e-3 / 3 <= low <= 3e-3 and 1e-4 / 3 <= high <= 3e-4
          and elapsed < 600.0)
    line = verdict(6, "fsk2-error-rate-levels", ok,
                   f"gamma 0.25: {low:.3g} (band [3.3e-4, 3e-3]), "
                   f"gamma 1: {high:.3g} (band [3.3e-5, 3e-4]), "
                   f"{elapsed:.0f}s (limit 600s)")
    assert ok, line


def test_criterion_07_error_rate_vs_dft_size():
    # growing the grid from 64 to 512 bins at 20 dB, gamma 0.25 is
    # expected to improve the FSK-2 error rate by 5x to 20x
    small, large = (fsk2_ber(n, 0.25, 20.0) for n in (64, 512))
    ratio = small / large
    ok = 5.0 <= ratio <= 20.0
    line = verdict(7, "error-rate-vs-dft-size", ok,
                   f"ber {small:.3g} (64) -> {large:.3g} (512), "
                   f"ratio {ratio:.2f} (need 5..20)")
    assert ok, line


def test_criterion_08_cfo_degradation():
    # a 0.05 carrier offset at 30 dB is expected to cost FSK-2 a factor
    # of 5x to 20x in error rate, with FSK-1 degrading strictly less
    start = time.perf_counter()
    factors = {}
    for scheme, seed in (("fsk2", 81), ("fsk1", 82)):
        cfg = SystemConfig(scheme=scheme, n=64, gamma_mag=0.25,
                           snr_db=(30.0,), trials=1_200_000, seed=seed,
                           threads=4)
        clean, offset = run_cfo_study(cfg, (0.0, 0.05), target_events=3000)
        factors[scheme] = float(offset.values[0] / clean.values[0])
    elapsed = time.perf_counter() - start
    ok = (5.0 <= factors["fsk2"] <= 20.0
          and factors["fsk1"] < factors["fsk2"])
    line = verdict(8, "cfo-degradation", ok,
                   f"fsk2 factor {factors['fsk2']:.2f} (need 5..20), "
                   f"fsk1 factor {factors['fsk1']:.2f} (must stay smaller), "
                   f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_09_crc_detection_properties():
    # exhaustive: every payload re-checks, every single-bit flip and
    # every burst of length <= 5 on a 12-bit frame is caught
    start = time.perf_counter()
    payloads = np.array([[int(c) for c in format(v, "07b")]
                         for v in range(128)], dtype=np.int8)
    frames = crc5_encode_many(payloads)
    ok_encode = crc5_check_many(frames).all()
    singles_caught = True
    for position in range(12):
        corrupted = frames.copy()
        corrupted[:, position] ^= 1
        singles_caught &= not crc5_check_many(corrupted).any()
    bursts_caught = True
    n_bursts = 0
    for length in range(1, 6):
        if length <= 2:
            patterns = [np.ones(length, dtype=np.int8)]
        else:
            patterns = [np.array([1, *[int(c) for c in
                                       format(i, f"0{length - 2}b")], 1],
                                 dtype=np.int8)
                        for i in range(2 ** (length - 2))]
        for start_bit in range(12 - length + 1):
            for pattern in patterns:
                corrupted = frames.copy()
                corrupted[:, start_bit:start_bit + length] ^= pattern
                bursts_caught &= not crc5_check_many(corrupted).any()
                n_bursts += 1
    elapsed = time.perf_counter() - start
    ok = bool(ok_encode and singles_caught and bursts_caught) and elapsed < 1.0
    line = verdict(9, "crc-detection-properties", ok,
                   f"128 payloads re-check, 12x128 single flips and "
                   f"{n_bursts}x128 bursts all caught, "
                   f"{elapsed:.2f}s (limit 1s)")
    assert ok, line


def test_criterion_10_retransmission_ordering():
    # above 10 dB the frame retransmission probabilities are expected to
    # order fsk2 <= fsk1 <= ook within the confidence bands
    start = time.perf_counter()
    curves = {}
    for scheme, seed in (("fsk2", 901), ("fsk1", 902), ("ook", 903)):
        cfg = SystemConfig(scheme=scheme, n=64, gamma_mag=0.25,
                           snr_db=(12.0, 16.0, 20.0, 24.0, 28.0),
                           trials=30_000, seed=seed, threads=2)
        curves[scheme] = run_retx(cfg)
    margin_21 = np.max(curves["fsk2"].values - curves["fsk1"].values
                       - curves["fsk2"].confidence_halfwidth
                       - curves["fsk1"].confidence_halfwidth)
    margin_1o = np.max(curves["fsk1"].values - curves["ook"].values
                       - curves["fsk1"].confidence_halfwidth
                       - curves["ook"].confidence_halfwidth)
    elapsed = time.perf_counter() - start
    ok = margin_21 <= 0 and margin_1o <= 0
    line = verdict(
        10, "retransmission-ordering", ok,
        f"fsk2<=fsk1 excess {margin_21:+.3f}, fsk1<=ook excess "
        f"{margin_1o:+.3f} (both must be <= 0), {elapsed:.0f}s")
    assert ok, line


def test_criterion_11_thread_reproducibility(tmp_path):
    # rerunning a criterion configuration with the same seed must give
    # byte-identical CSV files on one thread and on many
    start = time.perf_counter()
    jobs = (
        ("pmd", SystemConfig(scheme="ook", n=128, gamma_mag=0.25,
                             snr_db=(30.0,), trials=100_000, seed=501),
         run_pmd_sweep),
        ("retx", SystemConfig(scheme="fsk2", n=64, gamma_mag=0.25,
                              snr_db=(12.0, 20.0, 28.0), trials=5_000,
                              seed=901), run_retx),
    )
    identical = True
    for label, cfg, runner in jobs:
        paths = []
        for threads in (1, 6):
            path = tmp_path / f"{label}_t{threads}.csv"
            emit_csv(runner(cfg.replace(threads=threads)), path)
            paths.append(path)
        rerun = tmp_path / f"{label}_rerun.csv"
        emit_csv(runner(cfg.replace(threads=6)), rerun)
        identical &= filecmp.cmp(*paths, shallow=False)
        identical &= filecmp.cmp(paths[0], rerun, shallow=False)
    elapsed = time.perf_counter() - start
    ok = bool(identical)
    line = verdict(11, "thread-reproducibility", ok,
                   f"pmd and retx runs byte-identical across 1/6 threads "
                   f"and reruns, {elapsed:.0f}s")
    assert ok, line
