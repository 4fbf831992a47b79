"""Tests for the Monte Carlo harness, CSV interchange, and the CLI."""

import argparse
import csv
import dataclasses
import filecmp
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reference_link import (NoiseSpec, fsk_metrics, iid_set_energies,
                            ook_test_statistic, snr_to_noise_variance, tdl_grid,
                            tdl_signal_power)
from srbc import analysis
from srbc.backscatter import tag_shift
from srbc.detector import fsk_detect, ook_detect, primary_detect
from srbc.harness import (
    CSV_HEADER,
    SimCurve,
    SystemConfig,
    compare_theory_sim,
    emit_csv,
    run_ber_sweep,
    run_cfo_study,
    run_compare,
    run_pmd_sweep,
    run_retx,
    run_roc,
)
from srbc.harness import (_ROW_BLOCK, _accumulate, _ci95, _leak_onto,
                          _primary_grid, _set_energies, _signal_power, _tag_link,
                          _theory_curve)
from srbc import cli, harness
from srbc.waveform import (DFT_SIZES, SCHEMES, ConfigurationError,
                           build_subcarrier_plan)


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


def small_curve():
    meta = {"scheme": "ook", "N": "64", "gamma": "0.25", "pfa_target": "0.001",
            "cfo": "0.0", "seed": "7", "trials": "1000"}
    return SimCurve(np.array([0.0, 10.0]), np.array([0.5, 0.25]),
                    np.array([0.01, 0.02]), meta)


def test_config_defaults_and_coercion():
    cfg = SystemConfig()
    assert cfg.scheme == "ook" and cfg.n == 64 and cfg.zeta == 1
    assert cfg.cp_len == 8
    assert SystemConfig(scheme="fsk2").zeta == 2
    coerced = SystemConfig(gamma_mag=1, trials=2.0 * 100, sigma_v=2)
    assert isinstance(coerced.gamma_mag, float) and coerced.gamma_mag == 1.0
    assert isinstance(coerced.trials, int) and coerced.trials == 200
    assert coerced.plan().n_data == 32
    replaced = cfg.replace(snr_db=(5.0,))
    assert replaced.snr_db == (5.0,) and replaced.scheme == "ook"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SystemConfig(n=100)
    with pytest.raises(ConfigurationError):
        SystemConfig(snr_db=(10.0, 5.0))
    with pytest.raises(ConfigurationError):
        SystemConfig(gamma_mag=1.5)
    with pytest.raises(ConfigurationError):
        SystemConfig(channel_mode="awgn")
    assert SystemConfig(l_direct=9).cp_len == 8  # memory 8 just fits
    with pytest.raises(ConfigurationError):
        SystemConfig(l_direct=10)  # memory exceeds the n=64 prefix
    with pytest.raises(ConfigurationError):
        SystemConfig(trials=0)
    with pytest.raises(ConfigurationError):
        SystemConfig(pfa_target=0.0)
    # a negative seed is refused before any stream is seeded from it
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        SystemConfig(seed=-1)
    assert SystemConfig(seed=0).seed == 0
    # integer fields take integral values only: none is truncated
    fractional = {"n": 64.7, "zeta": 2.5, "l_direct": 2.5, "l_forward": 2.5,
                  "trials": 1000.5, "seed": 7.5, "crc_preset": 9.5,
                  "threads": 1.5}
    for name, value in fractional.items():
        with pytest.raises(ConfigurationError):
            SystemConfig(scheme="fsk2", **{name: value})
    with pytest.raises(ConfigurationError):
        build_subcarrier_plan("fsk2", 64, zeta=2.5)
    whole = SystemConfig(scheme="fsk2", zeta=2.0)
    assert isinstance(whole.zeta, int) and whole.plan().zeta == 2


@pytest.mark.parametrize("name, value, argv", (
    ("cfo_eps", math.nan, ["ber", "--scheme", "fsk2", "--cfo", "nan"]),
    ("cfo_eps", -math.inf, ["ber", "--scheme", "fsk2", "--cfo=-inf"]),
    ("sigma_v", math.nan, ["pmd", "--sigma-v", "nan", "--trials", "100000"]),
    ("sigma_v", math.inf, ["ber", "--scheme", "fsk2", "--sigma-v", "inf"]),
    ("sigma_v", math.inf, ["theory", "--scheme", "fsk2", "--sigma-v", "inf"]),
    ("trials", math.inf, None),
    ("trials", math.nan, None),
))
def test_non_finite_inputs_are_refused(name, value, argv, capsys):
    # a NaN or infinite offset, backward gain or trial cap is refused
    # before any number is computed from it, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=name):
            SystemConfig(scheme="fsk2", **{name: value})
        if name == "sigma_v":
            with pytest.raises(ValueError, match="sigma_v"):
                analysis.rayleigh_nodes(value)
        if argv is not None:
            assert cli.main(argv + ["--n", "64", "--snr", "10,20"]) == 2
            assert f"error: {name} must be finite" in capsys.readouterr().err


def test_the_plan_owns_the_spacing():
    # the config and the analysis take the scheme's natural spacing
    # from the plan, so neither needs it spelled out
    for scheme in SCHEMES:
        assert SystemConfig(scheme=scheme).zeta == build_subcarrier_plan(scheme, 64).zeta
    snr = (0.0, 20.0)
    natural = _theory_curve(SystemConfig(scheme="fsk2", gamma_mag=0.5, snr_db=snr))[1]
    explicit = _theory_curve(SystemConfig(scheme="fsk2", gamma_mag=0.5, snr_db=snr,
                                          zeta=2))[1]
    assert natural.values.tobytes() == explicit.values.tobytes()


def test_sim_curve_validation():
    curve = small_curve()
    assert curve.meta["scheme"] == "ook"
    with pytest.raises(ValueError):
        SimCurve(np.array([0.0]), np.array([0.5, 0.5]),
                 np.array([0.01, 0.01]), curve.meta)
    with pytest.raises(ValueError):
        SimCurve(np.array([0.0]), np.array([1.5]), np.array([0.01]), curve.meta)
    with pytest.raises(ValueError):
        SimCurve(np.array([0.0]), np.array([np.nan]), np.array([0.01]), curve.meta)
    with pytest.raises(ValueError):
        SimCurve(np.array([0.0]), np.array([0.5]), np.array([-0.01]), curve.meta)
    with pytest.raises(ValueError):
        SimCurve(np.array([0.0]), np.array([0.5]), np.array([0.01]),
                 {"scheme": "ook"})


def test_csv_round_trip_and_exact_bytes(tmp_path):
    curve = small_curve()
    path = tmp_path / "curve.csv"
    emit_csv(curve, path)
    text = path.read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "0.0,0.5,0.01,ook,64,0.25,0.001,0.0,7,1000"
    assert lines[2] == "10.0,0.25,0.02,ook,64,0.25,0.001,0.0,7,1000"
    back = parse_csv(path)
    assert np.array_equal(back.abscissa, curve.abscissa)
    assert np.array_equal(back.values, curve.values)
    assert np.array_equal(back.confidence_halfwidth, curve.confidence_halfwidth)
    assert back.meta == curve.meta


def test_csv_parse_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(ValueError):
        parse_csv(empty)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        parse_csv(wrong)


def test_runs_are_thread_and_rerun_deterministic(tmp_path):
    base = SystemConfig(scheme="fsk2", n=64, gamma_mag=0.25,
                        snr_db=(5.0, 15.0), trials=20_000,
                        channel_mode="iid", seed=157)
    paths = []
    for threads in (1, 4):
        curve = run_ber_sweep(base.replace(threads=threads))
        path = tmp_path / f"t{threads}.csv"
        emit_csv(curve, path)
        paths.append(path)
    assert filecmp.cmp(*paths, shallow=False)
    again = tmp_path / "again.csv"
    emit_csv(run_ber_sweep(base), again)
    assert filecmp.cmp(paths[0], again, shallow=False)


def test_point_that_stops_on_its_first_batch_computes_only_it():
    # the first batch runs alone, so a point that reaches its events on
    # batch 0 computes no twin batch beside it
    calls = []

    def batch(rng, size):
        calls.append(size)
        return lambda noise: [size]

    counts, taken, used = _accumulate(batch, 10_000, 5, (1.0,), threads=2,
                                      target_events=1, batch_size=1_000)
    assert calls == [1_000] and taken == 1_000 and counts[0, 0] == 1_000
    assert used.tolist() == [1_000]
    calls.clear()
    _, taken, _ = _accumulate(batch, 10_000, 5, (1.0,), threads=2,
                              target_events=2_500, batch_size=1_000)
    assert taken == 3_000 and 3 <= len(calls) <= 4


def test_each_point_is_charged_the_batches_up_to_its_own_stop():
    # a fake kernel whose first count per batch is the point's noise:
    # at a target of 3 events the points stop after 3, 2 and 1 batches
    # and the silent one runs to the cap, the last batch a short one.
    # Each point is charged the batch sizes up to its own stop, and on
    # one thread it is scored at no later batch
    for threads in (1, 2, 3):
        scored = []

        def batch(rng, size):
            def score(noise):
                scored.append(noise)
                return [noise, size]
            return score

        counts, taken, used = _accumulate(batch, 950, 5, (1, 2, 3, 0),
                                          threads=threads, target_events=3,
                                          batch_size=100)
        assert used.tolist() == [300, 200, 100, 950], threads
        assert counts.tolist() == [[3, 300], [4, 200], [3, 100], [0, 950]]
        assert taken == 950
        if threads == 1:
            assert [scored.count(noise) for noise in (1, 2, 3, 0)] == [3, 2, 1, 10]


def _run_recording_trials(run, cfg):
    # the curve run(cfg) returns and the trials each of its points used
    used = []

    def recording(*args, **kwargs):
        result = _accumulate(*args, **kwargs)
        used.append(result[2].tolist())
        return result

    with mock.patch.object(harness, "_accumulate", recording):
        curve = run(cfg)
    return curve, used[-1]


# Each curve kind: the schemes it takes, whether it needs tdl, and its run.
_CURVE_KINDS = {
    "pmd": (("ook",), False, run_pmd_sweep),
    "ber": (("fsk1", "fsk2"), False, run_ber_sweep),
    "primary": (SCHEMES, True, lambda c: run_ber_sweep(c, "primary")),
    "retx": (SCHEMES, False, run_retx),
    "cfo": (("fsk1", "fsk2"), True,
            lambda c: run_cfo_study(c.replace(cfo_eps=0.0), (c.cfo_eps,))[0]),
}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_CURVE_KINDS)),
       mode=st.sampled_from(("tdl", "iid")),
       threads=st.sampled_from((1, 2)),
       data=st.data())
def test_point_reads_the_same_alone_and_inside_a_grid(kind, mode, threads, data):
    # every point of a curve reads the same batches, and its count for
    # a batch does not depend on the other points, so its value, its
    # interval and its trials are the same alone as inside a grid
    schemes, needs_tdl, run = _CURVE_KINDS[kind]
    snr = sorted(data.draw(st.sets(st.sampled_from(
        (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 30.0)), min_size=2, max_size=4)))
    point = data.draw(st.integers(0, len(snr) - 1))
    cfg = SystemConfig(
        scheme=data.draw(st.sampled_from(schemes)), n=64,
        gamma_mag=data.draw(st.sampled_from((0.25, 1.0))), snr_db=tuple(snr),
        cfo_eps=data.draw(st.sampled_from(
            (0.05, -0.2) if kind == "cfo" else (0.0, 0.1) if kind == "primary"
            else (0.0,))),
        trials=data.draw(st.sampled_from(
            (1_300, 2_048) if kind == "retx" else (2_048, 5_000))),
        pfa_target=0.05, channel_mode="tdl" if needs_tdl else mode,
        seed=data.draw(st.integers(0, 2 ** 32 - 1)), threads=threads)
    grid, grid_used = _run_recording_trials(run, cfg)
    alone, alone_used = _run_recording_trials(run, cfg.replace(snr_db=(snr[point],)))
    assert grid.values[point] == alone.values[0]
    assert grid.confidence_halfwidth[point] == alone.confidence_halfwidth[0]
    assert grid_used[point] == alone_used[0]


@pytest.mark.parametrize("job", ("offset-grid", "retx"))
def test_shared_batches_are_thread_deterministic(job, tmp_path):
    # a multi-point tdl grid under an offset, and retx, whose points
    # stop on different batches: byte-identical CSVs on 1, 2 and 4 threads
    cfg, run = {
        "offset-grid": (SystemConfig(scheme="fsk2", n=64, gamma_mag=0.25,
                                     snr_db=(10.0, 20.0, 30.0, 40.0),
                                     cfo_eps=0.05, trials=5 * 2048, seed=307),
                        run_ber_sweep),
        "retx": (SystemConfig(scheme="ook", n=64, gamma_mag=0.25,
                              snr_db=(20.0, 30.0, 40.0), trials=6 * 512,
                              seed=311), run_retx),
    }[job]
    paths = []
    for threads in (1, 2, 4):
        curve, used = _run_recording_trials(run, cfg.replace(threads=threads))
        assert len(set(used)) > 1, used
        paths.append(tmp_path / f"t{threads}.csv")
        emit_csv(curve, paths[-1])
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
    assert filecmp.cmp(paths[0], paths[2], shallow=False)


def test_silent_tag_hits_false_alarm_floor():
    # with a zero reflection coefficient the detector sees pure noise,
    # so it misses at one minus the false-alarm target
    cfg = SystemConfig(scheme="ook", n=64, gamma_mag=0.0,
                       snr_db=(0.0, 20.0), trials=200_000,
                       channel_mode="iid", seed=163, pfa_target=1e-3)
    curve = run_pmd_sweep(cfg, target_events=None)
    for value, ci in zip(curve.values, curve.confidence_halfwidth):
        assert abs(value - 0.999) < max(4 * ci, 5e-4), (value, ci)


def test_silent_tag_fsk_is_a_coin_flip():
    cfg = SystemConfig(scheme="fsk1", n=64, gamma_mag=0.0, snr_db=(10.0,),
                       trials=50_000, channel_mode="iid", seed=167)
    curve = run_ber_sweep(cfg, target_events=None)
    assert abs(curve.values[0] - 0.5) < 5 * curve.confidence_halfwidth[0]


def test_roc_endpoints_and_monotonicity():
    cfg = SystemConfig(scheme="ook", n=64, gamma_mag=0.5, snr_db=(10.0,),
                       trials=20_000, seed=173)
    etas = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    curve = run_roc(cfg, etas)
    assert curve.values.shape == (5,)
    assert curve.abscissa[-1] == 1.0 and curve.values[-1] == 1.0
    assert (np.diff(curve.abscissa) >= 0).all()
    assert (np.diff(curve.values) >= 0).all()
    with pytest.raises(ConfigurationError):
        run_roc(cfg.replace(snr_db=(0.0, 10.0)), etas)


def test_confidence_shrinks_with_trials():
    base = SystemConfig(scheme="fsk2", n=64, gamma_mag=0.25, snr_db=(10.0,),
                        channel_mode="iid", seed=179)
    small = run_ber_sweep(base.replace(trials=20_000), target_events=None)
    large = run_ber_sweep(base.replace(trials=80_000), target_events=None)
    ratio = small.confidence_halfwidth[0] / large.confidence_halfwidth[0]
    assert abs(ratio - 2.0) < 0.3, ratio
    assert small.meta["trials"] == "20000" and large.meta["trials"] == "80000"


def test_retx_floor_and_clean_channel():
    silent = SystemConfig(scheme="fsk2", n=64, gamma_mag=0.0, snr_db=(10.0,),
                          trials=2_000, seed=181)
    floor = run_retx(silent, target_events=None)
    assert floor.values[0] > 0.9
    clean = SystemConfig(scheme="fsk2", n=64, gamma_mag=1.0, snr_db=(200.0,),
                         trials=2_000, seed=191)
    spotless = run_retx(clean, target_events=None)
    assert spotless.values[0] == 0.0


def test_primary_ber_ignores_tag_amplitude():
    base = SystemConfig(scheme="fsk2", n=64, snr_db=(5.0, 10.0),
                        trials=3_000, seed=193)
    quiet = run_ber_sweep(base.replace(gamma_mag=0.0), target="primary",
                          target_events=None)
    loud = run_ber_sweep(base.replace(gamma_mag=1.0), target="primary",
                         target_events=None)
    assert np.array_equal(quiet.values, loud.values)
    assert 0.0 < quiet.values[0] < 0.5


def test_cfo_study_zero_offset_matches_plain_sweep():
    cfg = SystemConfig(scheme="fsk2", n=64, gamma_mag=0.5, snr_db=(10.0,),
                       trials=10_000, seed=197)
    plain = run_ber_sweep(cfg, target_events=None)
    zero, shifted = run_cfo_study(cfg, (0.0, 0.1), target_events=None)
    assert np.array_equal(zero.values, plain.values)
    assert zero.meta["cfo"] == "0.0" and shifted.meta["cfo"] == "0.1"
    assert shifted.values[0] > zero.values[0]


def test_compare_smoke():
    cfg = SystemConfig(scheme="fsk2", n=64, gamma_mag=0.5,
                       snr_db=(5.0, 15.0), trials=50_000,
                       channel_mode="iid", seed=211)
    theory, sim, rows, ok = run_compare(cfg)
    assert ok, rows
    assert len(rows) == 2 and all(r["checked"] for r in rows)
    bad_sim = SimCurve(sim.abscissa, np.clip(sim.values * 3 + 0.2, 0, 1),
                       sim.confidence_halfwidth, sim.meta)
    _, all_ok = compare_theory_sim(theory, bad_sim)
    assert not all_ok


def test_cli_parser_is_built_once_and_keeps_no_values(tmp_path, capsys):
    # one parser serves every call in a process; a flag given to one
    # call must not carry over into the next
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli.main(["ber", "--target", "primary", "--scheme", "fsk2",
                     "--n", "64", "--snr", "10", "--gamma", "0.5",
                     "--trials", "64", "--seed", "3", "--out", str(first)]) == 0
    assert cli.main(["ber", "--scheme", "fsk1", "--n", "128", "--snr", "20",
                     "--trials", "64", "--out", str(second)]) == 0
    assert cli._parser() is cli._parser()
    labels = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("# ")]
    assert labels[0].startswith("# primary bit error rate")
    assert labels[1].startswith("# bd bit error rate")
    defaults = SystemConfig()
    meta = parse_csv(second).meta
    assert (meta["scheme"], meta["N"], meta["trials"]) == ("fsk1", "128", "64")
    assert meta["gamma"] == repr(defaults.gamma_mag)
    assert meta["seed"] == str(defaults.seed)


def test_cli_theory_and_config_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# sweep setup\nscheme = fsk2\ngamma_mag = 0.5\n"
                    "snr_db = 10, 20\nn = 64\n")
    out = tmp_path / "theory.csv"
    code = cli.main(["theory", "--config", str(conf), "--gamma", "0.25",
                     "--cfo", "0.1", "--seed", "9", "--trials", "5000",
                     "--out", str(out)])
    assert code == 0
    curve = parse_csv(out)
    assert curve.meta["scheme"] == "fsk2" and curve.meta["N"] == "64"
    assert curve.meta["gamma"] == "0.25"  # the flag out-ranks the file
    assert curve.abscissa.tolist() == [10.0, 20.0]
    # the analysis has no offset, seed, trials or sampling interval
    assert (curve.meta["cfo"], curve.meta["seed"], curve.meta["trials"]) == (
        "0.0", "0", "0")
    assert not curve.confidence_halfwidth.any()


@settings(max_examples=200)
@given(scheme=st.sampled_from(SCHEMES), n=st.sampled_from(DFT_SIZES),
       gamma=st.floats(0.0, 1.0), log10_sigma_v=st.floats(-3.0, 3.0),
       pfa=st.floats(1e-12, 0.99), snr_db=st.floats(-3000.0, 3000.0))
def test_theory_curve_is_a_probability_everywhere(scheme, n, gamma, log10_sigma_v,
                                                  pfa, snr_db):
    # every theory point is an exact law, so over every configuration
    # SystemConfig accepts it is a probability, reached without overflow,
    # division by zero or any other floating-point warning; the backward
    # gain is drawn log-uniformly over its whole range, 1e-3 to 1e3
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=gamma,
                       sigma_v=10.0 ** log10_sigma_v,
                       pfa_target=pfa, snr_db=snr_db)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, curve = _theory_curve(cfg)
    assert np.isfinite(curve.values).all()
    assert ((curve.values >= 0) & (curve.values <= 1)).all()


@pytest.mark.parametrize("argv", (
    ["theory", "--sigma-v", "1e160"],
    ["ber", "--scheme", "fsk2", "--sigma-v", "1e160", "--trials", "100"],
    ["theory", "--scheme", "ook", "--sigma-v", "1e-300"],
))
def test_cli_refuses_a_backward_gain_out_of_range(argv, capsys):
    # sigma_v ** 2 used to overflow (an OverflowError traceback and exit 1)
    # or its density to underflow (warnings, then a value error); now the
    # config names the field, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    assert "error: sigma_v must lie in [0.001, 1000]" in capsys.readouterr().err
    for sigma_v in (1e-3, 1e3):
        assert SystemConfig(sigma_v=sigma_v).sigma_v == sigma_v
    for sigma_v in (0.0, 0.999e-3, 1.001e3):
        with pytest.raises(ConfigurationError, match="sigma_v"):
            SystemConfig(sigma_v=sigma_v)


@pytest.mark.parametrize("scheme", ["ook", "fsk2"])
def test_cli_refuses_an_snr_whose_noise_energy_underflows(scheme, capsys):
    # above about 3 236 dB the per-bin noise energy 10**(-snr_db/10) is
    # 0; ook used to answer 0 and fsk2 to name an internal parameter
    assert cli.main(["theory", "--scheme", scheme, "--n", "64", "--snr", "3300"]) == 2
    assert "error: snr_db 3300 puts the per-bin noise energy" in capsys.readouterr().err
    # a subnormal noise energy, and one that overflows, are refused too
    for snr in ((10.0, 3230.0), (-3100.0, 10.0)):
        with pytest.raises(ConfigurationError, match="snr_db"):
            SystemConfig(scheme=scheme, snr_db=snr)
    assert SystemConfig(scheme=scheme, snr_db=(3000.0,)).snr_db == (3000.0,)


def test_cli_simulation_commands(tmp_path):
    out = tmp_path / "pmd.csv"
    code = cli.main(["pmd", "--channel-mode", "iid", "--snr", "10",
                     "--trials", "100000", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert parse_csv(out).meta["seed"] == "5"
    roc_out = tmp_path / "roc.csv"
    code = cli.main(["roc", "--snr", "10", "--trials", "5000",
                     "--eta-grid", "0.0,2.0,5.0", "--out", str(roc_out)])
    assert code == 0
    assert parse_csv(roc_out).values[-1] <= 1.0
    cfo_out = tmp_path / "cfo.csv"
    code = cli.main(["cfo", "--scheme", "fsk2", "--snr", "10", "--trials",
                     "3000", "--eps-grid", "0.0,0.05", "--out", str(cfo_out)])
    assert code == 0
    assert parse_csv(tmp_path / "cfo_eps0.csv").meta["cfo"] == "0.0"
    assert parse_csv(tmp_path / "cfo_eps0.05.csv").meta["cfo"] == "0.05"


def test_cli_suffix_goes_before_the_file_names_extension(tmp_path):
    # a dot in a directory name is not the file's extension
    assert cli._suffixed("out.csv", "theory") == "out_theory.csv"
    assert cli._suffixed("results.d/curve", "theory") == "results.d/curve_theory"
    assert cli._suffixed("res.d/curve.csv", "eps0.1") == "res.d/curve_eps0.1.csv"
    out = tmp_path / "results.d" / "curve"
    out.parent.mkdir()
    assert cli.main(["cfo", "--scheme", "fsk2", "--snr", "10", "--trials", "64",
                     "--eps-grid", "0.05", "--out", str(out)]) == 0
    assert [p.name for p in out.parent.iterdir()] == ["curve_eps0.05"]


def test_cli_cfo_rejects_offsets_that_share_a_file(tmp_path, capsys):
    # each offset's curve is written to a file named by its offset at 6
    # significant digits, so two that agree there would overwrite one
    out = tmp_path / "c.csv"
    assert cli.main(["cfo", "--scheme", "fsk2", "--snr", "10", "--trials", "2000",
                     "--eps-grid", "0.1,0.1000001", "--out", str(out)]) == 2
    assert "collide" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_table_is_the_config_fields(tmp_path):
    # one table names every SystemConfig field, and a flag parses its
    # value exactly as the config-file key does
    assert list(cli._FIELDS) == [f.name for f in dataclasses.fields(SystemConfig)]
    values = {"scheme": "fsk2", "n": "128", "zeta": "3", "gamma_mag": "0.5",
              "snr_db": "10, 20", "cfo_eps": "0.05", "l_direct": "3",
              "l_forward": "2", "sigma_v": "0.5", "pfa_target": "0.01",
              "trials": "5000", "seed": "11", "channel_mode": "tdl",
              "crc_preset": "0b01001", "threads": "2"}
    assert set(values) == set(cli._FIELDS)
    conf = tmp_path / "all.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    parser = argparse.ArgumentParser()
    cli._add_common_flags(parser)
    flags = [tok for k, v in values.items()
             for tok in (cli._FIELDS[k][0], v.replace(" ", ""))]
    assert flags[flags.index("--snr") + 1] == "10,20"
    from_file = cli.build_config(parser.parse_args(["--config", str(conf)]))
    from_flags = cli.build_config(parser.parse_args(flags))
    assert from_file == from_flags == SystemConfig(
        scheme="fsk2", n=128, zeta=3, gamma_mag=0.5, snr_db=(10.0, 20.0),
        cfo_eps=0.05, l_direct=3, l_forward=2, sigma_v=0.5, pfa_target=0.01,
        trials=5000, seed=11, channel_mode="tdl", crc_preset=0b01001,
        threads=2)


@pytest.mark.parametrize("argv, dest, value", (
    (["ber", "--cfo", "-1e-3"], "cfo", -1e-3),
    (["ber", "--cfo", "-.05"], "cfo", -0.05),
    (["ber", "--snr", "-5,10"], "snr", (-5.0, 10.0)),
    (["ber", "--snr", "-1e1,-2.5E0"], "snr", (-10.0, -2.5)),
    (["cfo", "--eps-grid", "-1e-3,0.05"], "eps_grid", "-1e-3,0.05"),
    (["cfo", "--eps-grid", "-0.1,-2e-2"], "eps_grid", "-0.1,-2e-2"),
))
def test_cli_reads_negative_numbers_as_values(argv, dest, value):
    # argparse of itself takes only "-<digits>" and "-<digits>.<digits>"
    # for numbers, so "--cfo -1e-3" and "--snr -5,10" used to exit 2
    assert getattr(cli._parser().parse_args(argv), dest) == value


def test_cli_runs_negative_offsets_and_grids(tmp_path):
    out = tmp_path / "ber.csv"
    assert cli.main(["ber", "--scheme", "fsk2", "--cfo", "-1e-3", "--snr", "-5,10",
                     "--trials", "64", "--out", str(out)]) == 0
    curve = parse_csv(out)
    assert curve.meta["cfo"] == "-0.001" and curve.abscissa.tolist() == [-5.0, 10.0]
    assert cli.main(["cfo", "--scheme", "fsk2", "--snr", "10", "--trials", "64",
                     "--eps-grid", "-1e-3,0.05", "--out", str(out)]) == 0
    assert parse_csv(tmp_path / "ber_eps-0.001.csv").meta["cfo"] == "-0.001"


def test_cli_offset_needs_tdl(capsys):
    # every simulating command rejects a carrier offset in iid mode
    for argv in (["pmd"], ["roc", "--snr", "10"], ["ber", "--scheme", "fsk2"],
                 ["retx"], ["cfo"], ["compare"]):
        capsys.readouterr()
        assert cli.main(argv + ["--channel-mode", "iid", "--cfo", "0.1"]) == 2
        assert ("simulating a frequency offset needs channel_mode='tdl'"
                in capsys.readouterr().err), argv


def test_compare_rejects_an_offset_before_the_theory_curve(monkeypatch, capsys):
    # the offset dooms the iid simulation, so no theory curve is computed
    def refuse(*args, **kwargs):
        raise AssertionError("the theory curve ran before the offset was rejected")

    monkeypatch.setattr(analysis, "theory_sweep", refuse)
    assert cli.main(["compare", "--cfo", "0.2"]) == 2
    assert ("simulating a frequency offset needs channel_mode='tdl'"
            in capsys.readouterr().err)


def test_cli_rejects_bad_input(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["pmd", "--n", "100", "--out", str(out)]) == 2
    conf = tmp_path / "bad.conf"
    conf.write_text("unknown_key = 3\n")
    assert cli.main(["theory", "--config", str(conf), "--out", str(out)]) == 2
    # number lists parsed outside argparse fail with a message, too
    bad_list = tmp_path / "list.conf"
    bad_list.write_text("snr_db = 1,x\n")
    for argv in (["roc", "--snr", "10", "--eta-grid", "1,x"],
                 ["cfo", "--scheme", "fsk2", "--eps-grid", "0.1,x"],
                 ["theory", "--config", str(bad_list)]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: bad number list"), argv
    # a negative seed is named, and compare refuses it before its theory curve
    for argv in (["ber", "--scheme", "fsk2", "--seed", "-1"],
                 ["compare", "--scheme", "fsk2", "--seed", "-1"]):
        with mock.patch.object(analysis, "theory_sweep") as theory:
            assert cli.main(argv + ["--out", str(out)]) == 2, argv
        assert "error: seed must be >= 0" in capsys.readouterr().err, argv
        assert not theory.called


def _landing_weight_error(cfg, seed):
    # at zero offset a landing set's noise-free bins are gamma*hb times
    # the data sign on each source bin times a fixed linear map M of the
    # forward taps; fit M by least squares from noise-free time-domain
    # rows, check that it reproduces them, and return the largest gap
    # between the top rank eigenvalues of its Gram G = M M^H over
    # l_forward and the link's landing weights, relative to the largest
    # weight; the Gram's other eigenvalues must vanish
    plan = cfg.plan()
    sets = (plan.kb0,) if cfg.scheme == "ook" else (plan.kb0, plan.kb1)
    rows = cfg.l_forward + 8
    rng = np.random.default_rng(seed)
    link = _tag_link(cfg)
    assert link.rank == min(cfg.l_forward, len(sets[0]))
    error = 0.0
    for bit, landing in enumerate(link.landings):
        shift = tag_shift(cfg.scheme, bit, plan.zeta)
        assert (landing is None) == (shift is None)
        if landing is None:
            continue
        col, weights, bulk = landing
        assert bulk == 0.0
        grid, ch, data_bits = tdl_grid(rng, rows, cfg, np.full(rows, bit),
                                       NoiseSpec(0.0))
        signs = np.zeros((rows, plan.n))
        signs[:, plan.data_idx] = 1.0 - 2.0 * data_bits
        kb = sets[col]
        z = grid.values[:, kb] / (cfg.gamma_mag * ch.taps_backward[:, :1]
                                  * signs[:, (kb - shift) % plan.n])
        m = np.linalg.lstsq(ch.taps_forward, z, rcond=None)[0]
        assert np.abs(ch.taps_forward @ m - z).max() <= 1e-10 * np.abs(z).max()
        fitted = np.linalg.eigvalsh(m @ m.conj().T) / cfg.l_forward
        top, others = fitted[-link.rank:], fitted[:-link.rank]
        assert weights.shape == top.shape and weights.min() >= 0
        assert np.abs(others).max(initial=0.0) <= 1e-10 * top.max()
        error = max(error, np.abs(top - weights).max() / weights.max())
    return error


def _set_energy_error(cfg, rows, seed):
    # same taps, backward gain, data signs and bits, no noise: the
    # largest gap between the kernel's signal energy on each detection
    # set and the energy of the time-domain link's bins there, relative
    # to the largest; at zero offset, the landing weights' gap instead
    if not cfg.cfo_eps:
        return _landing_weight_error(cfg, seed)
    plan = cfg.plan()
    rng = np.random.default_rng(seed)
    bits = rng.permutation(np.arange(rows) % 2).astype(np.int8)
    grid, ch, data_bits = tdl_grid(rng, rows, cfg, bits, NoiseSpec(0.0))
    got = _signal_power(_tag_link(cfg), bits, ch.taps_backward[:, 0],
                        ch.taps_forward, ch.taps_direct, 1.0 - 2.0 * data_bits)
    if cfg.scheme == "ook":
        expected = ook_test_statistic(grid, plan)[:, None]
    else:
        expected = np.stack(fsk_metrics(grid, plan), axis=1)
    scale = expected.max()
    assert scale > 0 and got.shape == expected.shape
    return np.abs(got - expected).max() / scale


@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_frequency_kernel_matches_time_domain_bins(scheme, n):
    # at zero offset the kernel's landing energy is a weighted sum of
    # exponentials, one per eigenvalue of the Gram that the time-domain
    # link's bins realise
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.5, snr_db=(10.0,))
    assert _set_energy_error(cfg, 64, 229) <= 1e-10


@pytest.mark.parametrize("eps", (0.05, -0.2, 0.3))
@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_offset_set_energies_match_time_domain_bins(scheme, n, eps):
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.5, cfo_eps=eps,
                       snr_db=(10.0,))
    assert _set_energy_error(cfg, 64, 241) <= 1e-10


@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_offset_set_energies_cross_row_blocks(scheme, n):
    # two full row blocks and a last one of a single row
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.5, cfo_eps=0.1,
                       snr_db=(10.0,))
    assert _set_energy_error(cfg, 2 * _ROW_BLOCK + 1, 251) <= 1e-10


@settings(max_examples=40)
@given(scheme=st.sampled_from(("ook", "fsk1", "fsk2")),
       n=st.sampled_from(DFT_SIZES),
       eps=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
       gamma=st.floats(0.05, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_set_energies_match_time_domain_everywhere(scheme, n, eps, gamma,
                                                   seed, data):
    # any channel memory up to the cyclic prefix, with or without offset
    taps = st.integers(1, n // 8 + 1)
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=gamma, cfo_eps=eps,
                       l_direct=data.draw(taps), l_forward=data.draw(taps),
                       snr_db=(10.0,))
    assert _set_energy_error(cfg, 16, seed) <= 1e-10


def _leaked_bins_error(cfg, rows, seed, target="bd"):
    # same taps, backward gain, data signs and bits, no noise: the
    # largest gap between the bins the kernel reads through its leakage
    # matrices and the time-domain link's, relative to the largest bin;
    # for primary detection also the gap between the direct gains
    plan = cfg.plan()
    link = _tag_link(cfg, target)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=rows).astype(np.int8)
    grid, ch, data_bits = tdl_grid(rng, rows, cfg, bits, NoiseSpec(0.0))
    out = np.zeros((rows, link.sizes.sum()), dtype=np.complex128)
    signs = 1.0 - 2.0 * data_bits
    terms = _leak_onto(out, link, bits, ch.taps_backward[:, 0],
                       ch.taps_forward, ch.taps_direct, signs)
    if target == "primary":
        read = plan.data_idx
    else:
        sets = (plan.kb0,) if cfg.scheme == "ook" else (plan.kb0, plan.kb1)
        read = np.concatenate(sets)
    expected = grid.values[:, read]
    scale = np.abs(expected).max()
    assert scale > 0
    error = np.abs(out - expected).max() / scale
    if target == "primary":
        h = ch.freq_direct[:, plan.data_idx]
        hd = terms[:, :plan.n_data] * signs
        error = max(error, np.abs(hd - h).max() / np.abs(h).max())
    return error


@pytest.mark.parametrize("eps", (0.05, -0.2, 0.3, 1.0))
@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_offset_kernel_matches_time_domain_bins(scheme, n, eps):
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.5, cfo_eps=eps,
                       snr_db=(10.0,))
    assert _leaked_bins_error(cfg, 64, 241) <= 1e-10


@settings(max_examples=40)
@given(scheme=st.sampled_from(("ook", "fsk1", "fsk2")),
       n=st.sampled_from(DFT_SIZES),
       eps=st.floats(-0.5, 0.5).filter(lambda e: e != 0.0),
       gamma=st.floats(0.05, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_offset_kernel_matches_time_domain_everywhere(scheme, n, eps, gamma,
                                                      seed, data):
    # any channel memory up to the cyclic prefix
    taps = st.integers(1, n // 8 + 1)
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=gamma, cfo_eps=eps,
                       l_direct=data.draw(taps), l_forward=data.draw(taps),
                       snr_db=(10.0,))
    assert _leaked_bins_error(cfg, 16, seed) <= 1e-10


def _reference_energies(cfg):
    # the time-domain link's detection-set energies, as the kernel's;
    # its noise is white per sample, of the per-bin energy over n
    plan = cfg.plan()

    def energies(rng, size, bits, noise):
        grid = tdl_grid(rng, size, cfg, bits, NoiseSpec(noise / cfg.n))[0]
        if cfg.scheme == "ook":
            return ook_test_statistic(grid, plan)[:, None]
        return np.stack(fsk_metrics(grid, plan), axis=1)
    return energies


def _kernel_energies(cfg):
    link = _tag_link(cfg)

    def energies(rng, size, bits, noise):
        return _set_energies(rng, size, link, bits)(noise)
    return energies


def _tag_error_rate(cfg, energies_of, trials, seed):
    # energies_of(rng, size, bits, noise) is a batch's set energies at
    # per-bin noise energy noise
    noise = analysis.noise_bin_variance(cfg.snr_db[0])
    if cfg.scheme == "ook":
        eta = analysis.optimal_threshold(cfg.pfa_target, len(cfg.plan().kb0)) * noise

    def kernel(rng, size):
        if cfg.scheme == "ook":
            bits = np.ones(size, dtype=np.int8)
            energy = energies_of(rng, size, bits, noise)
            count = np.count_nonzero(ook_detect(energy[:, 0], eta) == 0)
        else:
            bits = rng.integers(0, 2, size=size).astype(np.int8)
            energy = energies_of(rng, size, bits, noise)
            count = np.count_nonzero(fsk_detect(energy[:, 0], energy[:, 1]) != bits)
        return lambda point_noise: [count]

    counts, used, _ = _accumulate(kernel, trials, seed, (noise,), threads=2)
    p = counts[0, 0] / used
    return p, float(_ci95(p, used))


@pytest.mark.parametrize("scheme, eps", (("ook", 0.0), ("fsk1", 0.0), ("fsk2", 0.0),
                                         ("fsk2", 0.1)),
                         ids=("ook", "fsk1", "fsk2", "fsk2-cfo0.1"))
def test_frequency_kernel_matches_time_domain_statistically(scheme, eps):
    # ook missed detection and fsk bit errors at 20 dB, with and without
    # a carrier offset, 200k symbols each way: the two paths agree
    # within their combined intervals; fsk1's one bin per set is fewer
    # than the forward taps, so its landing spectrum has rank n_b
    cfg = SystemConfig(scheme=scheme, n=64, gamma_mag=0.25,
                       snr_db=(20.0,), pfa_target=1e-3, cfo_eps=eps)
    p_fd, ci_fd = _tag_error_rate(cfg, _kernel_energies(cfg), 200_000, 233)
    p_td, ci_td = _tag_error_rate(cfg, _reference_energies(cfg), 200_000, 239)
    assert 0.005 < p_fd < 0.5
    assert abs(p_fd - p_td) <= ci_fd + ci_td, (p_fd, ci_fd, p_td, ci_td)


@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_landing_power_matches_the_gram_form_statistically(scheme, n):
    # the kernel's noise-free landing energy, one exponential per Gram
    # eigenvalue, against gamma^2*|hb|^2 * taps^H G taps from
    # complex-normal hb and taps (Imhof 1961): 100k rows per reflecting
    # bit each way agree in a two-sample Kolmogorov-Smirnov test; every
    # other set, and ook's one set when its tag sends 0, reads exactly 0
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.25, snr_db=(10.0,))
    link = _tag_link(cfg)
    rows, block = 100_000, 2000
    for bit, landing in enumerate(link.landings):
        bits = np.full(block, bit, dtype=np.int8)
        kernel_rng, reference_rng = (np.random.default_rng(283 + bit),
                                     np.random.default_rng(293 + bit))
        got = np.concatenate([_set_energies(kernel_rng, block, link, bits)(0.0)
                              for _ in range(rows // block)])
        if landing is None:
            assert not got.any()
            continue
        col = landing[0]
        ref = np.concatenate([tdl_signal_power(reference_rng, block, cfg, bits)
                              for _ in range(rows // block)])
        assert not np.delete(got, col, axis=1).any()
        assert not np.delete(ref, col, axis=1).any()
        p = stats.ks_2samp(got[:, col], ref[:, col]).pvalue
        assert p > 1e-3, (bit, p)


@pytest.mark.parametrize("scheme, n, snr", (("ook", 64, 15.0), ("ook", 512, 10.0),
                                            ("fsk2", 64, 10.0), ("fsk2", 512, 5.0)))
def test_iid_kernel_matches_per_bin_reference_statistically(scheme, n, snr):
    # ook missed detection and fsk2 bit errors of the iid model, 200k
    # symbols each way: the kernel's one gamma variate per set and the
    # reference's per-bin gains and noise agree within their combined
    # intervals
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.25, snr_db=(snr,),
                       pfa_target=1e-3, channel_mode="iid")
    p_fd, ci_fd = _tag_error_rate(cfg, _kernel_energies(cfg), 200_000, 277)
    p_ref, ci_ref = _tag_error_rate(
        cfg, lambda rng, size, bits, noise: iid_set_energies(rng, size, cfg, bits, noise),
        200_000, 281)
    assert 0.05 < p_fd < 0.5
    assert abs(p_fd - p_ref) <= ci_fd + ci_ref, (p_fd, ci_fd, p_ref, ci_ref)


def test_roc_point_matches_time_domain_statistically():
    # one ook ROC point at 10 dB, 200k symbols per hypothesis each way:
    # false-alarm and detection probabilities at one threshold agree
    # within their combined intervals
    cfg = SystemConfig(scheme="ook", n=64, gamma_mag=0.25, snr_db=(10.0,))
    noise = analysis.noise_bin_variance(10.0)
    eta = 1.2 * len(cfg.plan().kb0) * noise

    def rates(energies_of, seed):
        def kernel(rng, size):
            above = [np.count_nonzero(energies_of(
                rng, size, np.full(size, bit, dtype=np.int8), noise)[:, 0] > eta)
                for bit in (0, 1)]
            return lambda point_noise: above

        counts, used, _ = _accumulate(kernel, 200_000, seed, (noise,), threads=2)
        p = counts[0] / used
        return p, _ci95(p, used)

    p_fd, ci_fd = rates(_kernel_energies(cfg), 269)
    p_td, ci_td = rates(_reference_energies(cfg), 271)
    assert (0.01 < p_fd).all() and (p_fd < 0.99).all(), p_fd
    assert (np.abs(p_fd - p_td) <= ci_fd + ci_td).all(), (p_fd, ci_fd, p_td, ci_td)


@pytest.mark.parametrize("eps", (0.0, 0.05, -0.2, 0.3, 1.0))
@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_primary_kernel_matches_time_domain_bins(scheme, n, eps):
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.5, cfo_eps=eps,
                       snr_db=(10.0,))
    assert _leaked_bins_error(cfg, 64, 251, "primary") <= 1e-10


@settings(max_examples=40)
@given(scheme=st.sampled_from(("ook", "fsk1", "fsk2")),
       n=st.sampled_from(DFT_SIZES),
       eps=st.floats(-0.5, 0.5),
       gamma=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_primary_kernel_matches_time_domain_everywhere(scheme, n, eps, gamma,
                                                       seed, data):
    # any channel memory up to the cyclic prefix, with or without offset
    taps = st.integers(1, n // 8 + 1)
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=gamma, cfo_eps=eps,
                       l_direct=data.draw(taps), l_forward=data.draw(taps),
                       snr_db=(10.0,))
    assert _leaked_bins_error(cfg, 16, seed, "primary") <= 1e-10


def test_primary_kernel_matches_time_domain_statistically():
    # fsk2 primary bit errors at 10 dB under a 0.1 offset, 200k symbols
    # each way.  The bits of one symbol share its channel, so each
    # halfwidth counts symbols: a symbol's error share lies in [0, 1],
    # so its variance is at most p*(1-p)
    cfg = SystemConfig(scheme="fsk2", n=64, gamma_mag=0.25, snr_db=(10.0,),
                       cfo_eps=0.1)
    plan = cfg.plan()
    link = _tag_link(cfg, "primary")
    noise = analysis.noise_bin_variance(10.0)

    def kernel_errors(rng, size, bits):
        received, hd, signs = _primary_grid(rng, size, link, bits)
        return primary_detect(received(noise), hd) != (signs < 0)

    def time_errors(rng, size, bits):
        grid, ch, data_bits = tdl_grid(rng, size, cfg, bits,
                                       snr_to_noise_variance(10.0, plan))
        hd = ch.freq_direct[:, plan.data_idx]
        return primary_detect(grid.values[..., plan.data_idx], hd) != data_bits

    def error_rate(errors_of, seed):
        def kernel(rng, size):
            bits = rng.integers(0, 2, size=size).astype(np.int8)
            count = np.count_nonzero(errors_of(rng, size, bits))
            return lambda point_noise: [count]

        counts, used, _ = _accumulate(kernel, 200_000, seed, (noise,), threads=2)
        p = counts[0, 0] / (used * plan.n_data)
        return p, float(_ci95(p, used))

    p_fd, ci_fd = error_rate(kernel_errors, 257)
    p_td, ci_td = error_rate(time_errors, 263)
    assert 0.005 < p_fd < 0.5
    assert abs(p_fd - p_td) <= ci_fd + ci_td, (p_fd, ci_fd, p_td, ci_td)


def test_primary_ber_matches_rayleigh_bpsk_theory():
    # without an offset each data bin holds Hd*X + W with Hd ~ CN(0, 1),
    # so the primary bit error rate is coherent BPSK averaged over
    # Rayleigh fading: 0.5 * (1 - sqrt(rho / (1 + rho)))
    cfg = SystemConfig(scheme="fsk2", n=64, snr_db=(0.0, 10.0, 20.0),
                       trials=20_000)
    curve = run_ber_sweep(cfg, target="primary", target_events=None)
    rho = 10.0 ** (np.asarray(cfg.snr_db) / 10.0)
    expect = 0.5 * (1.0 - np.sqrt(rho / (1.0 + rho)))
    tol = np.maximum(3.0 * curve.confidence_halfwidth, 0.05 * expect)
    assert (np.abs(curve.values - expect) <= tol).all(), (curve.values, expect)


def test_primary_interval_counts_symbols():
    # the data bits of one symbol share its direct channel, so the
    # interval counts symbols while the value stays errors per data bit
    cfg = SystemConfig(scheme="fsk2", n=64, snr_db=(0.0, 10.0),
                       trials=3_000, seed=197)
    curve = run_ber_sweep(cfg, target="primary", target_events=None)
    assert np.array_equal(curve.confidence_halfwidth,
                          _ci95(curve.values, cfg.trials))
    errors = curve.values * cfg.trials * len(cfg.plan().data_idx)
    assert np.allclose(errors, np.round(errors), rtol=0, atol=1e-6)
