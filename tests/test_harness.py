"""Tests for the Monte Carlo harness, CSV interchange, and the CLI."""

import argparse
import dataclasses
import filecmp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_link import (NoiseSpec, fsk_metrics, ook_test_statistic,
                            snr_to_noise_variance, tdl_grid)
from srbc import analysis
from srbc.detector import fsk_detect, ook_detect, primary_detect
from srbc.harness import (
    CSV_HEADER,
    SimCurve,
    SystemConfig,
    compare_theory_sim,
    emit_csv,
    parse_csv,
    run_ber_sweep,
    run_cfo_study,
    run_compare,
    run_pmd_sweep,
    run_retx,
    run_roc,
)
from srbc.harness import (DFT_SIZES, _accumulate, _ci95, _leak_onto,
                          _primary_grid, _set_energies, _signal_power,
                          _tag_link)
from srbc import cli
from srbc.waveform import ConfigurationError, build_subcarrier_plan


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


def test_sim_curve_validation():
    curve = small_curve()
    assert curve.meta["scheme"] == "ook"
    with pytest.raises(ValueError):
        SimCurve(np.array([0.0]), np.array([0.5, 0.5]),
                 np.array([0.01, 0.01]), curve.meta)
    with pytest.raises(ValueError):
        SimCurve(np.array([0.0]), np.array([1.5]), np.array([0.01]), curve.meta)
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
        return [size], size

    counts, used = _accumulate(batch, 10_000, 5, 0, threads=2,
                               target_events=1, batch_size=1_000)
    assert calls == [1_000] and used == 1_000 and counts[0] == 1_000
    calls.clear()
    _, used = _accumulate(batch, 10_000, 5, 0, threads=2,
                          target_events=2_500, batch_size=1_000)
    assert used == 3_000 and 3 <= len(calls) <= 4


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


def test_offset_kernel_shares_the_zero_offset_draws():
    # an offset draws its data signs and direct taps after the noise,
    # hb and forward taps, so on one stream a vanishing offset keeps
    # those: its set energies are the zero-offset ones, up to far less
    # than the tag adds to the noise energies
    cfg = SystemConfig(scheme="fsk2", n=64, gamma_mag=0.5, snr_db=(10.0,))
    noise = analysis.noise_bin_variance(10.0)
    bits = np.random.default_rng(5).integers(0, 2, size=512).astype(np.int8)

    def energies(c):
        return _set_energies(np.random.default_rng(7), 512, _tag_link(c),
                             bits, noise)

    w = energies(cfg.replace(gamma_mag=0.0))
    zero = energies(cfg)
    tiny = energies(cfg.replace(cfo_eps=1e-9))
    assert np.abs(tiny - zero).max() <= 1e-6 * np.abs(zero - w).max()


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


def test_cli_theory_reports_a_failed_point(tmp_path, monkeypatch, capsys):
    # a point whose quadrature fails is written as NaN, named on stderr,
    # and makes the run exit 1
    exact = analysis.fsk_error_prob

    def fail_at_20db(gamma_sq, sigma_v, sigma_h_sq, sigma_w_sq, n_b):
        if sigma_w_sq == analysis.noise_bin_variance(20.0):
            raise analysis.QuadratureError("forced failure", np.nan, np.inf)
        return exact(gamma_sq, sigma_v, sigma_h_sq, sigma_w_sq, n_b)

    monkeypatch.setattr(analysis, "fsk_error_prob", fail_at_20db)
    out = tmp_path / "theory.csv"
    code = cli.main(["theory", "--scheme", "fsk2", "--snr", "10,20,30",
                     "--out", str(out)])
    assert code == 1
    assert "numerical failure at point indices 1" in capsys.readouterr().err
    curve = parse_csv(out)
    assert np.isnan(curve.values[1])
    assert np.isfinite(curve.values[[0, 2]]).all()
    assert out.read_text().splitlines()[2].split(",")[1] == "nan"


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


def test_cli_offset_needs_tdl(capsys):
    # every simulating command rejects a carrier offset in iid mode
    for argv in (["pmd"], ["roc", "--snr", "10"], ["ber", "--scheme", "fsk2"],
                 ["retx"], ["cfo"]):
        capsys.readouterr()
        assert cli.main(argv + ["--channel-mode", "iid", "--cfo", "0.1"]) == 2
        assert ("simulating a frequency offset needs channel_mode='tdl'"
                in capsys.readouterr().err), argv


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


def _set_energy_error(cfg, rows, seed):
    # same taps, backward gain, data signs and bits, no noise: the
    # largest gap between the kernel's signal energy on each detection
    # set and the energy of the time-domain link's bins there, relative
    # to the largest
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
    if cfg.scheme == "ook" and not cfg.cfo_eps:
        assert not got[bits == 0].any()
    return np.abs(got - expected).max() / scale


@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_frequency_kernel_matches_time_domain_bins(scheme, n):
    # at zero offset the kernel's set energy is the Gram form of the
    # forward taps: the energy of the time-domain link's bins, whose
    # data signs it leaves out
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.5, snr_db=(10.0,))
    assert _set_energy_error(cfg, 64, 229) <= 1e-10


@pytest.mark.parametrize("eps", (0.05, -0.2, 0.3))
@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("scheme", ("ook", "fsk1", "fsk2"))
def test_offset_set_energies_match_time_domain_bins(scheme, n, eps):
    cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=0.5, cfo_eps=eps,
                       snr_db=(10.0,))
    assert _set_energy_error(cfg, 64, 241) <= 1e-10


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
        return _set_energies(rng, size, link, bits, noise)
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
            return np.array([np.count_nonzero(
                ook_detect(energy[:, 0], eta) == 0)]), size
        bits = rng.integers(0, 2, size=size).astype(np.int8)
        energy = energies_of(rng, size, bits, noise)
        decided = fsk_detect(energy[:, 0], energy[:, 1])
        return np.array([np.count_nonzero(decided != bits)]), size

    counts, used = _accumulate(kernel, trials, seed, 0, threads=2)
    p = counts[0] / used
    return p, float(_ci95(p, used))


@pytest.mark.parametrize("scheme, eps", (("ook", 0.0), ("fsk2", 0.0),
                                         ("fsk2", 0.1)),
                         ids=("ook", "fsk2", "fsk2-cfo0.1"))
def test_frequency_kernel_matches_time_domain_statistically(scheme, eps):
    # ook missed detection and fsk2 bit errors at 20 dB, with and
    # without a carrier offset, 200k symbols each way: the two paths
    # agree within their combined intervals
    cfg = SystemConfig(scheme=scheme, n=64, gamma_mag=0.25,
                       snr_db=(20.0,), pfa_target=1e-3, cfo_eps=eps)
    p_fd, ci_fd = _tag_error_rate(cfg, _kernel_energies(cfg), 200_000, 233)
    p_td, ci_td = _tag_error_rate(cfg, _reference_energies(cfg), 200_000, 239)
    assert 0.005 < p_fd < 0.5
    assert abs(p_fd - p_td) <= ci_fd + ci_td, (p_fd, ci_fd, p_td, ci_td)


def test_roc_point_matches_time_domain_statistically():
    # one ook ROC point at 10 dB, 200k symbols per hypothesis each way:
    # false-alarm and detection probabilities at one threshold agree
    # within their combined intervals
    cfg = SystemConfig(scheme="ook", n=64, gamma_mag=0.25, snr_db=(10.0,))
    noise = analysis.noise_bin_variance(10.0)
    eta = 1.2 * len(cfg.plan().kb0) * noise

    def rates(energies_of, seed):
        def kernel(rng, size):
            return np.array([np.count_nonzero(energies_of(
                rng, size, np.full(size, bit, dtype=np.int8), noise)[:, 0] > eta)
                for bit in (0, 1)]), size

        counts, used = _accumulate(kernel, 200_000, seed, 0, threads=2)
        p = counts / used
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
        y, hd, signs = _primary_grid(rng, size, link, bits, noise)
        return primary_detect(y, hd) != (signs < 0)

    def time_errors(rng, size, bits):
        grid, ch, data_bits = tdl_grid(rng, size, cfg, bits,
                                       snr_to_noise_variance(10.0, plan))
        hd = ch.freq_direct[:, plan.data_idx]
        return primary_detect(grid.values[..., plan.data_idx], hd) != data_bits

    def error_rate(errors_of, seed):
        def kernel(rng, size):
            bits = rng.integers(0, 2, size=size).astype(np.int8)
            return [np.count_nonzero(errors_of(rng, size, bits))], size

        counts, used = _accumulate(kernel, 200_000, seed, 0, threads=2)
        p = counts[0] / (used * plan.n_data)
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
