"""Tests of the benchmark itself, at the tiny scale (two SNR points, one batch).

    python3 -m pytest srbcbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = sorted(bench.EXACT)


def tiny_run(workload, trace, seed=5, setup_repeats=1):
    return bench.run(workload, seed, 0, trace, scale="tiny",
                     setup_repeats=setup_repeats)


def test_spec_names_the_benchmark_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_and_reports_every_metric(workload, trace):
    result = tiny_run(workload, trace)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(m[f"{layer}.self_s"] >= 0 for layer in tracer.LAYERS)
        assert m["cli.self_s"] > 0 and m["trace.spans"] > 0


def test_set_up_children_report_their_time():
    result = tiny_run("theory_iid", False, setup_repeats=2)
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = (tiny_run(workload, True, seed=11) for _ in range(2))
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_threaded_self_times_are_nonnegative_and_add_up():
    result = tiny_run("tdl_link", True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["harness.batches_computed"] >= m["harness.batches_kept"] > 0
    assert m["trace.worker_self_s"] > 0 and m["crc.frames"] > 0
    assert all(m[k] >= 0 for k in m if k.endswith("self_s"))
    # The main thread's time splits into self time and pool wait; worker
    # self time runs alongside it.  Medians of a single traced pass are
    # that pass's numbers, so the split must close exactly.
    main = (sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
            - m["trace.worker_self_s"] + m["harness.pool_wait_s"])
    assert main + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], abs=1e-9)


def test_profile_splits_pool_wait_from_self_time():
    main, worker = 1, 2
    spans = [tracer.Span(1, None, main, "harness._accumulate", 0.0, 10.0, None),
             tracer.Span(2, 1, worker, "harness.pool_task", 1.0, 6.0, None),
             tracer.Span(3, 1, worker + 1, "harness.pool_task", 2.0, 8.0, None),
             tracer.Span(4, 2, worker, "channel.add_awgn", 2.0, 5.0, None)]
    prof = tracer.profile(spans, main)
    assert prof.self_s["harness._accumulate"] == pytest.approx(3.0)
    assert prof.wait_s["harness._accumulate"] == pytest.approx(7.0)
    assert prof.self_s["harness.pool_task"] == pytest.approx(2.0 + 6.0)
    assert prof.self_s["channel.add_awgn"] == pytest.approx(3.0)
    assert prof.worker_self_s == pytest.approx(11.0)
    assert prof.main_root_s == pytest.approx(10.0)


def test_gate_passes_the_reference_and_fails_a_wrong_kernel():
    reference = gate.load_reference()
    for stem, ref in reference.items():
        sub = stem.split("_", 1)[0]
        curve = {k: np.asarray(v) if isinstance(v, list) else v for k, v in ref.items()}
        assert all(gate.check_against_reference(curve, ref, sub)), stem
    ref = reference["ber_fsk2_n256"]
    wrong = dict(ref, value=np.asarray(ref["value"]) * 1.5,
                 abscissa=np.asarray(ref["abscissa"]))
    assert not all(gate.check_against_reference(wrong, ref, "ber"))


def test_theory_oracle_matches_the_analysis_module():
    from srbc import analysis
    grid = workloads.theory_grid(3)
    for cmd in workloads.commands("theory_iid", 3):
        if cmd.sub != "theory":
            continue
        kind = "OOK_PMD" if cmd.scheme == "ook" else "FSK_BER"
        params = analysis.TheoryParams(cmd.scheme, cmd.n, gate.GAMMA,
                                       2 if cmd.scheme == "fsk2" else 1)
        curve = analysis.theory_sweep(kind, np.asarray(grid[:3]), params)
        got = {"abscissa": curve.abscissa, "value": curve.values}
        assert all(gate.check_theory(got, cmd.scheme, cmd.n))
        got["value"] = curve.values * (1 + 1e-3)
        assert not any(gate.check_theory(got, cmd.scheme, cmd.n))


def test_theory_grid_follows_the_seed():
    assert workloads.theory_grid(1) == workloads.theory_grid(1)
    assert workloads.theory_grid(1) != workloads.theory_grid(2)
    assert all(np.diff(workloads.theory_grid(4)) > 0)


def test_compare_rows_parse_the_verdict():
    ok = "abscissa=0 theory=0.3 sim=0.31 ci95=0.02 tol=0.06 ok\n"
    assert gate.compare_rows_ok("# header\n" + ok) == [True]
    assert gate.compare_rows_ok(ok + ok.replace(" ok", " MISS")) == [True, False]


def test_run_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tdl_link",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
