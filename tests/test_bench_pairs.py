"""Tests for the paired benchmark summary in tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_and_applies_the_claim_rule():
    parent_cpu = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1]
    change_cpu = [0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 1.5, 0.3]
    parent_ci = [0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.10]
    change_ci = [0.11, 0.10, 0.12, 0.10, 0.12, 0.11, 0.10, 0.10, 0.12, 0.11]
    pairs = [{"parent": {"cpu_s": p, "ci95_rel": pc, "rate": p},
              "change": {"cpu_s": c, "ci95_rel": cc, "rate": c}}
             for p, c, pc, cc in zip(parent_cpu, change_cpu, parent_ci, change_ci)]
    out = bench_pairs.summarize(
        pairs, {"cpu_s": "lower", "ci95_rel": "lower", "rate": "higher"})

    cpu = out["cpu_s"]
    assert cpu["parent"] == parent_cpu and cpu["change"] == change_cpu
    assert cpu["median"] == {"parent": 1.0, "change": 0.3}
    q1, q3 = cpu["quartiles"]["parent"]
    assert q1 == 1.0 and abs(q3 - 1.0875) < 1e-12
    assert (cpu["wins"], cpu["losses"], cpu["pairs"]) == (9, 1, 10)
    assert cpu["gain_shown"]

    # ties count for neither side, and no gain without nine wins in ten
    ci = out["ci95_rel"]
    assert (ci["wins"], ci["losses"]) == (3, 3)
    assert not ci["gain_shown"]
    # "higher" flips the direction: the same numbers are nine losses
    rate = out["rate"]
    assert (rate["wins"], rate["losses"]) == (1, 9)
    assert not rate["gain_shown"]
