"""Tests for the paired benchmark summary in tools/bench_pairs.py."""

import importlib.util
import subprocess
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


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), "-c", "user.name=t",
                           "-c", "user.email=t@example.com", *args],
                          capture_output=True, text=True, check=True).stdout.strip()


def test_tree_state_reports_head_and_uncommitted_changes(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "first")
    head = _git(tmp_path, "rev-parse", "HEAD")
    assert bench_pairs._tree_state(tmp_path) == {"head": head, "dirty": False}
    (tmp_path / "a.txt").write_text("two\n")
    assert bench_pairs._tree_state(tmp_path) == {"head": head, "dirty": True}
    (tmp_path / "a.txt").write_text("one\n")
    (tmp_path / "b.txt").write_text("new\n")
    assert bench_pairs._tree_state(tmp_path) == {"head": head, "dirty": True}


def test_snapshot_holds_the_working_tree_as_on_disk(tmp_path):
    # the change side runs from a copy of the working tree: a modified
    # tracked file's new contents and an untracked file, but no ignored
    # file and no tracked file deleted on disk
    root, dest = tmp_path / "root", tmp_path / "dest"
    root.mkdir()
    dest.mkdir()
    _git(root, "init", "-q")
    (root / ".gitignore").write_text("*.log\n")
    (root / "src").mkdir()
    (root / "src" / "a.py").write_text("one\n")
    (root / "gone.txt").write_text("x\n")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "first")
    (root / "src" / "a.py").write_text("two\n")
    (root / "src" / "new.py").write_text("new\n")
    (root / "src" / "run.log").write_text("ignored\n")
    (root / "gone.txt").unlink()
    bench_pairs._snapshot(root, dest)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/a.py", "src/new.py"]
    assert (dest / "src" / "a.py").read_text() == "two\n"


_STUB_RUN = """\
import json, resource, sys
print("gate: cfo_fsk2_n128_eps0.1: 1 of 7 points failed the gate", file=sys.stderr)
print("a traceback line", file=sys.stderr)
own = resource.getrusage(resource.RUSAGE_SELF)
print("# " + json.dumps({"env": {"minflt": own.ru_minflt,
                                 "user_s": own.ru_utime}}))
print(json.dumps({"metrics": {"cpu_s": {"value": 0.5}},
                  "attempted": 3, "failed": 0}))
"""


def test_bench_records_the_run_and_its_usage(tmp_path):
    (tmp_path / "srbcbench").mkdir()
    (tmp_path / "srbcbench" / "run.py").write_text(_STUB_RUN)
    run = bench_pairs._bench(tmp_path, "tdl_link", 1, 1.0)
    assert run["metrics"] == {"cpu_s": 0.5}
    assert (run["attempted"], run["failed"]) == (3, 0)
    # the gate's own lines of the run's stderr, and nothing else
    assert run["gate_lines"] == [
        "gate: cfo_fsk2_n128_eps0.1: 1 of 7 points failed the gate"]
    usage, own = run["rusage"], run["env"]
    assert set(usage) == {"user_s", "sys_s", "minflt"} and usage["sys_s"] >= 0
    # the usage is the child's: at least what it had counted itself
    assert own["minflt"] > 0
    assert usage["minflt"] >= own["minflt"]
    assert usage["user_s"] >= own["user_s"]
