"""Paired benchmark runs of this checkout against an earlier revision.

    python3 tools/bench_pairs.py --against REV --pairs K --seconds S \\
        --seed0 N --out BENCH_<n>.json

Run from anywhere inside the repository.  Both sides run from copies
side by side in one temporary directory, so no worktree is left behind
and neither side runs from the checkout itself: REV is extracted with
``git archive REV | tar -x``, and the change is a snapshot of the
working tree, every tracked file as it is on disk plus every untracked
file that git does not ignore.  Pair i runs each tree's own, unchanged
``srbcbench/run.py`` on every workload of ``BENCHMARK.json`` with seed
N + i and S seconds, the parent first on even pairs and the change
first on odd ones.  Each tree's Tier-1 suite is also timed once.  The
JSON written holds, per workload and end-to-end metric, both sides'
values per pair, their medians and quartiles and the change's wins, and
beside them the seeds, the gate's attempted and failed counts with the
``gate:`` lines each run printed (each names a curve that missed and
how many of its points did), each run's user and system seconds and
minor page faults (a diagnostic that no gate reads), the environment
line each side printed and the Tier-1 wall times.  The change's
environment line names the checkout's HEAD even when the files differ
from it, so the report also records that HEAD and a ``dirty`` flag
from ``git status``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, metrics: dict) -> dict:
    """Per-metric comparison of paired runs; a pure function.

    ``pairs`` holds one {"parent": values, "change": values} entry per
    pair, each side's values a {metric: number} mapping; ``metrics``
    maps each metric to "lower" or "higher", the better direction.
    A pair is a win when the change is strictly better, a loss when
    strictly worse.  ``gain_shown`` applies the claim rule: wins in at
    least nine tenths of the pairs, and medians that differ in the
    better direction by more than the parent's interquartile range.
    """
    out = {}
    for name, better in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        side = {s: [float(p[s][name]) for p in pairs] for s in SIDES}
        gaps = [sign * (p - c) for p, c in zip(side["parent"], side["change"])]
        median = {s: statistics.median(v) for s, v in side.items()}
        quart = {s: _quartiles(v) for s, v in side.items()}
        wins = sum(g > 0 for g in gaps)
        spread = quart["parent"][1] - quart["parent"][0]
        out[name] = {
            "better": better,
            "parent": side["parent"],
            "change": side["change"],
            "median": median,
            "quartiles": quart,
            "wins": wins,
            "losses": sum(g < 0 for g in gaps),
            "pairs": len(pairs),
            "gain_shown": (wins >= 0.9 * len(pairs)
                           and sign * (median["parent"] - median["change"]) > spread),
        }
    return out


def _extract(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full hash."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], capture_output=True, text=True,
                         check=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return sha


def _snapshot(root: Path, dest: Path) -> None:
    """Copy the working tree at ``root`` under ``dest``.

    It holds every tracked file as it is on disk and every untracked
    file that git does not ignore.
    """
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "-co",
                             "--exclude-standard"], capture_output=True, check=True,
                            text=True).stdout.split("\0")
    for rel in filter(None, listed):
        src = root / rel
        if src.is_file():  # a tracked file deleted on disk is left out
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def _tree_state(root: Path) -> dict:
    """HEAD of the checkout at ``root`` and whether its files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``srbcbench/run.py`` run in ``tree``: its result, environment and usage."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "srbcbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=seconds + 600)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "gate_lines": [line for line in proc.stderr.splitlines()
                           if line.startswith("gate: ")],
            "env": json.loads(lines[-2][2:])["env"],
            "rusage": {"user_s": after.ru_utime - before.ru_utime,
                       "sys_s": after.ru_stime - before.ru_stime,
                       "minflt": after.ru_minflt - before.ru_minflt}}


def _tier1(tree: Path) -> dict:
    """Wall seconds and summary line of the tree's Tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=3600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else "",
            "exit_code": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="parent revision")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = [args.seed0 + i for i in range(args.pairs)]
    change_tree = _tree_state(ROOT)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for tree in trees.values():
            tree.mkdir()
        parent_sha = _extract(args.against, trees["parent"])
        _snapshot(ROOT, trees["change"])
        runs = {w: [] for w in workloads}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                pair = {s: _bench(trees[s], w, seed, args.seconds) for s in order}
                runs[w].append(pair)
                print(f"pair {i} seed {seed} {w}: " + ", ".join(
                    f"{s} cpu_s {pair[s]['metrics'].get('cpu_s')}" for s in SIDES),
                    flush=True)
        tier1 = {s: _tier1(trees[s]) for s in SIDES}

    report = {
        "against": parent_sha,
        "change_tree": change_tree,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "first": [(SIDES if i % 2 == 0 else SIDES[::-1])[0] for i in range(args.pairs)],
        "env": {s: runs[workloads[0]][0][s]["env"] for s in SIDES},
        "tier1": tier1,
        "workloads": {
            w: {"metrics": summarize([{s: p[s]["metrics"] for s in SIDES}
                                      for p in pairs], metrics),
                "gate": {s: [{k: p[s][k] for k in ("attempted", "failed",
                                                   "gate_lines")}
                             for p in pairs] for s in SIDES},
                "rusage": {s: [p[s]["rusage"] for p in pairs] for s in SIDES}}
            for w, pairs in runs.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
