"""Run one workload: set-up, timed passes, the correctness gate, metrics.

A pass runs the workload's subcommands once, in process, through
``srbc.cli.main``.  End-to-end metrics come from untraced passes.  With
tracing on, each pass seed runs untraced and then traced; the per-layer
metrics come from the traced passes, and the tracing overhead is the
median difference within those pairs.  Every pass goes through the gate.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import gate
import tracer
import workloads
import srbc.cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_PY = BENCH_DIR / "run.py"
# Set-up samples per run: this process plus SETUP_REPEATS - 1 children.
SETUP_REPEATS = 5
# Points of an roc curve on the auto threshold grid: 0 plus 12 design points.
ROC_POINTS = 13

END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ci95_rel": "ratio"}

SIM_LAYERS = ("harness", "waveform", "channel", "backscatter", "detector")
TRACED_FUNCTIONS = (
    "channel.apply_channel", "channel.add_awgn", "channel.sample_channels",
    "channel.complex_normal", "channel.apply_cfo",
    "waveform.map_symbols", "waveform.ofdm_modulate", "waveform.ofdm_demodulate",
    "backscatter.apply_backscatter",
    "detector.ook_test_statistic", "detector.ook_detect",
    "detector.fsk_metrics", "detector.fsk_detect",
    "crc.crc5_encode_many", "crc.crc5_check_many",
    "analysis.auto_quadrature", "analysis.gil_pelaez_cdf",
    "analysis.pmd_marginal", "analysis.fsk_error_prob",
    "analysis.optimal_threshold", "analysis.pfa_of_threshold",
    "analysis._prod_charfn", "analysis.integrand", "quadrature.integrate_adaptive",
)
COUNTED_CALLS = ("analysis.auto_quadrature", "analysis.pfa_of_threshold",
                 "quadrature.integrate_adaptive")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    **{f"{name}.self_s": "s" for name in TRACED_FUNCTIONS},
    **{f"{layer}.us_per_symbol": "us" for layer in SIM_LAYERS},
    "crc.us_per_frame": "us",
    **{f"{name}.calls": "count" for name in COUNTED_CALLS},
    "quadrature.integrand_evals": "count",
    "harness.symbols": "count",
    "crc.frames": "count",
    "analysis.theory_points": "count",
    "harness.batches_computed": "count",
    "harness.batches_kept": "count",
    "harness.batch_useful_ratio": "ratio",
    "backscatter.useful_ratio": "ratio",
    "harness.pool_wait_s": "s",
    "wall_s": "s",
    "symbols_per_s": "1/s",
    "theory_points_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.worker_self_s": "s",
    "trace.spans": "count",
}
# Counts and ratios of counts: exact for a seed, so taken from the first pass.
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "ratio")}


@dataclass
class Outcome:
    command: workloads.Command
    rc: int
    stdout: str
    stderr: str


@dataclass
class Check:
    """Gate tally over curve points, plus what the metrics need."""

    attempted: int = 0
    failed: int = 0
    theory_points: int = 0
    ci95_rel: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_commands(commands, seed: int, out_dir: Path):
    """Run the subcommands in order; return (wall s, CPU s, outcomes).

    CPU seconds are those of the whole process, every thread included.
    """
    outcomes = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = srbc.cli.main(command.argv(seed, str(out_dir)))
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails the command's points, not the run
                traceback.print_exc()
                rc = -1
        outcomes.append(Outcome(command, rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, time.process_time() - cpu_start, outcomes


def check_outcomes(outcomes, out_dir: Path, reference: dict | None) -> Check:
    """Gate every curve point the outcomes wrote, then delete the CSVs.

    Without a reference (the tiny test scale), simulated points need only
    be finite probabilities.
    """
    check = Check()
    for o in outcomes:
        cmd = o.command
        for stem in cmd.stems():
            path = out_dir / f"{stem}.csv"
            expected = ROC_POINTS if cmd.sub == "roc" else len(cmd.snr)
            curve = None
            if o.rc == 0:
                try:
                    curve = gate.read_curve(path)
                except (OSError, ValueError, KeyError) as exc:
                    check.problems.append(f"{stem}: unreadable output: {exc}")
            else:
                check.problems.append(f"{stem}: exit code {o.rc}: {o.stderr.strip()[-500:]}")
            path.unlink(missing_ok=True)
            if curve is None:
                check.attempted += expected
                check.failed += expected
                continue
            if cmd.sub == "theory" or stem.endswith("_theory"):
                oks = gate.check_theory(curve, cmd.scheme, cmd.n,
                                        cmd.pfa_target or gate.PFA_TARGET)
                check.theory_points += int(np.isfinite(curve["value"]).sum())
            else:
                values, cis = curve["value"], curve["ci95"]
                check.ci95_rel += [c / v for v, c in zip(values, cis) if v > 0]
                if cmd.sub == "compare":
                    oks = gate.compare_rows_ok(o.stdout)
                    if len(oks) != len(values):
                        oks = [False] * max(len(oks), len(values), 1)
                elif reference is None:
                    oks = [bool(np.isfinite(v) and 0 <= v <= 1) for v in values]
                elif stem not in reference:
                    oks = [False] * len(values)
                else:
                    oks = gate.check_against_reference(curve, reference[stem], cmd.sub)
            bad = oks.count(False)
            if bad:
                check.problems.append(f"{stem}: {bad} of {len(oks)} points failed the gate")
            check.attempted += len(oks)
            check.failed += bad
    return check


@contextlib.contextmanager
def work_dir(tag: str):
    """A scratch directory for CSV outputs inside the checkout, removed after."""
    path = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            path.parent.rmdir()


def warm_up(commands, seed: int, out_dir: Path) -> Check:
    """First call of every subcommand, at a small cap; counted as set-up."""
    _, _, outcomes = run_commands([c.warmup() for c in commands], seed, out_dir)
    check = Check()
    for o in outcomes:
        for stem in o.command.stems():
            (out_dir / f"{stem}.csv").unlink(missing_ok=True)
        check.attempted += 1
        if o.rc != 0:
            check.failed += 1
            check.problems.append(f"warm-up {o.command.key}: exit code {o.rc}")
    return check


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up CPU seconds of a fresh interpreter running run.py --setup-only."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def layer_metrics(prof: tracer.Profile, wall: float) -> dict:
    """Per-layer numbers of one traced pass."""
    self_s, calls, work = prof.self_s, prof.calls, prof.work
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    symbols = work.get("detector.ook_test_statistic", 0) + work.get("detector.fsk_metrics", 0)
    frames = work.get("crc.crc5_check_many", 0)
    reflected = work.get("backscatter.apply_backscatter", 0)
    computed = calls.get("harness._batch_rng", 0)
    kept = work.get("harness._accumulate", 0)
    m = {f"{layer}.self_s": layer_self[layer] for layer in tracer.LAYERS}
    m.update({f"{name}.self_s": self_s.get(name, 0.0) for name in TRACED_FUNCTIONS})
    m.update({f"{layer}.us_per_symbol": 1e6 * layer_self[layer] / symbols if symbols else 0.0
              for layer in SIM_LAYERS})
    m["crc.us_per_frame"] = 1e6 * layer_self["crc"] / frames if frames else 0.0
    m.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED_CALLS})
    m["quadrature.integrand_evals"] = work.get("quadrature.integrate_adaptive", 0)
    m["harness.symbols"] = symbols
    m["crc.frames"] = frames
    m["harness.batches_computed"] = computed
    m["harness.batches_kept"] = kept
    m["harness.batch_useful_ratio"] = kept / computed if computed else 0.0
    m["backscatter.useful_ratio"] = (work.get("harness._tdl_grid", 0) / reflected
                                     if reflected else 0.0)
    m["harness.pool_wait_s"] = sum(prof.wait_s.values())
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - prof.main_root_s
    m["trace.worker_self_s"] = prof.worker_self_s
    m["trace.spans"] = prof.spans
    return m


def environment() -> dict:
    """What a result depends on besides the workload and seed."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srbc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def pass_commands(workload: str, seed: int, k: int, scale: str):
    """(srbc seed, commands) of pass k of a run with the given seed."""
    pass_seed = workloads.pass_seed(seed, k)
    commands = workloads.commands(workload, pass_seed)
    if scale == "tiny":
        commands = [c.tiny() for c in commands]
    return pass_seed, commands


def set_up(workload: str, seed: int, scale: str, out_dir: Path) -> Check:
    """Warm up with the commands of the run's first pass."""
    pass_seed, commands = pass_commands(workload, seed, 0, scale)
    return warm_up(commands, pass_seed, out_dir)


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        scale: str = "full", setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; return the result object run.py prints.

    Set-up and passes are timed in CPU seconds of this process, which
    leave out time the hypervisor gives to other guests; wall seconds
    are reported with the per-layer metrics.  The first set-up sample
    is the CPU time of this process so far, interpreter start-up and
    imports included.  Pass k
    runs with its own srbc seed drawn from (seed, k), so the median pass
    averages over seed-dependent work (stop points, the theory grid).
    With tracing, each seed runs an untraced then a traced pass; counts
    come from the first pair, so they repeat exactly for a seed.  The
    tiny scale shrinks every subcommand for the benchmark's own tests.
    Passes stop before the next one would run past ``seconds``.
    """
    reference = None if scale == "tiny" else gate.load_reference()
    with work_dir(workload) as out_dir:
        total = set_up(workload, seed, scale, out_dir)
        setup = [time.process_time()]
        if not trace:  # set-up time is an end-to-end metric only
            setup += [child_setup_seconds(workload, seed)
                      for _ in range(setup_repeats - 1)]

        tr = tracer.Tracer()
        main_thread = threading.get_ident()
        plain, cpu, traced, ci95_rel = [], [], [], []
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            k, use_trace = (i // 2, i % 2 == 1) if trace else (i, False)
            pass_seed, commands = pass_commands(workload, seed, k, scale)
            if use_trace:
                tr.install()
            try:
                wall, cpu_s, outcomes = run_commands(commands, pass_seed, out_dir)
            finally:
                tr.uninstall()
            check = check_outcomes(outcomes, out_dir, reference)
            total.add(check)
            if use_trace:
                m = layer_metrics(tracer.profile(tr.take(), main_thread), wall)
                m["wall_s"] = plain[-1]
                m["trace.overhead_s"] = wall - plain[-1]
                m["symbols_per_s"] = m["harness.symbols"] / plain[-1]
                m["theory_points_per_s"] = check.theory_points / plain[-1]
                m["analysis.theory_points"] = check.theory_points
                traced.append(m)
            else:
                plain.append(wall)
                cpu.append(cpu_s)
                if check.ci95_rel:
                    ci95_rel.append(statistics.median(check.ci95_rel))
            if trace and not use_trace:
                continue
            # Start no pass (or pair) that would end past the deadline.
            last = wall + plain[-1] if use_trace else wall
            if time.perf_counter() + last >= deadline:
                break

    for problem in dict.fromkeys(total.problems):
        print(f"gate: {problem}", file=sys.stderr)
    if trace:
        metrics = {name: (traced[0][name] if name in EXACT
                          else statistics.median(m[name] for m in traced))
                   for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "cpu_s": statistics.median(cpu),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ci95_rel": statistics.median(ci95_rel) if ci95_rel else 0.0,
        }
        units = END_TO_END
    return {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
        "passes": {"untraced": len(plain), "traced": len(traced)},
    }
