"""Regenerate reference.json, the gate's high-trial simulated curves.

    python3 srbcbench/make_reference.py

Run from the repository root.  Every simulated curve of every workload
is recomputed in its own configuration, at REFERENCE_SEED (which no
workload uses) and a cap REFERENCE_SCALE times the workload's (at most
MAX_TRIALS), with the adaptive stop rule off, so every point runs to
the cap.  ``compare``
curves need no reference: the subcommand checks itself against theory.
Takes a few minutes on two cores.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from srbc import cli  # noqa: E402
from srbc.harness import (SystemConfig, run_ber_sweep, run_cfo_study,  # noqa: E402
                          run_pmd_sweep, run_retx, run_roc)

REFERENCE_SEED = 2_000_000_011
REFERENCE_SCALE = 16
MAX_TRIALS = 131_072
THREADS = 2


def reference_curves(cmd: workloads.Command) -> dict:
    cfg = SystemConfig(scheme=cmd.scheme, n=cmd.n, snr_db=cmd.snr,
                       trials=min(cmd.trials * REFERENCE_SCALE, MAX_TRIALS), seed=REFERENCE_SEED,
                       threads=THREADS)
    if cmd.sub == "ber":
        curves = [run_ber_sweep(cfg, "bd", target_events=None)]
    elif cmd.sub == "pmd":
        curves = [run_pmd_sweep(cfg, target_events=None)]
    elif cmd.sub == "roc":
        curves = [run_roc(cfg, cli._auto_eta_grid(cfg))]
    elif cmd.sub == "retx":
        curves = [run_retx(cfg, target_events=None)]
    elif cmd.sub == "cfo":
        curves = run_cfo_study(cfg, np.asarray(cmd.eps_grid), target_events=None)
    else:
        raise ValueError(f"no reference for {cmd.sub}")
    return {stem: {"abscissa": c.abscissa.tolist(), "value": c.values.tolist(),
                   "ci95": c.confidence_halfwidth.tolist(), "trials": cfg.trials}
            for stem, c in zip(cmd.stems(), curves)}


def main() -> int:
    curves = {}
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, seed=0):
            if cmd.sub in ("theory", "compare"):
                continue
            start = time.perf_counter()
            curves.update(reference_curves(cmd))
            print(f"{workload}/{cmd.key}: {time.perf_counter() - start:.1f} s", flush=True)
    with open(gate.REFERENCE, "w") as f:
        json.dump({"seed": REFERENCE_SEED, "scale": REFERENCE_SCALE,
                   "curves": curves}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
