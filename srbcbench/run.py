"""Benchmark entry point for srbc.

    python3 srbcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports srbc from ``src/``, sets up
the workload, runs timed passes for about S seconds, checks every curve
the passes write and prints one JSON object as its last line of output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.  Exits 2
without a result when ``src/srbc`` is missing.
"""
import os

# Pin BLAS threads before numpy loads: the quadrature runs a
# matrix-vector product, and pass timings must not depend on how many
# cores a threaded BLAS grabs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm up, then print the set-up seconds")
    args = parser.parse_args(argv)

    if not (SRC / "srbc" / "__init__.py").is_file():
        print(f"error: no srbc package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import bench
    import workloads

    seed = args.seed % 2 ** 31
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        with bench.work_dir("setup") as out_dir:
            check = bench.set_up(args.workload, seed, "full", out_dir)
        if check.failed:
            print("\n".join(check.problems), file=sys.stderr)
            return 1
        print(repr(time.process_time()))
        return 0

    result = bench.run(args.workload, seed, args.seconds, bool(args.trace))
    passes = result.pop("passes")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "passes": passes, "env": bench.environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
