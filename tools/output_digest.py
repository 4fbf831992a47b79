"""Check that this checkout writes byte for byte what an earlier revision writes.

    python3 tools/output_digest.py --against REV [--band] [--theory-rtol R]

Run from anywhere inside the repository.  REV is extracted with
``bench_pairs._extract`` into a temporary directory.  For each tree, REV
and this checkout, a child process imports that tree's ``src/srbc`` and
writes into a directory of its own:

- for every command of both workloads of ``srbcbench/workloads.py``, at
  pass 0 of the benchmark seeds 11, 12 and 13, every CSV it writes and
  a text file with its exit code, stdout and stderr;
- for each of ``EXTRA_COMMANDS``, at seed ``EXTRA_SEED``, the same CSVs
  and text file under ``extra``: the link paths the workloads never run
  (primary detection at three offsets and once at fsk2, n 512 and gamma
  1 under a 0.05 offset, where the tag leaks hardest onto the data
  bins, fsk1 ``ber`` with and without an offset, fsk1 ``retx`` under
  the CRC, ook ``pmd`` and ``retx`` at an offset, a non-default zeta
  for ook and fsk2, iid ``ber`` and ``roc``, a ``ber`` and a ``retx``
  curve on 3 and 2 threads over more than 2 batches, ``roc`` on a given
  threshold list, a ``cfo`` grid that mixes a zero offset with one whose
  points stop on the first batch and one that runs to the cap, on 3
  threads, a ``cfo`` grid at n 512, a tag ``ber`` curve at an offset on
  2 threads over several waves, an fsk2 ``retx`` curve at an offset,
  and a ``cfo`` grid whose negative zero runs the zero-offset sweep and
  writes ``cfo`` -0.0), each at a small trial cap, and
  four ``cfo`` offset grids that are refused (empty, colliding tags, a
  NaN, ook), whose exit code and stderr land in their text files;
- ``theory.txt``: 1 224 theory values as ``float.hex``, through
  ``harness._theory_curve``, for ook, fsk1 and fsk2 × n 64, 128, 256
  and 512 × gamma 0.25, 0.5 and 1 × (sigma_v, pfa_target) (1, 1e-3)
  and (0.5, 1e-2) × 17 SNRs on linspace(-10, 40) dB.

The commands come from this checkout's ``srbcbench/workloads.py``, which
is only read.  The two directories are compared file by file: the tool
exits 0 when they match and 1, listing the files that differ, when not.

With ``--band``, a change of random streams can pass: a simulated CSV
(one whose trials column is not 0) that differs passes when it has REV's
abscissas and metadata and every value lies within max(0.1*ref,
3*hypot(ci, ci_ref)) of REV's value ref, the benchmark gate's band.  A
roc curve's abscissa is a simulated false-alarm rate, so, as in the
gate, it is held to the same band instead, its interval taken from the
trials column.  A command's text file passes when its exit code and
stderr are REV's, as its stdout prints the points the CSVs hold.
Theory outputs must still match byte for byte.  Each differing file is listed with its worst gap
as a share of its band, and the tool exits 1 when any file fails.

With ``--theory-rtol R`` (default 0, byte for byte), a change of theory
arithmetic can pass: a theory file, ``theory.txt`` or a CSV whose trials
column is 0, that differs passes when it has REV's points and metadata
and every value lies within R of REV's value relative to it.  Each such
file is listed with its worst relative gap, and the worst over all of
them is printed last.  Every other file must still match byte for byte,
or pass ``--band`` when that is given too.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12, 13)
THEORY_SCHEMES = ("ook", "fsk1", "fsk2")
THEORY_SIZES = (64, 128, 256, 512)
THEORY_GAMMAS = (0.25, 0.5, 1.0)
THEORY_LINKS = ((1.0, 1e-3), (0.5, 1e-2))  # (sigma_v, pfa_target)
THEORY_POINTS = 17
EXTRA_SEED = 2027
# (file key, srbc arguments) of every command run besides the workloads'
EXTRA_COMMANDS = (
    ("primary_fsk2_eps0", ["ber", "--scheme", "fsk2", "--target", "primary",
                           "--snr", "0,10", "--trials", "256"]),
    ("primary_fsk2_eps0.05", ["ber", "--scheme", "fsk2", "--target", "primary",
                              "--cfo", "0.05", "--snr", "0,10", "--trials", "256"]),
    ("primary_ook_eps0.1", ["ber", "--scheme", "ook", "--target", "primary",
                            "--cfo", "0.1", "--snr", "0,10", "--trials", "256"]),
    ("primary_fsk2_n512_gamma1_eps0.05",
     ["ber", "--scheme", "fsk2", "--n", "512", "--target", "primary", "--gamma", "1",
      "--cfo", "0.05", "--snr", "10,30", "--trials", "256"]),
    ("ber_fsk1", ["ber", "--scheme", "fsk1", "--snr", "0,20", "--trials", "2048"]),
    ("cfo_fsk1", ["cfo", "--scheme", "fsk1", "--eps-grid", "0.05",
                  "--snr", "0,20", "--trials", "2048"]),
    ("pmd_ook_eps0.05", ["pmd", "--cfo", "0.05", "--pfa-target", "0.05",
                         "--snr", "0,10", "--trials", "2048"]),
    ("retx_ook_eps0.05", ["retx", "--scheme", "ook", "--cfo", "0.05",
                          "--snr", "10,20", "--trials", "512"]),
    ("retx_fsk1", ["retx", "--scheme", "fsk1", "--snr", "10,20", "--trials", "512"]),
    ("pmd_ook_zeta2", ["pmd", "--zeta", "2", "--pfa-target", "0.05",
                       "--snr", "0,10", "--trials", "2048"]),
    ("ber_fsk2_zeta3", ["ber", "--scheme", "fsk2", "--zeta", "3",
                        "--snr", "0,20", "--trials", "2048"]),
    ("ber_fsk2_iid", ["ber", "--scheme", "fsk2", "--channel-mode", "iid",
                      "--snr", "0,20", "--trials", "2048"]),
    ("roc_ook_iid", ["roc", "--channel-mode", "iid", "--snr", "5",
                     "--trials", "2048"]),
    ("ber_fsk2_threads3", ["ber", "--scheme", "fsk2", "--snr", "0,10,20,30",
                           "--trials", "40000", "--threads", "3"]),
    ("retx_ook_threads2", ["retx", "--scheme", "ook", "--snr", "10,20,30",
                           "--trials", "6000", "--threads", "2"]),
    ("roc_ook_eta_list", ["roc", "--snr", "5", "--eta-grid", "0,8,10,12,16",
                          "--trials", "2048"]),
    ("cfo_empty_grid", ["cfo", "--eps-grid", ","]),
    ("cfo_colliding_tags", ["cfo", "--scheme", "fsk2",
                            "--eps-grid", "0.05,0.0500000001"]),
    ("cfo_nan", ["cfo", "--eps-grid", "0.05,nan"]),
    ("cfo_fsk2_mixed_threads3", ["cfo", "--scheme", "fsk2", "--n", "64",
                                 "--eps-grid", "0,0.3,0.02", "--snr", "0,30",
                                 "--trials", "8192", "--threads", "3"]),
    ("cfo_fsk2_n512", ["cfo", "--scheme", "fsk2", "--n", "512", "--eps-grid",
                       "0.01,0.05", "--snr", "10,30", "--trials", "2048"]),
    ("cfo_ook_refused", ["cfo", "--scheme", "ook", "--eps-grid", "0,0.05"]),
    ("ber_fsk2_eps0.05_threads2", ["ber", "--scheme", "fsk2", "--cfo", "0.05",
                                   "--snr", "0,10,20,30", "--trials", "20000",
                                   "--threads", "2"]),
    ("retx_fsk2_eps0.1", ["retx", "--scheme", "fsk2", "--cfo", "0.1",
                          "--snr", "10,20", "--trials", "1024"]),
    ("cfo_fsk2_negzero", ["cfo", "--scheme", "fsk2", "--eps-grid", "-0,0.05",
                          "--snr", "0,20", "--trials", "4096"]),
)


def differing(a: Path, b: Path) -> list:
    """Relative paths of the files that exist under only one root or differ."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
    in_a, in_b = files(a), files(b)
    changed = {p for p in in_a & in_b if (a / p).read_bytes() != (b / p).read_bytes()}
    return sorted(str(p) for p in (in_a ^ in_b) | changed)


def _read_rows(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _wald(p: float, trials: int) -> float:
    """The 95% halfwidth of a rate p from ``trials`` trials, as the gate takes it."""
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / max(trials, 1))


def band_check(ref: Path, new: Path) -> tuple:
    """Whether a differing file passes the band check, and a one-line account."""
    if ref.suffix == ".txt" and ref.read_text().startswith("exit "):
        def outcome(path):
            text = path.read_text()
            return text.split("\n", 1)[0], text.partition("--- stderr\n")[2]
        same = outcome(ref) == outcome(new)
        return same, "same exit code and stderr" if same else "exit code or stderr differ"
    if ref.suffix != ".csv":
        return False, "not a command's output"
    old, now = _read_rows(ref), _read_rows(new)
    if old[0] != now[0] or len(old) != len(now):
        return False, "header or point count differ"
    trials = old[0].index("trials")
    if old[1][trials] == "0":
        return False, "theory curve"
    # a roc curve's abscissa is a simulated false-alarm rate
    roc = ref.name.startswith("roc_")
    worst = 0.0
    for k, (a, b) in enumerate(zip(old[1:], now[1:])):
        if (a[0] != b[0] and not roc) or a[3:] != b[3:]:
            return False, f"point {k}: abscissa or metadata differ"
        pairs = [(*map(float, a[1:3]), *map(float, b[1:3]))]
        if roc:
            cap = int(a[trials])
            pairs.append((float(a[0]), _wald(float(a[0]), cap),
                          float(b[0]), _wald(float(b[0]), cap)))
        for v_ref, ci_ref, v, ci in pairs:
            band = max(0.1 * v_ref, 3.0 * math.hypot(ci, ci_ref))
            gap = abs(v - v_ref)
            share = gap / band if band > 0 else (0.0 if gap == 0 else math.inf)
            if share > 1.0:
                return False, (f"point {k}: {v!r} against {v_ref!r}, "
                               f"outside the band {band:.3g}")
            worst = max(worst, share)
    first = "the same" if old[1] == now[1] else "moved"
    return True, (f"{len(old) - 1} points, worst gap {worst:.2f} of the band, "
                  f"first point {first}")


def _theory_values(path: Path):
    """(points and metadata, values) of a theory file; None for any other file."""
    if path.name == "theory.txt":
        rows = [line.rsplit(" ", 1) for line in path.read_text().splitlines()]
        return [r[0] for r in rows], [float.fromhex(r[1]) for r in rows]
    if path.suffix != ".csv":
        return None
    rows = _read_rows(path)
    trials = rows[0].index("trials") if "trials" in rows[0] else None
    if trials is None or len(rows) < 2 or rows[1][trials] != "0":
        return None
    return [rows[0]] + [r[:1] + r[2:] for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def theory_check(ref: Path, new: Path, rtol: float) -> tuple:
    """Whether a differing theory file is within rtol of ref, a one-line account
    and the worst relative gap."""
    (keys, old), now = _theory_values(ref), _theory_values(new)
    if now is None or now[0] != keys:
        return False, "points or metadata differ", math.inf
    worst = max((abs(v - r) / abs(r) if r else (0.0 if v == r else math.inf)
                 for r, v in zip(old, now[1])), default=0.0)
    return worst <= rtol, f"{len(old)} values, worst gap {worst:.3g} relative", worst


def write_outputs(out: Path) -> None:
    """Write every output the digest compares under ``out``, from the srbc on sys.path."""
    import srbc.cli
    from srbc.harness import SystemConfig, _theory_curve

    sys.path.insert(0, str(ROOT / "srbcbench"))
    import workloads

    def run(argv, run_dir, key):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = srbc.cli.main(argv)
        (run_dir / f"{key}.txt").write_text(
            f"exit {code}\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")

    for seed in SEEDS:
        pass_seed = workloads.pass_seed(seed, 0)
        for name in workloads.WORKLOADS:
            run_dir = out / f"seed{seed}" / name
            run_dir.mkdir(parents=True)
            for cmd in workloads.commands(name, pass_seed):
                run(cmd.argv(pass_seed, str(run_dir)), run_dir, cmd.key)
    run_dir = out / "extra"
    run_dir.mkdir()
    for key, argv in EXTRA_COMMANDS:
        run(argv + ["--seed", str(EXTRA_SEED), "--out", str(run_dir / f"{key}.csv")],
            run_dir, key)
    snr = tuple(np.linspace(-10.0, 40.0, THEORY_POINTS))
    lines = []
    for scheme, n, gamma, (sigma_v, pfa) in itertools.product(
            THEORY_SCHEMES, THEORY_SIZES, THEORY_GAMMAS, THEORY_LINKS):
        cfg = SystemConfig(scheme=scheme, n=n, gamma_mag=gamma, sigma_v=sigma_v,
                           pfa_target=pfa, snr_db=snr)
        values = _theory_curve(cfg)[1].values
        lines += [f"{scheme} {n} {gamma!r} {sigma_v!r} {pfa!r} {float(s)!r} "
                  f"{float(v).hex()}" for s, v in zip(snr, values)]
    (out / "theory.txt").write_text("\n".join(lines) + "\n")


def _write_in(tree: Path, out: Path) -> None:
    """Run ``write_outputs`` in a child that imports srbc from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--write", str(out)],
                   env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="revision to compare with")
    parser.add_argument("--band", action="store_true",
                        help="pass a differing simulated CSV whose points lie "
                             "within the gate's band of REV's")
    parser.add_argument("--theory-rtol", type=float, default=0.0, metavar="R",
                        help="pass a differing theory file whose values lie "
                             "within R relative of REV's (default 0: byte for byte)")
    parser.add_argument("--write", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        write_outputs(Path(args.write))
        return 0
    if not args.against:
        parser.error("--against is required")

    from bench_pairs import _extract

    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        parent, outputs = Path(tmp) / "tree", Path(tmp) / "out"
        parent.mkdir()
        sha = _extract(args.against, parent)
        for side, tree in (("parent", parent), ("change", ROOT)):
            _write_in(tree, outputs / side)
        diff = differing(outputs / "parent", outputs / "change")
        count = sum(1 for p in (outputs / "change").rglob("*") if p.is_file())
        if not diff:
            print(f"all {count} files match {sha[:12]}")
            return 0
        print(f"{len(diff)} of {count} files differ from {sha[:12]}:")
        if not args.band and not args.theory_rtol:
            print("\n".join(diff))
            return 1
        failed, worst = 0, None
        for rel in diff:
            ref, new = outputs / "parent" / rel, outputs / "change" / rel
            if not (ref.is_file() and new.is_file()):
                ok, account = False, "on one side only"
            elif args.theory_rtol and _theory_values(ref) is not None:
                ok, account, gap = theory_check(ref, new, args.theory_rtol)
                worst = gap if worst is None else max(worst, gap)
            elif args.band:
                ok, account = band_check(ref, new)
            else:
                ok, account = False, "differs"
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {rel}: {account}")
    if worst is not None:
        print(f"worst theory gap {worst:.3g} relative, against {args.theory_rtol:g}")
    print(f"{failed} differing files fail the check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
