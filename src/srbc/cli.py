"""Command-line front end for the simulator and the analytical curves.

Each subcommand builds a SystemConfig from defaults, an optional
key=value config file, and command-line flags (in that precedence),
runs one experiment, prints the resulting points, and optionally writes
them to CSV.  The exit code is 2 when an input is refused, 1 when a
theory/simulation comparison missed its band, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from .harness import (CHANNEL_MODES, SystemConfig, _theory_curve, emit_csv,
                      run_ber_sweep, run_cfo_study, run_compare, run_pmd_sweep,
                      run_retx, run_roc)
# srbcbench/make_reference.py reads the default roc grid as cli._auto_eta_grid
from .harness import _auto_eta_grid  # noqa: F401
from .waveform import SCHEMES, ConfigurationError


def _parse_float_list(text: str):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


# Every SystemConfig field: its flag and the argparse options of that
# flag.  The config-file key parses with the flag's type.
_FIELDS = {
    "scheme": ("--scheme", dict(choices=SCHEMES)),
    "n": ("--n", dict(type=int, help="DFT size")),
    "zeta": ("--zeta", dict(type=int, help="data/null spacing parameter")),
    "gamma_mag": ("--gamma", dict(type=float, help="reflection magnitude")),
    "snr_db": ("--snr", dict(type=_parse_float_list,
                             help="SNR grid in dB, comma separated")),
    "cfo_eps": ("--cfo", dict(type=float,
                              help="carrier offset (subcarrier fraction)")),
    "l_direct": ("--l-direct", dict(type=int, help="direct-link tap count")),
    "l_forward": ("--l-forward", dict(type=int, help="forward-link tap count")),
    "sigma_v": ("--sigma-v", dict(type=float, help="backward-link RMS gain")),
    "pfa_target": ("--pfa-target", dict(type=float, help="false-alarm design point")),
    "trials": ("--trials", dict(type=int, help="per-point trial cap")),
    "seed": ("--seed", dict(type=int, help="master seed")),
    "channel_mode": ("--channel-mode", dict(choices=CHANNEL_MODES)),
    "crc_preset": ("--crc-preset", dict(
        type=lambda s: int(s, 0),
        help="5-bit register preset (0b01001 for the Gen2 variant)")),
    "threads": ("--threads", dict(type=int, help="worker threads")),
}


def load_config_file(path: str) -> dict:
    """Read key=value lines ('#' starts a comment) into config kwargs."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _FIELDS[key][1].get("type", str)(value.strip())
    return out


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file supplying config fields")
    for flag, options in _FIELDS.values():
        parser.add_argument(flag, **options)
    parser.add_argument("--out", metavar="CSV", help="write the curve(s) here")


def build_config(args: argparse.Namespace) -> SystemConfig:
    kwargs = load_config_file(args.config) if args.config else {}
    for key, (flag, _) in _FIELDS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            kwargs[key] = value
    return SystemConfig(**kwargs)


def _print_curve(curve, label: str) -> None:
    print(f"# {label}: scheme={curve.meta['scheme']} N={curve.meta['N']} "
          f"gamma={curve.meta['gamma']} cfo={curve.meta['cfo']}")
    for a, v, c in zip(curve.abscissa, curve.values, curve.confidence_halfwidth):
        print(f"abscissa={a:g} value={v:.6g} ci95={c:.3g}")


def _suffixed(path: str, tag: str) -> str:
    """The path with _tag before the file name's extension, if it has one."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_{tag}{ext}"


def _cfo_curves(cfg: SystemConfig, args):
    eps = np.asarray(_parse_float_list(args.eps_grid))
    # each offset's label and file suffix is its 6-significant-digit form
    tags = [f"{e:g}" for e in eps]
    if len(set(tags)) < len(tags):
        raise ValueError(f"offsets {args.eps_grid} collide at the 6 significant "
                         "digits that name each curve and its file")
    return [(f"tag bit error rate vs SNR at offset {tag}", curve, f"eps{tag}")
            for tag, curve in zip(tags, run_cfo_study(cfg, eps))]


def _analytical_curve(cfg: SystemConfig, args):
    kind, curve = _theory_curve(cfg)
    return [(f"analytical {kind}", curve, None)]


# Every subcommand: its help text, its own flag and that flag's argparse
# options (or None), and for a curve command its run on (config, args),
# which returns its curves as (printed label, curve, CSV file suffix or
# None for the --out file).  compare runs through _cmd_compare.
_COMMANDS = {
    "pmd": ("missed-detection probability sweep (ook)", None,
            lambda cfg, args: [("missed-detection probability vs SNR",
                                run_pmd_sweep(cfg), None)]),
    "roc": ("detection vs false-alarm curve (ook, single SNR)",
            ("--eta-grid", dict(default="auto",
                                help="comma-separated thresholds, or 'auto'")),
            lambda cfg, args: [("detection vs false-alarm probability", run_roc(
                cfg, None if args.eta_grid == "auto"
                else _parse_float_list(args.eta_grid)), None)]),
    "ber": ("bit error rate sweep",
            ("--target", dict(choices=("bd", "primary"), default="bd")),
            lambda cfg, args: [(f"{args.target} bit error rate vs SNR",
                                run_ber_sweep(cfg, args.target), None)]),
    "cfo": ("bit error rate under carrier offsets",
            ("--eps-grid", dict(default="0.0,0.05",
                                help="comma-separated carrier offsets")),
            _cfo_curves),
    "retx": ("frame retransmission probability sweep", None,
             lambda cfg, args: [("frame retransmission probability vs SNR",
                                 run_retx(cfg), None)]),
    "theory": ("analytical curve without simulation", None, _analytical_curve),
    "compare": ("analytical vs iid-mode simulation", None, None),
}


def _cmd_curve(args) -> int:
    for label, curve, suffix in _COMMANDS[args.command][2](build_config(args), args):
        _print_curve(curve, label)
        if args.out:
            emit_csv(curve, args.out if suffix is None
                     else _suffixed(args.out, suffix))
    return 0


def _cmd_compare(args) -> int:
    cfg = build_config(args)
    theory, sim, rows, ok = run_compare(cfg)
    print("# analytical vs iid-mode simulation "
          f"(scheme={cfg.scheme} N={cfg.n} gamma={cfg.gamma_mag!r})")
    for row in rows:
        state = "ok" if row["ok"] else "MISS"
        if not row["checked"]:
            state = "below-floor"
        print(f"abscissa={row['abscissa']:g} theory={row['theory']:.6g} "
              f"sim={row['sim']:.6g} ci95={row['ci95']:.3g} "
              f"tol={row['tol']:.3g} {state}")
    if args.out:
        emit_csv(theory, _suffixed(args.out, "theory"))
        emit_csv(sim, _suffixed(args.out, "sim"))
    if not ok:
        print("comparison failed", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="srbc",
        description="Backscatter-over-OFDM link simulator and analytical toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, extra, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # "-1e-3" and "-5,10" are values: argparse before Python 3.13
        # takes only -<digits> and -<digits>.<digits> for numbers
        p._negative_number_matcher = re.compile(r"-\.?\d")
        _add_common_flags(p)
        if extra:
            p.add_argument(extra[0], **extra[1])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a function replaced since still runs
    command = _cmd_compare if args.command == "compare" else _cmd_curve
    try:
        return command(args)
    except (ConfigurationError, ValueError, OSError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
