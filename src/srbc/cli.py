"""Command-line front end for the simulator and the analytical curves.

Each subcommand builds a SystemConfig from defaults, an optional
key=value config file, and command-line flags (in that precedence),
runs one experiment, prints the resulting points, and optionally writes
them to CSV.  The exit code is nonzero when any requested point failed
numerically or a theory/simulation comparison missed its band.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis
from .harness import (CHANNEL_MODES, SystemConfig, _theory_curve, emit_csv,
                      run_ber_sweep, run_cfo_study, run_compare, run_pmd_sweep,
                      run_retx, run_roc)
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
    stem, dot, ext = path.rpartition(".")
    if dot:
        return f"{stem}_{tag}.{ext}"
    return f"{path}_{tag}"


def _auto_eta_grid(cfg: SystemConfig) -> np.ndarray:
    """Thresholds hitting a spread of design false-alarm points, plus 0."""
    plan = cfg.plan()
    w_bin = analysis.noise_bin_variance(cfg.snr_db[0])
    pfas = np.geomspace(5e-3, 0.9, 12)
    etas = [w_bin * analysis.optimal_threshold(float(p), len(plan.kb0)) for p in pfas]
    return np.array([0.0] + etas)


def _eta_grid(cfg: SystemConfig, text: str) -> np.ndarray:
    if text == "auto":
        return _auto_eta_grid(cfg)
    return np.asarray(_parse_float_list(text))


# Curve commands: the run and the printed label, formatted with the args.
_CURVES = {
    "pmd": (lambda cfg, args: run_pmd_sweep(cfg),
            "missed-detection probability vs SNR"),
    "roc": (lambda cfg, args: run_roc(cfg, _eta_grid(cfg, args.eta_grid)),
            "detection vs false-alarm probability"),
    "ber": (lambda cfg, args: run_ber_sweep(cfg, args.target),
            "{target} bit error rate vs SNR"),
    "retx": (lambda cfg, args: run_retx(cfg),
             "frame retransmission probability vs SNR"),
}


def _cmd_curve(args) -> int:
    run, label = _CURVES[args.command]
    curve = run(build_config(args), args)
    _print_curve(curve, label.format_map(vars(args)))
    if args.out:
        emit_csv(curve, args.out)
    return 0


def _cmd_cfo(args) -> int:
    cfg = build_config(args)
    eps = np.asarray(_parse_float_list(args.eps_grid))
    curves = run_cfo_study(cfg, eps)
    for e, curve in zip(eps, curves):
        _print_curve(curve, f"tag bit error rate vs SNR at offset {e:g}")
        if args.out:
            emit_csv(curve, _suffixed(args.out, f"eps{e:g}"))
    return 0


def _cmd_theory(args) -> int:
    kind, curve = _theory_curve(build_config(args), args.kind)
    _print_curve(curve, f"analytical {kind}")
    if args.out:
        emit_csv(curve, args.out)
    failed = ",".join(str(i) for i in np.flatnonzero(np.isnan(curve.values)))
    if failed:
        print(f"numerical failure at point indices {failed}", file=sys.stderr)
        return 1
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="srbc",
        description="Backscatter-over-OFDM link simulator and analytical toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = (
        ("pmd", _cmd_curve, "missed-detection probability sweep (ook)"),
        ("roc", _cmd_curve, "detection vs false-alarm curve (ook, single SNR)",
         "--eta-grid", dict(default="auto",
                            help="comma-separated thresholds, or 'auto'")),
        ("ber", _cmd_curve, "bit error rate sweep",
         "--target", dict(choices=("bd", "primary"), default="bd")),
        ("cfo", _cmd_cfo, "bit error rate under carrier offsets",
         "--eps-grid", dict(default="0.0,0.05",
                            help="comma-separated carrier offsets")),
        ("retx", _cmd_curve, "frame retransmission probability sweep"),
        ("theory", _cmd_theory, "analytical curve without simulation",
         "--kind", dict(choices=("auto", "OOK_PMD", "FSK_BER"), default="auto")),
        ("compare", _cmd_compare, "analytical vs iid-mode simulation"),
    )
    for name, func, help_text, *extra in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        p.set_defaults(func=func)
        if extra:
            p.add_argument(extra[0], **extra[1])

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValueError, OSError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
