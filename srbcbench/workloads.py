"""The benchmark's workloads: fixed lists of ``srbc`` subcommands.

Every workload runs through ``srbc.cli.main``, the path users run, with
the workload seed passed as ``--seed``.  The trial caps below set the
run length; WORKLOADS.md records why each workload exists and which
layers it is meant to exercise.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
# Largest SNR shift of the theory workload's seed-jittered grid, in dB.
THEORY_JITTER_DB = 1.0


@dataclass(frozen=True)
class Command:
    """One ``srbc`` subcommand invocation and the curves it writes.

    ``key`` names the output file and the stored reference curve.
    ``trials`` of None leaves the subcommand's own default cap.
    """

    key: str
    sub: str
    scheme: str
    n: int
    snr: tuple = SNR_GRID
    trials: int | None = None
    threads: int = 1
    pfa_target: float | None = None
    eps_grid: tuple = ()

    def argv(self, seed: int, out_dir: str) -> list:
        # "--snr=" keeps a grid that starts below 0 dB from reading as a flag.
        argv = [self.sub, "--scheme", self.scheme, "--n", str(self.n),
                "--snr=" + ",".join(repr(float(s)) for s in self.snr),
                "--threads", str(self.threads), "--seed", str(seed),
                "--out", f"{out_dir}/{self.key}.csv"]
        if self.trials is not None:
            argv += ["--trials", str(self.trials)]
        if self.pfa_target is not None:
            argv += ["--pfa-target", repr(self.pfa_target)]
        if self.eps_grid:
            argv += ["--eps-grid", ",".join(repr(float(e)) for e in self.eps_grid)]
        return argv

    def stems(self) -> list:
        """Stem of every CSV the subcommand writes; also its reference key."""
        if self.sub == "cfo":
            return [f"{self.key}_eps{e:g}" for e in self.eps_grid]
        if self.sub == "compare":
            return [f"{self.key}_theory", f"{self.key}_sim"]
        return [self.key]

    def warmup(self) -> "Command":
        """The same subcommand at its first SNR point and a one-wave cap.

        Run during set-up so that first-call costs (lazy imports, FFT
        plans, page faults on batch-sized arrays) land in ``setup_s``.
        """
        trials = self.trials
        if trials is not None and self.sub in ("ber", "cfo", "roc", "retx"):
            trials = min(trials, 2048)
        return dataclasses.replace(self, snr=self.snr[:1], trials=trials)

    def tiny(self) -> "Command":
        """Two SNR points at a one-batch cap, for the benchmark's own tests.

        Subcommands that size their cap from the false-alarm target get a
        target the small cap satisfies; the stored references then no
        longer apply.
        """
        trials = 512 if self.sub == "retx" else 2048
        pfa = 0.05 if self.sub in ("pmd", "compare") and self.scheme == "ook" else None
        snr = self.snr[:1] if self.sub == "roc" else self.snr[:2]
        return dataclasses.replace(self, snr=snr, trials=trials, pfa_target=pfa)


def pass_seed(seed: int, k: int) -> int:
    """The srbc seed of pass k of a benchmark run with the given seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] >> 1)


def theory_grid(seed: int) -> tuple:
    """SNR_GRID with every point shifted by a seed-drawn offset.

    Offsets stay below half the grid step, so the grid stays strictly
    increasing; a seed never used before gives inputs never seen before.
    """
    rng = np.random.default_rng([seed, 0x7E0])
    shift = rng.uniform(-THEORY_JITTER_DB, THEORY_JITTER_DB, len(SNR_GRID))
    return tuple(round(s + d, 6) for s, d in zip(SNR_GRID, shift))


def _tdl_link(seed: int) -> list:
    """The time-domain link: cfo 0 on one thread, then CRC-framed
    retransmission on the two-thread pool and the cfo != 0 path."""
    return [
        Command("ber_fsk2_n256", "ber", "fsk2", 256, trials=4096),
        Command("pmd_ook_n128", "pmd", "ook", 128, trials=100_000),
        Command("roc_ook_n64", "roc", "ook", 64, snr=(10.0,), trials=8192),
        Command("retx_ook_n64", "retx", "ook", 64, trials=1024, threads=2),
        Command("retx_fsk2_n64", "retx", "fsk2", 64, trials=1024, threads=2),
        Command("cfo_fsk2_n128", "cfo", "fsk2", 128, trials=4096,
                eps_grid=(0.05, 0.1)),
    ]


def _theory_iid(seed: int) -> list:
    """Theory curves on a seed-jittered grid, then theory-against-
    simulation comparisons on the iid channel path."""
    grid = theory_grid(seed)
    return [
        Command("theory_ook_n128", "theory", "ook", 128, snr=grid),
        Command("theory_fsk1_n64", "theory", "fsk1", 64, snr=grid),
        Command("theory_fsk2_n512", "theory", "fsk2", 512, snr=grid),
        Command("compare_fsk2_n512", "compare", "fsk2", 512, snr=SNR_GRID[:5],
                trials=16384),
        Command("compare_ook_n128", "compare", "ook", 128, trials=100_000),
    ]


WORKLOADS = {
    "tdl_link": _tdl_link,
    "theory_iid": _theory_iid,
}


def commands(workload: str, seed: int) -> list:
    """The workload's command list for one seed."""
    return WORKLOADS[workload](seed)
