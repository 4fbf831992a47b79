"""Tests for the file comparison of tools/output_digest.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_differing_lists_changed_and_one_sided_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "seed11").mkdir(parents=True)
        (root / "same.csv").write_text("1,2\n")
        (root / "seed11" / "x.txt").write_text("exit 0\n")
    assert output_digest.differing(a, b) == []
    (b / "seed11" / "x.txt").write_text("exit 1\n")
    (a / "only_a.csv").write_text("")
    (b / "seed11" / "only_b.csv").write_text("")
    # a trailing newline is a difference, too
    (b / "same.csv").write_text("1,2")
    assert output_digest.differing(a, b) == [
        "only_a.csv", "same.csv", str(Path("seed11") / "only_b.csv"),
        str(Path("seed11") / "x.txt")]


def _curve_file(path, rows, trials="4096"):
    header = "abscissa,value,ci95,scheme,N,gamma,pfa_target,cfo,seed,trials\n"
    path.write_text(header + "".join(
        f"{x!r},{v!r},{c!r},fsk2,64,0.25,0.001,0.0,7,{trials}\n" for x, v, c in rows))
    return path


def test_band_check_passes_points_within_the_gate_band(tmp_path):
    ref = _curve_file(tmp_path / "ref.csv", [(0.0, 0.4, 0.02), (10.0, 0.01, 0.001)])
    # 0.4 -> 0.45 is within its band max(0.04, 3*hypot(0.02, 0.02)) = 0.085
    near = _curve_file(tmp_path / "near.csv", [(0.0, 0.45, 0.02), (10.0, 0.0105, 0.001)])
    ok, account = output_digest.band_check(ref, near)
    assert ok, account
    far = _curve_file(tmp_path / "far.csv", [(0.0, 0.4, 0.02), (10.0, 0.02, 0.001)])
    ok, account = output_digest.band_check(ref, far)
    assert not ok and account.startswith("point 1"), account


def test_band_check_refuses_moved_abscissas_and_theory_curves(tmp_path):
    ref = _curve_file(tmp_path / "ref.csv", [(0.0, 0.4, 0.02)])
    moved = _curve_file(tmp_path / "moved.csv", [(1.0, 0.4, 0.02)])
    assert not output_digest.band_check(ref, moved)[0]
    theory = _curve_file(tmp_path / "theory.csv", [(0.0, 0.4, 0.0)], trials="0")
    other = _curve_file(tmp_path / "theory2.csv", [(0.0, 0.4000001, 0.0)], trials="0")
    assert not output_digest.band_check(theory, other)[0]
    values = tmp_path / "theory.txt"
    values.write_text("ook 64 0.25 -10.0 0x1.0p-1\n")
    assert not output_digest.band_check(values, values)[0]


def test_band_check_reads_exit_code_and_stderr_of_command_text(tmp_path):
    ref, same, worse = (tmp_path / f"{k}.txt" for k in ("ref", "same", "worse"))
    ref.write_text("exit 0\nabscissa=0 value=0.4\n--- stderr\n")
    same.write_text("exit 0\nabscissa=0 value=0.41\n--- stderr\n")
    worse.write_text("exit 1\nabscissa=0 value=0.41\n--- stderr\ncomparison failed\n")
    assert output_digest.band_check(ref, same)[0]
    assert not output_digest.band_check(ref, worse)[0]


def test_theory_check_passes_values_within_the_relative_tolerance(tmp_path):
    ref, near, far, moved = (tmp_path / k / "theory.txt"
                             for k in ("ref", "near", "far", "moved"))
    for path, value, snr in ((ref, 0.25, "0.0"), (near, 0.25 * (1 + 1e-14), "0.0"),
                             (far, 0.25 * (1 + 1e-10), "0.0"), (moved, 0.25, "1.0")):
        path.parent.mkdir()
        path.write_text(f"ook 64 0.25 -10.0 {0.5.hex()}\n"
                        f"fsk2 64 0.25 {snr} {value.hex()}\n")
    ok, account, worst = output_digest.theory_check(ref, near, 1e-12)
    assert ok and 9e-15 < worst < 2e-14, account
    ok, account, worst = output_digest.theory_check(ref, far, 1e-12)
    assert not ok and worst > 1e-12, account
    assert not output_digest.theory_check(ref, moved, 1e-12)[0]


def test_theory_check_reads_only_theory_files(tmp_path):
    # a curve CSV whose trials column is 0 is a theory curve; its
    # abscissas, halfwidths and metadata must match, its values within R
    ref = _curve_file(tmp_path / "ref.csv", [(0.0, 0.4, 0.0)], trials="0")
    near = _curve_file(tmp_path / "near.csv", [(0.0, 0.4 * (1 + 1e-13), 0.0)], trials="0")
    assert output_digest.theory_check(ref, near, 1e-12)[0]
    assert not output_digest.theory_check(ref, near, 1e-14)[0]
    # a simulated curve in place of a theory one is not within any tolerance
    sim = _curve_file(tmp_path / "sim.csv", [(0.0, 0.4, 0.02)])
    assert not output_digest.theory_check(ref, sim, 1.0)[0]
    text = tmp_path / "cmd.txt"
    text.write_text("exit 0\n--- stderr\n")
    assert output_digest._theory_values(sim) is None
    assert output_digest._theory_values(text) is None


def test_band_check_holds_a_roc_abscissa_to_its_band(tmp_path):
    # a roc curve's abscissa is a simulated false-alarm rate: it may move
    # within the band of its interval from the trial count, not beyond
    ref = _curve_file(tmp_path / "roc_ref.csv", [(0.1, 0.4, 0.02)])
    near = _curve_file(tmp_path / "roc_near.csv", [(0.105, 0.4, 0.02)])
    ok, account = output_digest.band_check(ref, near)
    assert ok, account
    # 3*hypot of two Wald halfwidths at 4096 trials is about 0.04
    far = _curve_file(tmp_path / "roc_far.csv", [(0.16, 0.4, 0.02)])
    ok, account = output_digest.band_check(ref, far)
    assert not ok and account.startswith("point 0"), account
    # any other curve's abscissa is its configuration and must not move
    other = _curve_file(tmp_path / "ber_ref.csv", [(0.1, 0.4, 0.02)])
    assert not output_digest.band_check(other, near)[0]
