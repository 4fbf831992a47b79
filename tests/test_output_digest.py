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
