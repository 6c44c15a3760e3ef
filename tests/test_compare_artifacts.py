"""scripts/compare_artifacts.py on two tiny output directories."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"


def write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_reports_largest_change_per_column(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    header = "# sodiff 0.1.0\nx,y,z\n"
    write(a / "run" / "t.csv", header + "1,2.5,nan\n2,1e-09,inf\n3,-0,4\n")
    write(b / "run" / "t.csv", header + "1,2.5,nan\n2,1.00000001e-09,inf\n3,0,5\n")
    write(a / "only_a.csv", "x\n1\n")
    write(a / "h.csv", "# config_hash 0123\nx\n1\n")
    write(b / "h.csv", "# config_hash 4567\nx\n1\n")
    write(a / "s.csv", "x\n-0\n")
    write(b / "s.csv", "x\n0\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                         capture_output=True, text=True)
    assert out.returncode == 1            # only_a.csv has no partner
    assert "only_a.csv: only in A" in out.stdout
    lines = [line.split() for line in out.stdout.splitlines()]
    rows = {line[1]: line[2:] for line in lines
            if len(line) == 5 and line[0] == "run/t.csv"}
    assert rows["x"] == ["0", "0", "0"]
    changed, dabs, drel = rows["y"]
    assert changed == "1"
    assert float(dabs) == pytest.approx(1e-17, rel=1e-2)
    assert float(drel) == pytest.approx(1e-8, rel=1e-2)
    assert rows["z"] == ["1", "1", "0.2"]  # -0 == 0; nan and inf unchanged
    # a header-only move keeps the data lines; -0 -> 0, equal as values,
    # moves them
    assert ["h.csv", "x", "0", "0", "0"] in lines
    assert ["s.csv", "x", "0", "0", "0"] in lines
    data = {line[0]: line[1] for line in lines if len(line) == 2}
    assert data == {"file": "data_lines", "h.csv": "identical",
                    "run/t.csv": "differ", "s.csv": "differ"}


def test_identical_directories_exit_zero(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        write(root / "t.csv", "x,y\n1,2\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.splitlines()[1].split()[1:] == ["x", "0", "0", "0"]
    assert out.stdout.splitlines()[-1].split() == ["t.csv", "identical"]
