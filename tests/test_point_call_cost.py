"""scripts/point_call_cost.py with tiny counts, so that it keeps running."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "point_call_cost.py"


def test_reports_every_cost_of_both_calls(tmp_path):
    """Every cost of the Laue and Bragg calls and the random case."""
    out = tmp_path / "cost.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT / "src"), "--calls", "2",
         "--repeats", "1", "--processes", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [
        [case, cost] for case in ("laue[]", "bragg[1]")
        for cost in ("hit", "first_miss", "second_miss")] + [
        ["random", "first_miss"]]
    assert all(float(row[2]) > 0.0 for row in rows)
    record = json.loads(out.read_text())
    (best,) = record["best"].values()
    assert [best[case][cost] for case, cost, _ in rows] == \
        [float(us) for *_, us in rows]
    assert len(next(iter(record["runs"].values()))) == 1


def test_rejects_zero_counts():
    done = subprocess.run([sys.executable, str(SCRIPT), "src", "--calls", "0"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "at least 1" in done.stderr
