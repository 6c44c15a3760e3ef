#!/usr/bin/env python3
"""Regenerate every shipped figure preset into figures/<name>/.

Each preset runs in its own process, as `sodiff preset <name>` does, and
its wall time and peak resident set size (`ru_maxrss` of that process) are
printed after its own output.  Also writes figures/SHA256SUMS in
`sha256sum` format (paths relative to the output directory) for every
artifact a preset wrote, so two runs can be checked for byte identity with
a single `diff`.

Usage: python3 scripts/run_all_figures.py [outdir]
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from sodiff import cli

# `sodiff preset <name> --out <dir>` in a fresh interpreter
_PRESET = "import sys; from sodiff import cli; sys.exit(cli.main(sys.argv[1:]))"


def run_preset(name: str, out: Path) -> tuple[int, float, float]:
    """Exit code, wall time in s and peak RSS in MB of one preset's run."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _PRESET, "preset", name,
                             "--out", str(out)])
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "figures")
    failures = []
    written = []
    for name in cli.list_presets():
        out = root / name
        print(f"=== preset {name} -> {out}", flush=True)
        code, wall, peak_mb = run_preset(name, out)
        print(f"=== preset {name}: wall {wall:.2f}s  peak_rss {peak_mb:.1f} MB",
              flush=True)
        if code != 0:
            failures.append((name, code))
            continue
        manifest = json.loads((out / "manifest.json").read_text())
        written += [out / a for a in manifest["artifacts"] + ["manifest.json"]]
    sums = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"{p.relative_to(root).as_posix()}\n" for p in sorted(written)]
    (root / "SHA256SUMS").write_text("".join(sums))
    if failures:
        print("FAILED:", failures)
        return 1
    print(f"all presets written under {root}/, hashes in {root}/SHA256SUMS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
