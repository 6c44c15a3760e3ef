#!/usr/bin/env python3
"""Regenerate every shipped figure preset into figures/<name>/.

Also writes figures/SHA256SUMS in `sha256sum` format (paths relative to
the output directory) for every artifact a preset wrote, so two runs can
be checked for byte identity with a single `diff`.

Usage: python3 scripts/run_all_figures.py [outdir]
"""

import hashlib
import json
import sys
from pathlib import Path

from sodiff import cli


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "figures")
    failures = []
    written = []
    for name in cli.list_presets():
        out = root / name
        print(f"=== preset {name} -> {out}")
        code = cli.main(["preset", name, "--out", str(out)])
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
