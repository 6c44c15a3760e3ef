#!/usr/bin/env python3
"""sodiff benchmark entry point.

    python3 perfbench/run.py --workload {presets,dense_grid,point_sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each call starts the workload in a
fresh Python process whose BLAS/OpenMP thread count is fixed in its
environment before numpy is imported, and whose ``sodiff`` is the one under
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON record of the run (provenance, pass times, failed
operations).  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("presets", "dense_grid", "point_sweep")
# Time the worker may take beyond --seconds: imports, set-up repeats, the
# pass that is running when the window closes, and the output checks.
CHILD_GRACE_S = 138
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "sodiff" / "__init__.py").is_file():
        print(f"no sodiff sources under {root / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"

    out_root = root / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    cmd = [sys.executable, str(here / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--scratch", scratch]
    # SIGTERM unwinds through the finally block, which stops the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = None
    try:
        sys.stdout.flush()
        proc = subprocess.Popen(cmd, env=env, cwd=root)
        timeout = args.seconds + CHILD_GRACE_S
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"workload {args.workload} exceeded {timeout} s",
                  file=sys.stderr)
            return 3
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
