"""Runs one workload in this process and prints its result as the last line.

Started by run.py, which fixes the BLAS/OpenMP thread count in this
process's environment before numpy is imported here.  Not meant to be run
by hand; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, reduce_spans

MIN_PASSES = 3          # untraced run: samples per operation
MIN_TRACE_PASSES = 2    # traced run: per phase (untraced, then traced)
SETUP_EVERY_S = 4.0     # untraced run: least time between set-up samples
SNAPSHOT_S = 0.1        # operations shorter than this are timed at their fastest


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class PassResult:
    def __init__(self):
        self.seconds = 0.0                 # wall time of the timed calls
        self.latencies: list[float] = []   # one per operation, failed too
        self.completed: list[bool] = []
        self.points = 0
        self.errors: dict[str, str] = {}
        self.check_failures: list[str] = []
        self.trace = None                  # (spans, counts) of a traced pass

    @property
    def attempted(self) -> int:
        return len(self.completed)

    @property
    def failed(self) -> int:
        return self.completed.count(False)

    def call_percentile(self, q: float) -> float:
        """Percentile of this pass's completed calls' latencies."""
        return percentile([t for t, ok in zip(self.latencies, self.completed)
                           if ok], q)


def run_pass(workload, inputs, ops) -> PassResult:
    """One pass over the workload's operations.  Only the calls themselves
    are timed; reducing outputs and checking them happen between timers."""
    res = PassResult()
    kept: dict[str, list] = {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:     # a program exception is a failed operation
            dt = time.perf_counter() - t0
            res.completed.append(False)
            res.errors.setdefault(op.group, f"{type(exc).__name__}: {exc}")
            kept.setdefault(op.group, []).append(None)
        else:
            dt = time.perf_counter() - t0
            res.completed.append(True)
            res.points += op.points
            kept.setdefault(op.group, []).append(op.keep(out))
            del out
        res.latencies.append(dt)
        res.seconds += dt
    res.check_failures = workload.check(inputs, kept)
    return res


def run_passes(workload, inputs, seconds: float, min_passes: int, after=None,
               tracer=None):
    """Passes until ``seconds`` have gone by and at least ``min_passes``.
    With a tracer, each pass keeps its spans in ``trace``; the spans of
    drawing the pass's inputs are dropped."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        pass_inputs = workload.for_pass(inputs, len(passes))
        if tracer is not None:
            tracer.take()
        res = run_pass(workload, pass_inputs, workload.operations(pass_inputs))
        if tracer is not None:
            res.trace = tracer.take()
        passes.append(res)
        if after is not None:
            after()
    return passes


def operation_times(passes) -> list[float]:
    """Each operation's time over the passes: its fastest repeat when its
    median repeat is shorter than SNAPSHOT_S, else its median repeat.

    An operation costs the same in every pass (point_sweep's random crystals
    are new in each pass, but the call at one position keeps its kind), so
    what varies between repeats is the host: on a shared 2-vCPU machine it
    swings between a fast and a slow state, by up to half, every second or
    so.  A short call sees one state; every run has fast moments, so its
    fastest repeat is steady.  A long call averages the states over its
    length; its fastest repeat is set by a rare fast spell, its median by
    the run's mix of states, which varies less (README.md, Steadiness).
    """
    out = []
    for col in zip(*(p.latencies for p in passes)):
        mid = statistics.median(col)
        out.append(min(col) if mid < SNAPSHOT_S else mid)
    return out


def group_seconds(ops, per_op) -> dict[str, float]:
    """Summed operation time of each operation group over one pass."""
    out: dict[str, float] = {}
    for op, t in zip(ops, per_op):
        out[op.group] = out.get(op.group, 0.0) + t
    return out


def import_seconds() -> float:
    """Import time of numpy, sodiff and the workloads in a fresh interpreter
    with this process's environment."""
    code = ("import time; t = time.perf_counter(); import numpy, sodiff, "
            "workloads; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code],
                                cwd=Path(__file__).parent, capture_output=True,
                                text=True, check=True, timeout=60).stdout)


def timed_setup(workload, seed: int):
    t0 = time.perf_counter()
    inputs = workload.setup(seed)
    return time.perf_counter() - t0, inputs


def provenance(root: Path, np_version: str) -> dict:
    sha = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unavailable"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
            "threads": os.environ.get("OMP_NUM_THREADS"), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np_version}


def per_layer_metrics(names, setup_trace, traced, untraced_pass_s):
    """Each value covers the traced set-up plus one traced pass (the mean
    over traced passes)."""
    def add(into, frm, weight):
        for k, v in frm.items():
            into[k] = into.get(k, 0.0) + weight * v

    self_s, counts, covered = {}, {}, 0.0
    setup_self, _ = reduce_spans(setup_trace[0])
    add(self_s, setup_self, 1.0)
    add(counts, setup_trace[1], 1.0)
    w = 1.0 / len(traced)
    for spans, cnt in (p.trace for p in traced):
        pass_self, top = reduce_spans(spans)
        add(self_s, pass_self, w)
        add(counts, cnt, w)
        covered += top
    out = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = sum(operation_times(traced)) - untraced_pass_s
        elif name == "trace.coverage":
            value = covered / sum(p.seconds for p in traced)
        elif name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".ns_per_point"):
            key = name[:-len(".ns_per_point")]
            points = counts.get(f"{key}.points", 0.0)
            value = 1e9 * self_s.get(key, 0.0) / points if points else 0.0
        else:
            value = counts.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    root = Path(args.root)

    t0 = time.perf_counter()
    import numpy as np
    import sodiff
    import workloads
    import_s = time.perf_counter() - t0
    if Path(sodiff.__file__).resolve().parent != (root / "src" / "sodiff").resolve():
        print(f"sodiff imported from {sodiff.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](Path(args.scratch))
    setup_time, inputs = timed_setup(workload, args.seed)
    import_times, setup_times = [import_s], [setup_time]

    last_sample = [time.perf_counter()]

    def sample_setup():
        # One more set-up sample after a pass once SETUP_EVERY_S have gone
        # by: the host's speed swings within seconds, and samples spread
        # over the whole run vary less from run to run than samples taken
        # together at its start.  The interval keeps the samples from
        # crowding out short passes.
        if time.perf_counter() - last_sample[0] < SETUP_EVERY_S:
            return
        import_times.append(import_seconds())
        setup_times.append(timed_setup(workload, args.seed)[0])
        last_sample[0] = time.perf_counter()

    seconds = args.seconds / 2 if args.trace else args.seconds
    if args.trace:
        passes = run_passes(workload, inputs, seconds, MIN_TRACE_PASSES)
    else:
        passes = run_passes(workload, inputs, seconds, MIN_PASSES,
                            after=sample_setup)
    per_op = operation_times(passes)
    pass_s = sum(per_op)
    all_passes = list(passes)

    if args.trace:
        tracer = Tracer()
        tracer.install(sodiff)
        inputs = None
        inputs = workload.setup(args.seed)
        setup_trace = tracer.take()
        traced = run_passes(workload, inputs, seconds, MIN_TRACE_PASSES,
                            tracer=tracer)
        all_passes += traced
        spec = json.loads((root / "BENCHMARK.json").read_text())
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = per_layer_metrics(names, setup_trace, traced, pass_s)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "points_per_s": {"value": passes[0].points / pass_s, "unit": "points/s"},
            # The median call's time, as pass_s times it; a stall lies
            # beyond the median, so this loses nothing that p99 shows.
            "call_p50_us": {"value": 1e6 * statistics.median(
                t for t, ok in zip(per_op, passes[0].completed) if ok),
                "unit": "us"},
            "call_p99_us": {"value": 1e6 * statistics.median(
                p.call_percentile(99) for p in passes), "unit": "us"},
        }

    check_failures = sorted({m for p in all_passes for m in p.check_failures})
    # Every pass attempts the same operations; one that fails in some passes
    # only is a fault the result cannot count steadily.
    counts = {(p.attempted, p.failed) for p in all_passes}
    if len(counts) > 1:
        check_failures.append(f"passes disagree on (attempted, failed): "
                              f"{sorted(counts)}")
    errors = {}
    for p in all_passes:
        for group, msg in p.errors.items():
            errors.setdefault(group, msg)
    for msg in check_failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(root, np.__version__),
        "import_s": import_times, "setup_repeats_s": setup_times,
        "pass_wall_s": [p.seconds for p in all_passes],
        "pass_p50_us": [1e6 * p.call_percentile(50) for p in passes],
        "pass_p99_us": [1e6 * p.call_percentile(99) for p in passes],
        "group_s": group_seconds(workload.operations(inputs), per_op),
        "passes": len(all_passes),
        "failed_operations": errors,
        "check_failures": check_failures,
    }
    print(json.dumps(record))
    # Counts of one pass, so that they do not grow with the number of passes
    # that fit into --seconds.
    result = {"correct": not check_failures,
              "attempted": all_passes[0].attempted,
              "failed": all_passes[0].failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
