#!/usr/bin/env python3
"""Per-call cost of one-point exit_amplitude_maps calls, for one or more
source trees.

Two calls are timed, both on 2 A quartz (110) without the spin-orbit term,
with the incident spin up and rho = 0: a Laue call at a 0-d theta and a
Bragg call at a theta of shape (1,), the two forms of point_sweep's
one-point calls.  For each, three costs in microseconds:

- hit: one point, a new thickness on every call, after two warming calls,
  so the channel cache holds the point (a thickness sweep);
- first_miss: a point never seen before on every call;
- second_miss: the second call at a fresh point, after an untimed first
  one (the call that stores a point in the channel cache), each call
  timed on its own.

A third case, random, times point_sweep's random group: every call gets a
fresh two-site crystal on one fixed lattice, its own Bragg or Laue
geometry, wavelength, thickness and incident spinor, and a theta of shape
(1,), all drawn and built before the timer starts, as the benchmark draws
them before a pass.  Its one cost is first_miss: each call builds the
crystal's reflection and solves a point never seen before.

Each cost is the best of --repeats sets of --calls calls in one process.
Every tree runs in --processes fresh interpreters (PYTHONPATH set to the
tree), alternating, with the order of the trees reversed every other
round; the table gives each tree's best over its processes.  A tree
without a channel cache pays the same for all three.

Usage: python3 scripts/point_call_cost.py SRC [SRC ...]
           [--calls 1000] [--repeats 7] [--processes 3] [--json PATH]

where SRC is a directory holding the sodiff package (a checkout's src/).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

COSTS = ("hit", "first_miss", "second_miss")
CASES = {"laue[]": COSTS, "bragg[1]": COSTS, "random": ("first_miss",)}


def measure(calls: int, repeats: int) -> dict:
    """{case: {cost: best microseconds per call}} in this process."""
    import dataclasses

    import numpy as np

    from sodiff import crystal as cr
    from sodiff import dispersion as dp

    scalar = cr.reference_quartz().without_schwinger()
    up = np.array([1.0, 0.0], complex)
    fresh = iter(range(1, 10**9))   # point k sits at theta = k * 1e-10
    lattice = ((4.2, 0, 0), (0.3, 5.1, 0), (0, 0, 6.3))
    hkl = (1, 1, 0)

    def new_theta(shape):
        return np.full(shape, next(fresh) * 1e-10)

    out = {}
    for case, kind, shape in (("laue[]", dp.LAUE, ()),
                              ("bragg[1]", dp.BRAGG, (1,))):
        geom = dp.make_geometry(scalar, (1, 1, 0), 2.0, kind, 1e6)
        rho = np.zeros(shape)
        sweep = [dataclasses.replace(geom, thickness_A=float(d))
                 for d in np.linspace(1e6, 2e6, calls)]

        def call(g, theta):
            return dp.exit_amplitude_maps(g, scalar, up, theta, rho)["R"]

        def hit():
            theta = new_theta(shape)
            call(geom, theta)
            call(geom, theta)
            t0 = time.perf_counter()
            for g in sweep:
                call(g, theta)
            return time.perf_counter() - t0

        def first_miss():
            thetas = [new_theta(shape) for _ in range(calls)]
            t0 = time.perf_counter()
            for theta in thetas:
                call(geom, theta)
            return time.perf_counter() - t0

        def second_miss():
            total = 0.0
            for _ in range(calls):
                theta = new_theta(shape)
                call(geom, theta)
                t0 = time.perf_counter()
                call(geom, theta)
                total += time.perf_counter() - t0
            return total

        out[case] = {name: round(1e6 * min(run() for _ in range(repeats))
                                 / calls, 1)
                     for name, run in (("hit", hit), ("first_miss", first_miss),
                                       ("second_miss", second_miss))}

    def random_case(rng):
        """(geometry, crystal, spinor, theta) of one random-group call."""
        b = rng.uniform(1.0, 9.0, size=2)
        frac = rng.uniform(0.05, 0.95, size=3)
        crys = cr.CrystalModel(
            "random", lattice,
            (cr.AtomSite("A", (0.0, 0.0, 0.0), float(b[0]), 12),
             cr.AtomSite("B", tuple(float(f) for f in frac), float(b[1]), 24)))
        kind = dp.BRAGG if rng.random() < 0.5 else dp.LAUE
        lam = float(rng.uniform(0.2, 0.95)) * 2 * crys.d_spacing(hkl)
        geom = dp.make_geometry(crys, hkl, lam, kind,
                                float(10 ** rng.uniform(4, 7.5)))
        spin = rng.normal(size=2) + 1j * rng.normal(size=2)
        return (geom, crys, spin / np.linalg.norm(spin),
                np.array([rng.normal(scale=1e-5)]))

    def random_group(seed):
        rng = np.random.default_rng(seed)
        cases = [random_case(rng) for _ in range(calls)]
        rho = np.zeros(1)
        t0 = time.perf_counter()
        for geom, crys, u0, theta in cases:
            dp.exit_amplitude_maps(geom, crys, u0, theta, rho)
        return time.perf_counter() - t0

    out["random"] = {"first_miss": round(
        1e6 * min(random_group(seed) for seed in range(repeats)) / calls, 1)}
    return out


def run_tree(src: str, calls: int, repeats: int) -> dict:
    """measure() in a fresh interpreter that imports sodiff from src."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run(
        [sys.executable, __file__, "--worker", "--calls", str(calls),
         "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", help="directories holding sodiff")
    ap.add_argument("--calls", type=int, default=1000)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--processes", type=int, default=3)
    ap.add_argument("--json", help="also write every process's table here")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.calls < 1 or args.repeats < 1 or args.processes < 1:
        ap.error("--calls, --repeats and --processes must be at least 1")
    if args.worker:
        print(json.dumps(measure(args.calls, args.repeats)))
        return 0
    if not args.src:
        ap.error("give at least one source tree")

    runs = {src: [] for src in args.src}
    for rnd in range(args.processes):
        for src in args.src if rnd % 2 == 0 else args.src[::-1]:
            runs[src].append(run_tree(src, args.calls, args.repeats))
    best = {src: {case: {cost: min(r[case][cost] for r in tables)
                         for cost in costs} for case, costs in CASES.items()}
            for src, tables in runs.items()}

    print(f"us per call, best of {args.processes} processes x "
          f"{args.repeats} repeats x {args.calls} calls")
    print(f"{'case':<10} {'cost':<12} " + " ".join(
        f"{src:>14}" for src in args.src))
    for case, costs in CASES.items():
        for cost in costs:
            print(f"{case:<10} {cost:<12} " + " ".join(
                f"{best[src][case][cost]:>14.1f}" for src in args.src))
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"calls": args.calls, "repeats": args.repeats,
             "processes": args.processes, "best": best, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
