"""The benchmark's workloads: inputs, operations and output checks.

A workload's ``setup(seed)`` builds every input; ``for_pass(inputs, i)``
gives the inputs of pass ``i`` (the same for every pass unless a workload
redraws some of them), and ``operations(inputs)`` returns the fixed list of
calls one pass makes.  Each operation is timed on
its own; its ``keep`` step runs after the timer stops and reduces the
output to what the checks need, so large fields are freed before the next
call.  ``check(inputs, kept)`` returns the failed checks of one pass.

Only entry points that the package keeps as it is simplified are called:
``cli.run_config``, ``grid_scan``, ``coherence_scan``,
``exit_amplitude_maps``, the ``darwin_*`` helpers, plus the constructors
needed to state the inputs (``reference_quartz``, ``CrystalModel``,
``AtomSite``, ``make_geometry``, ``backscattering_wavelength``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from sodiff import cli
from sodiff import crystal as cr
from sodiff import dispersion as dp
from sodiff import wavefield as wf

HKL = (1, 1, 0)
U0_ALONG_BEAM = np.array([1.0, 1.0]) / np.sqrt(2.0)
U0_UP = np.array([1.0, 0.0])
DEG = np.pi / 180.0


class Workload:
    """Base: a workload may write scratch files under ``scratch``."""

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def for_pass(self, inputs, index: int):
        return inputs


@dataclass
class Operation:
    group: str
    call: Callable[[], Any]
    keep: Callable[[Any], Any]
    points: int


def _orthogonal(u):
    return np.array([-np.conj(u[1]), np.conj(u[0])])


def _flux_error(R, T) -> float:
    return float(np.max(np.abs(np.asarray(R) + np.asarray(T) - 1.0)))


# ---------------------------------------------------------------------------
# presets: every shipped preset through cli.run_config
# ---------------------------------------------------------------------------

class Presets(Workload):
    """What a user runs to regenerate the paper's figures."""

    # modes whose analysis solves no (theta, rho) grid
    _GRIDLESS = {"coil-model"}

    def __init__(self, scratch: Path):
        super().__init__(scratch)
        self.first_hashes: dict[str, dict[str, str]] = {}
        self.first_failures: dict[str, list[str]] = {}

    def setup(self, seed: int):
        presets = []
        for name in cli.list_presets():
            text = cli.preset_text(name)
            cfg = cli.parse_config(text)
            points = 0
            if not {b["mode"] for b in cfg.analyses} <= self._GRIDLESS:
                points = (int(cfg.scan.get("theta_points", "256"))
                          * int(cfg.scan.get("rho_points", "1")))
            presets.append((name, cfg, points))
        return presets

    def operations(self, presets):
        ops = []
        for name, cfg, points in presets:
            out = self.scratch / name
            ops.append(Operation(name, self._runner(cfg, out),
                                 self._keeper(name, out), points))
        return ops

    def _runner(self, cfg, out: Path):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_config(cfg, out, self.scratch)
            if code != 0:
                raise RuntimeError(f"run_config returned {code}")
        return run

    def _keeper(self, name: str, out: Path):
        def keep(_):
            hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.iterdir())}
            if name not in self.first_hashes:
                self.first_hashes[name] = hashes
                self.first_failures[name] = _preset_checks(name, out)
                failures = list(self.first_failures[name])
            else:
                failures = list(self.first_failures[name])
                if hashes != self.first_hashes[name]:
                    failures.append(f"{name}: artifacts differ between passes")
            shutil.rmtree(out)
            return failures
        return keep

    def check(self, presets, kept):
        return [msg for group in kept.values() for item in group
                if item is not None for msg in item]


def _csvs(out: Path, pattern: str) -> list[Path]:
    return sorted(out.glob(pattern))


def _preset_checks(name: str, out: Path) -> list[str]:
    """Checks of one preset's artifacts against independent computations."""
    fail = []
    if name == "coil-model":
        (path,) = _csvs(out, "*coil_phase.csv")
        col = ref.read_csv(path)
        alpha = np.linspace(-2.0, 2.0, 401)
        if np.max(np.abs(col["alpha_deg"] - alpha)) > 1e-12:
            fail.append("coil-model: alpha axis is not 401 points over +-2 deg")
        for column, guide in (("dphi_no_guide_rad", 0.0), ("dphi_guide_rad", 1e-3)):
            want = ref.coil_phase(alpha * DEG, 5.0 * DEG, guide)
            err = np.max(np.abs(col[column] - want) / np.maximum(np.abs(want), 1e-12))
            if not err <= 1e-7:
                fail.append(f"coil-model: {column} off closed form by {err:.2e}")
    elif name == "fig2":
        (path,) = _csvs(out, "*transmitted.csv")
        py = ref.read_csv(path)["Py"]
        resid = np.max(np.abs(py + py[::-1])) / np.max(np.abs(py))
        if not resid <= 1e-3:
            fail.append(f"fig2: transmitted P_y antisymmetry residual {resid:.2e}")
    elif name == "fig4":
        windings = {}
        for beam in ("reflected", "transmitted"):
            for comp in ("flipped", "non-flipped"):
                (path,) = _csvs(out, f"*_{beam}_{comp}.csv")
                col = ref.read_csv(path)
                n_theta = np.unique(col["theta_rad"]).size
                phase = col["phase_rad"].reshape(n_theta, -1)
                turns = [ref.winding(phase, m) for m in (20, 60, 100)]
                if not all(np.isfinite(t) and abs(t - round(t)) < 0.25 for t in turns):
                    fail.append(f"fig4: {beam}/{comp} circulation not integer: {turns}")
                windings[beam, comp] = [round(t) for t in turns]
        w_r = windings["reflected", "flipped"]
        w_t = windings["transmitted", "flipped"]
        if not (len(set(w_r)) == 1 and abs(w_r[0]) == 1 and w_t == [-w for w in w_r]):
            fail.append(f"fig4: flipped windings R={w_r} T={w_t}, want +-1 opposite")
        for beam in ("reflected", "transmitted"):
            if windings[beam, "non-flipped"] != [0, 0, 0]:
                fail.append(f"fig4: {beam} non-flipped windings "
                            f"{windings[beam, 'non-flipped']}, want 0")
    elif name == "fig5":
        for path in _csvs(out, "*.csv"):
            col = ref.read_csv(path)
            p = np.sqrt(col["Px"] ** 2 + col["Py"] ** 2 + col["Pz"] ** 2)
            p = p[np.isfinite(p)]
            if p.size == 0 or not np.max(p) <= 1.0 + 1e-8:
                fail.append(f"fig5: |P| exceeds 1 in {path.name}")
    if name in ("fig3", "fig6", "fig7"):
        means = {}
        for path in _csvs(out, "*.csv"):
            col = ref.read_csv(path)
            for key, p in col.items():
                if not key.startswith("p_"):
                    continue
                if not np.all(p >= 0.0):
                    fail.append(f"{name}: negative mode probability in {key}")
                means[path.name, key] = float(np.sum(col["ell"] * p) / np.sum(p))
        if name == "fig6":
            for key, mean in means.items():
                if not abs(mean + 1.0) <= 0.1:
                    fail.append(f"{name}: interference mean l {mean:+.3f} in {key}")
        if name == "fig7":
            (shift,) = [means[k] - means[k[0], "p_non_flipped"]
                        for k in means if k[1] == "p_flipped"]
            if not abs(shift + 1.0) <= 0.1:
                fail.append(f"fig7: flipped minus non-flipped mean l {shift:+.3f}")
    return fail


# ---------------------------------------------------------------------------
# dense_grid: large scans through the public API, no serialisation
# ---------------------------------------------------------------------------

class DenseGrid(Workload):
    """Engine- and memory-bound scans over large (theta, rho) grids."""

    GRID_N = 1024           # acceptance criterion 2 grid
    COHERENCE_N = 384
    HALF = 0.45 * DEG
    WIDE_HALF = 1e-2        # +-10 mrad about the 2 A Darwin centre
    WIDE_N = 20001

    def setup(self, seed: int):
        quartz = cr.reference_quartz()
        lam = dp.backscattering_wavelength(quartz, HKL, dp.BRAGG)
        back_10mm = dp.make_geometry(quartz, HKL, lam, dp.BRAGG, 1e8)
        back_200um = dp.make_geometry(quartz, HKL, lam, dp.BRAGG, 2e6)
        thermal = dp.make_geometry(quartz, HKL, 2.0, dp.BRAGG, 1e6)
        centre = dp.darwin_center_theta(quartz, thermal)
        # The 1024^2 grid is criterion 2's own: its flip/non-flip ratio
        # samples a resonance narrower than one grid step, so it is checked
        # on that grid only.  The seed shifts the coherence grid by under one
        # step, so a change tuned to one exact grid does not carry over.
        rng = np.random.default_rng(seed)
        grid_ax = np.linspace(-self.HALF, self.HALF, self.GRID_N)
        coh_ax = (np.linspace(-self.HALF, self.HALF, self.COHERENCE_N)
                  + rng.uniform(-0.5, 0.5) * 2 * self.HALF / (self.COHERENCE_N - 1))
        wide_ax = centre + np.linspace(-self.WIDE_HALF, self.WIDE_HALF, self.WIDE_N)
        return dict(quartz=quartz, back_10mm=back_10mm, back_200um=back_200um,
                    thermal=thermal, grid_ax=grid_ax, coh_ax=coh_ax,
                    wide_ax=wide_ax)

    def operations(self, x):
        q = x["quartz"]
        return [
            Operation("grid_1024",
                      lambda: wf.grid_scan(x["back_10mm"], q, U0_ALONG_BEAM,
                                           x["grid_ax"], x["grid_ax"]),
                      self._keep_grid, self.GRID_N ** 2),
            Operation("coherence_384",
                      lambda: wf.coherence_scan(x["back_200um"], q, U0_ALONG_BEAM,
                                                x["coh_ax"], x["coh_ax"]),
                      self._keep_coherence, self.COHERENCE_N ** 2),
            # Fails today on every call: grid_scan's _spot_check tests the
            # secular residual, which grows away from the Bragg angle to
            # 1.9e-8 at +-10 mrad against a 1e-10 tolerance while
            # |R+T-1| stays below 1e-15.  Mending that check turns this into
            # a completed operation, one fewer failure per pass.
            Operation("wide_line_scan",
                      lambda: wf.grid_scan(x["thermal"], q, U0_ALONG_BEAM,
                                           x["wide_ax"], np.zeros(1)),
                      self._keep_wide, self.WIDE_N),
        ]

    @staticmethod
    def _keep_grid(grid):
        flip = np.abs(grid.psiH @ np.conj(_orthogonal(U0_ALONG_BEAM))) ** 2
        nonf = np.abs(grid.psiH @ np.conj(U0_ALONG_BEAM)) ** 2
        return {"flux": _flux_error(grid.R, grid.T),
                "ratio": float(flip.sum() / nonf.sum())}

    @staticmethod
    def _keep_coherence(grid):
        worst = {"flux": _flux_error(grid.R, grid.T), "hermitian": 0.0,
                 "eig": 0.0}
        for m in (grid.rho0, grid.rhoH):
            herm = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))))
            scale = np.maximum(np.real(np.trace(m, axis1=-2, axis2=-1)), 1e-300)
            low = np.linalg.eigvalsh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))[..., 0]
            worst["hermitian"] = max(worst["hermitian"], float(herm))
            worst["eig"] = max(worst["eig"], float(np.max(-low / scale)))
        return worst

    @staticmethod
    def _keep_wide(grid):
        return {"flux": _flux_error(grid.R, grid.T)}

    def check(self, x, kept):
        fail = []
        for group, items in kept.items():
            for item in items:
                if item is None:
                    continue
                if not item["flux"] <= 1e-10:
                    fail.append(f"{group}: max |R+T-1| {item['flux']:.2e}")
                if "ratio" in item and not 1e-7 <= item["ratio"] <= 1e-5:
                    fail.append(f"{group}: flip/non-flip ratio {item['ratio']:.2e}")
                if "hermitian" in item and not item["hermitian"] <= 1e-12:
                    fail.append(f"{group}: coherence not Hermitian "
                                f"({item['hermitian']:.2e})")
                if "eig" in item and not item["eig"] <= 1e-12:
                    fail.append(f"{group}: eigenvalue below -1e-12 trace "
                                f"({-item['eig']:.2e})")
        return fail


# ---------------------------------------------------------------------------
# point_sweep: thousands of one-point exit_amplitude_maps calls
# ---------------------------------------------------------------------------

class PointSweep(Workload):
    """Per-call overhead: geometry set-up, structure sums, small arrays."""

    # 2048 thicknesses (85 per period) keep a pass near one second, so each
    # call position is timed about 15 times in a 32 s run; see README.md,
    # Steadiness.
    N_THICK = 2048
    PERIODS = 24
    N_RANDOM = 1000
    N_DARWIN = 101

    def setup(self, seed: int):
        quartz = cr.reference_quartz()
        scalar = quartz.without_schwinger()
        sites = [(s.frac, s.b_fm) for s in scalar.sites]

        laue = dp.make_geometry(scalar, HKL, 2.0, dp.LAUE, 1e6)
        period = ref.pendelloesung_period_A(scalar.lattice, sites, HKL, 2.0)
        thick = 4e5 + np.arange(self.N_THICK) * (self.PERIODS * period / self.N_THICK)
        sweep = [dataclasses.replace(laue, thickness_A=float(d)) for d in thick]

        # Bragg or Laue per random call: fixed by the seed for the run, so
        # the call at one position costs the same in every pass.
        kinds = [dp.BRAGG if u < 0.5 else dp.LAUE
                 for u in np.random.default_rng(seed).random(self.N_RANDOM)]

        bragg_2mm = dp.make_geometry(scalar, HKL, 2.0, dp.BRAGG, 2e7)
        eta = np.linspace(-0.95, 0.95, self.N_DARWIN)
        centre = dp.darwin_center_theta(scalar, bragg_2mm)
        offsets = ref.darwin_plateau_offsets(scalar.lattice, sites, HKL,
                                             bragg_2mm.k0, bragg_2mm.H, eta)
        x = dict(seed=seed, kinds=kinds, scalar=scalar, sweep=sweep,
                 thick=thick, period=period, bragg_2mm=bragg_2mm, eta=eta,
                 darwin_theta=centre + offsets)
        return self.for_pass(x, 0)

    def for_pass(self, x, index: int):
        """Inputs of pass ``index``: the random crystals, geometries and
        spins are drawn afresh from (seed, index), so every pass meets
        crystals it has not seen, as a fit over new samples does."""
        rng = np.random.default_rng([x["seed"], index])
        lattice = ((4.2, 0, 0), (0.3, 5.1, 0), (0, 0, 6.3))
        random_cases = []
        for kind in x["kinds"]:
            b = rng.uniform(1.0, 9.0, size=2)
            frac = rng.uniform(0.05, 0.95, size=3)
            crys = cr.CrystalModel(
                "random", lattice,
                (cr.AtomSite("A", (0.0, 0.0, 0.0), float(b[0]), 12),
                 cr.AtomSite("B", tuple(float(f) for f in frac), float(b[1]), 24)))
            lam = float(rng.uniform(0.2, 0.95)) * 2 * crys.d_spacing(HKL)
            geom = dp.make_geometry(crys, HKL, lam, kind,
                                    float(10 ** rng.uniform(4, 7.5)))
            spin = rng.normal(size=2) + 1j * rng.normal(size=2)
            random_cases.append((geom, crys, spin / np.linalg.norm(spin),
                                 np.array([rng.normal(scale=1e-5)])))
        return dict(x, random_cases=random_cases)

    def operations(self, x):
        def one(geom, crys, u0, th):
            rh = np.zeros_like(th)
            return lambda: dp.exit_amplitude_maps(geom, crys, u0, th, rh)

        def keep(res):
            return float(res["R"].reshape(-1)[0]), float(res["T"].reshape(-1)[0])

        ops = [Operation("pendelloesung", one(g, x["scalar"], U0_UP, np.array(0.0)),
                         keep, 1) for g in x["sweep"]]
        ops += [Operation("random", one(g, c, u, th), keep, 1)
                for g, c, u, th in x["random_cases"]]
        ops += [Operation("darwin", one(x["bragg_2mm"], x["scalar"], U0_UP,
                                        np.array([th])), keep, 1)
                for th in x["darwin_theta"]]
        return ops

    def check(self, x, kept):
        fail = []
        for group, items in kept.items():
            done = [rt for rt in items if rt is not None]
            if done:
                R, T = np.array(done).T
                flux = _flux_error(R, T)
                if not flux <= 1e-10:
                    fail.append(f"{group}: max |R+T-1| {flux:.2e}")
        if all(rt is not None for rt in kept.get("pendelloesung", [None])):
            T = np.array([t for _, t in kept["pendelloesung"]])
            got = ref.fft_period(x["thick"], T)
            rel = abs(got - x["period"]) / x["period"]
            if not rel <= 1e-3:
                fail.append(f"pendelloesung: FFT period off formula by {rel:.2e}")
        done = [(e, rt[0]) for e, rt in zip(x["eta"], kept.get("darwin", []))
                if rt is not None]
        if done:
            eta, R = np.array(done).T
            err = float(np.max(np.abs(R - ref.darwin_reflectivity(eta))))
            if not err <= 1e-8:
                fail.append(f"darwin: max |R - closed form| {err:.2e}")
        return fail


WORKLOADS = {"presets": Presets, "dense_grid": DenseGrid, "point_sweep": PointSweep}
