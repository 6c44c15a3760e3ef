"""Exit wavefields over (theta, rho) grids: polarization, phase, winding.

Maps are stored on the fixed lab axes (rocking theta ~ k_y/|k0|, tilting
rho ~ k_z/|k0|).  Phase maps can be re-expressed in a beam's own transverse
frame: for an exit beam whose mean propagation has negative x component
(backscattering reflection) the right-handed transverse frame flips the
k_z axis, which is what makes the reflected and transmitted vortex windings
come out with opposite signs on otherwise identical azimuthal structure.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import CONSTANTS, PhysicalConstants
from .crystal import CrystalModel, SIGMA
from .dispersion import (
    DiffractionGeometry,
    exit_amplitude_maps,
    exit_coherence_maps,
)

log = logging.getLogger(__name__)

REFLECTED = "reflected"
TRANSMITTED = "transmitted"

_ROOT_TOL = 1e-12  # largest accepted backward error of a secular root


class WaveGridError(ValueError):
    pass


@dataclass
class WaveGrid:
    """Exit fields over a rectangular (theta, rho) grid.

    A grid holds either the pure exit spinors psi0/psiH (grid_scan) or
    their thickness-averaged spin coherences rho0/rhoH = <psi psi^dag>
    (coherence_scan), in the lab spin basis; a pure grid is the rank-1
    case.  Only the methods below look at which of the two a grid holds,
    so every analysis accepts either kind.
    """

    theta: np.ndarray            # (n_t,), rad, strictly increasing uniform
    rho: np.ndarray              # (n_r,), rad
    R: np.ndarray                # (n_t, n_r) flux-weighted reflectivity
    T: np.ndarray                # (n_t, n_r) transmission
    geometry: DiffractionGeometry
    u0: np.ndarray               # incident spinor
    crystal_id: str
    physical: np.ndarray         # (n_t, n_r) beam-enters-crystal mask
    meta: dict = field(default_factory=dict)
    psi0: np.ndarray = None      # (n_t, n_r, 2) transmitted spinor envelope
    psiH: np.ndarray = None      # (n_t, n_r, 2) diffracted spinor envelope
    rho0: np.ndarray = None      # (n_t, n_r, 2, 2) transmitted coherence
    rhoH: np.ndarray = None      # (n_t, n_r, 2, 2) diffracted coherence

    def _state(self, beam: str):
        """(spinor or coherence map of one beam, whether it is pure)."""
        if beam not in (TRANSMITTED, REFLECTED):
            raise WaveGridError(f"unknown beam {beam!r}")
        pure = self.psi0 is not None
        if beam == TRANSMITTED:
            return (self.psi0 if pure else self.rho0), pure
        return (self.psiH if pure else self.rhoH), pure

    def _require_pure(self, what: str):
        if self.psi0 is None:
            raise WaveGridError(f"{what} needs exit spinors; a thickness "
                                "ensemble has no common phase")

    def _references(self):
        """The normalised incident spinor and its orthogonal complement."""
        u0 = self.u0 / np.linalg.norm(self.u0)
        return u0, _orthogonal_spinor(u0)

    def beam_direction(self, beam: str) -> np.ndarray:
        v = np.asarray(self.geometry.k0, float)
        if beam != TRANSMITTED:
            v = v + np.asarray(self.geometry.H, float)
        return v / np.linalg.norm(v)

    def spin_component(self, beam: str, flipped: bool) -> np.ndarray:
        """Projection on the incident spinor (non-flipped) or its orthogonal
        complement (flipped), as a complex map; pure grids only."""
        self._require_pure("spin_component")
        psi, _ = self._state(beam)
        u0, orth = self._references()
        return psi @ np.conj(orth if flipped else u0)

    def component_intensity(self, beam: str, flipped: bool) -> np.ndarray:
        """<|psi_flip|^2> or <|psi_nonflip|^2>."""
        state, pure = self._state(beam)
        if pure:
            return np.abs(self.spin_component(beam, flipped)) ** 2
        u0, orth = self._references()
        ref = orth if flipped else u0
        return np.real(np.einsum("i,...ij,j->...", np.conj(ref), state, ref))

    def flip_coherence(self, beam: str) -> np.ndarray:
        """<conj(psi_nonflip) psi_flip>: the spin-orbit interference map,
        in which every phase common to both components cancels."""
        state, pure = self._state(beam)
        if pure:
            return (np.conj(self.spin_component(beam, False))
                    * self.spin_component(beam, True))
        u0, orth = self._references()
        return np.einsum("i,...ij,j->...", np.conj(orth), state, u0)

    def sigma_expectations(self, beam: str):
        """Numerators <sigma_i> (leading axis i) and the intensity: from
        <psi|sigma_i|psi> and |psi|^2, or tr(sigma_i rho) and tr(rho)."""
        state, pure = self._state(beam)
        if pure:
            num = np.einsum("...i,kij,...j->k...", np.conj(state), SIGMA, state)
            return np.real(num), np.sum(np.abs(state) ** 2, axis=-1)
        num = np.real(np.einsum("kij,...ji->k...", SIGMA, state))
        return num, np.real(np.trace(state, axis1=-2, axis2=-1))

    def spin_field(self, beam: str, what: str) -> np.ndarray:
        """Complex map the OAM analyses resample.

        what = "interference": flip_coherence.  On a pure grid "flipped"
        and "non-flipped" are the spin components themselves.  An ensemble
        has no common phase, so there "flipped" is referenced to the
        non-flipped phase, <conj(psi_nonflip) psi_flip>/sqrt(<|psi_nonflip|^2>),
        and "non-flipped" is sqrt(<|psi_nonflip|^2>), real by construction.
        """
        if what == "interference":
            return self.flip_coherence(beam)
        _, pure = self._state(beam)
        if pure:
            return self.spin_component(beam, what == "flipped")
        nf = self.component_intensity(beam, flipped=False)
        if what == "flipped":
            # floor the reference intensity so near-empty regions cannot blow up
            floor = 1e-9 * float(np.nanmax(nf))
            return self.flip_coherence(beam) / np.sqrt(np.maximum(nf, floor))
        return np.sqrt(nf).astype(complex)


def _orthogonal_spinor(u: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(u[1]), np.conj(u[0])])


def _axes_ok(axis: np.ndarray) -> bool:
    if axis.size < 2:
        return True
    d = np.diff(axis)
    slack = 1e-12 * np.max(np.abs(d)) + 8.0 * np.finfo(float).eps * np.max(np.abs(axis))
    return bool(np.all(d > 0) and np.ptp(d) <= slack)


def _axes(geom: DiffractionGeometry, theta_axis, rho_axis):
    """Checked copies of the axes, with every theta row that puts k exactly
    in the surface (g0 = 0) nudged by 1e-12 rad."""
    th = np.asarray(theta_axis, float).copy()
    rh = np.asarray(rho_axis, float).copy()
    if not (_axes_ok(th) and _axes_ok(rh)):
        raise WaveGridError("axes must be strictly increasing and uniform")
    g0 = (geom.incident(theta=th[:, None], rho=rh[None, :])
          @ np.asarray(geom.n, float))
    th[np.any(np.abs(g0) < 1e-15 * geom.k_mag, axis=1)] += 1e-12
    return th, rh


def grid_scan(geom: DiffractionGeometry, crystal: CrystalModel, u0,
              theta_axis, rho_axis,
              constants: PhysicalConstants = CONSTANTS) -> WaveGrid:
    """Dense exit-field evaluation over the tensor grid theta x rho.

    Deterministic and order-independent (single vectorised evaluation).
    Exactly grazing axis values are nudged by 1e-12 rad; points where the
    boundary system is singular are retried with a nudged theta and, if
    still unsolvable, stored as NaN and logged, never dropped.  Every
    secular root must have a backward error of at most 1e-12, else
    WaveGridError is raised.
    """
    th, rh = _axes(geom, theta_axis, rho_axis)
    res = exit_amplitude_maps(geom, crystal, u0, th[:, None], rh[None, :],
                              constants)
    psi0, psiH = res["psi0"], res["psiH"]

    finite = np.isfinite(psi0).all(axis=-1) & np.isfinite(psiH).all(axis=-1)
    if not finite.all():
        ii, jj = np.nonzero(~finite)
        log.warning("grid_scan: %d singular points, retrying with nudge",
                    ii.size)
        retry = exit_amplitude_maps(
            geom, crystal, u0, th[ii] * (1.0 + 1e-12) + 1e-15, rh[jj],
            constants)
        for name in ("psi0", "psiH"):
            res[name][ii, jj] = retry[name]
        res["R"][ii, jj] = retry["R"]
        res["T"][ii, jj] = retry["T"]
        still = ~(np.isfinite(res["psi0"]).all(-1) & np.isfinite(res["psiH"]).all(-1))
        if still.any():
            log.warning("grid_scan: %d points remain NaN after nudge",
                        int(still.sum()))

    worst = float(np.max(res["backward_error"]))
    if worst > _ROOT_TOL:
        raise WaveGridError(f"secular root backward error {worst:.2e} "
                            f"exceeds {_ROOT_TOL:.0e}")

    return _grid(geom, crystal, u0, th, rh, res, psi0=res["psi0"],
                 psiH=res["psiH"])


def _grid(geom, crystal, u0, th, rh, res, **fields) -> WaveGrid:
    meta = {key: res[key] for key in ("w", "alpha0", "energy_meV", "v0",
                                      "thicknesses") if key in res}
    return WaveGrid(theta=th, rho=rh, R=res["R"], T=res["T"], geometry=geom,
                    u0=np.asarray(u0, complex), crystal_id=crystal.material_id,
                    physical=res["g0"] > 0.0, meta=meta, **fields)


def coherence_scan(geom: DiffractionGeometry, crystal: CrystalModel, u0,
                   theta_axis, rho_axis, n_avg: int = 32,
                   span_A: float | None = None,
                   constants: PhysicalConstants = CONSTANTS) -> WaveGrid:
    """Thickness-ensemble companion of grid_scan (see exit_coherence_maps):
    a grid holding rho0/rhoH instead of psi0/psiH, on axes checked and
    nudged off grazing incidence as grid_scan's are."""
    th, rh = _axes(geom, theta_axis, rho_axis)
    res = exit_coherence_maps(geom, crystal, u0, th[:, None], rh[None, :],
                              n_avg=n_avg, span_A=span_A, constants=constants)
    return _grid(geom, crystal, u0, th, rh, res, rho0=res["rho0"],
                 rhoH=res["rhoH"])


# ---------------------------------------------------------------------------
# Polarization
# ---------------------------------------------------------------------------

@dataclass
class PolarizationCurve:
    abscissa: np.ndarray
    axis_label: str      # "theta_rad" | "rho_rad"
    Px: np.ndarray
    Py: np.ndarray
    Pz: np.ndarray
    weight: np.ndarray   # flux per abscissa point (R or T marginal)
    mask: np.ndarray     # True where P is defined


def polarization_map(grid: WaveGrid, beam: str):
    """Pointwise P = <sigma>/intensity over the grid; NaN where empty."""
    num, den = grid.sigma_expectations(beam)
    ok = den > 1e-300
    P = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
    return {"Px": P[0], "Py": P[1], "Pz": P[2], "intensity": den, "mask": ok}


def polarization_curve(grid: WaveGrid, beam: str, axis: str = "theta"
                       ) -> PolarizationCurve:
    """P along one axis, flux-weighted marginal over the other axis."""
    num, den = grid.sigma_expectations(beam)
    if axis == "theta":
        red, absc = 1, grid.theta
    elif axis == "rho":
        red, absc = 0, grid.rho
    else:
        raise WaveGridError("axis must be 'theta' or 'rho'")
    num_m = num.sum(axis=red + 1)
    den_m = den.sum(axis=red)
    ok = den_m > 1e-300
    P = np.where(ok, num_m / np.where(ok, den_m, 1.0), np.nan)
    return PolarizationCurve(abscissa=absc, axis_label=f"{axis}_rad",
                             Px=P[0], Py=P[1], Pz=P[2],
                             weight=den_m, mask=ok)


# ---------------------------------------------------------------------------
# Phase maps and winding numbers
# ---------------------------------------------------------------------------

def phase_map(grid: WaveGrid, component: str, beam: str,
              frame: str = "beam", floor: float = 1e-300):
    """Wrapped phase of the flipped/non-flipped spin component.

    frame="beam" mirrors the rho axis for beams propagating against the
    nominal beam direction, so the map is expressed in the exit beam's own
    right-handed transverse frame.  frame="lab" keeps grid axes as stored.
    Amplitudes below ``floor`` are masked.
    """
    if component not in ("flipped", "non-flipped"):
        raise WaveGridError("component must be 'flipped' or 'non-flipped'")
    amp = grid.spin_component(beam, flipped=(component == "flipped"))
    mirror = False
    if frame == "beam":
        mirror = grid.beam_direction(beam)[0] < 0.0
    elif frame != "lab":
        raise WaveGridError("frame must be 'beam' or 'lab'")
    if mirror:
        amp = amp[:, ::-1]
    mask = np.abs(amp) > floor
    phase = np.where(mask, np.angle(amp), np.nan)
    return {"phase": phase, "mask": mask, "mirrored": mirror,
            "theta": grid.theta, "rho": (-grid.rho[::-1] if mirror else grid.rho)}


def rectangle_loop(shape: tuple[int, int], margin: int) -> list[tuple[int, int]]:
    """Closed counter-clockwise rectangular index loop ``margin`` cells in
    from the array edge."""
    nt, nr = shape
    i0, i1 = margin, nt - 1 - margin
    j0, j1 = margin, nr - 1 - margin
    if i0 >= i1 or j0 >= j1:
        raise WaveGridError("margin leaves no loop")
    loop = [(i, j0) for i in range(i0, i1)]
    loop += [(i1, j) for j in range(j0, j1)]
    loop += [(i, j1) for i in range(i1, i0, -1)]
    loop += [(i0, j) for j in range(j1, j0, -1)]
    loop.append((i0, j0))
    return loop


def winding_number(phase: np.ndarray, loop, mask: np.ndarray = None) -> int:
    """Net phase circulation (in units of 2 pi) around a closed index loop.

    Uses wrapped phase differences, so no unwrapping is ever needed; the
    result is exact as long as neighbouring loop samples differ by less
    than pi.  Crossing a masked point is an error.
    """
    loop = list(loop)
    if loop[0] != loop[-1]:
        raise WaveGridError("loop must be closed (first == last)")
    idx = tuple(np.array(loop).T)
    vals = phase[idx]
    if mask is not None and not np.all(mask[idx]):
        raise WaveGridError("loop crosses masked region")
    if np.any(~np.isfinite(vals)):
        raise WaveGridError("loop crosses undefined phase")
    d = np.diff(vals)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(d)) / (2.0 * np.pi)
    n = int(np.rint(total))
    if abs(total - n) > 0.25:
        raise WaveGridError(f"non-integer circulation {total:.3f}; "
                            "loop undersampled or crossing a vortex core")
    return n


# ---------------------------------------------------------------------------
# Grid export: long-form CSV and a compact binary format
# ---------------------------------------------------------------------------

_MAGIC = b"SODIFFG1"
_HDR = struct.Struct("<8sII d d d d I 12x")  # 64 bytes total


def write_binary(grid: WaveGrid, path):
    """Compact grid dump: 64-byte header (magic, dims, axis ranges, dtype
    code 0 = complex128) followed by psi0, psiH, R, T in C order."""
    grid._require_pure("write_binary")
    nt, nr = grid.theta.size, grid.rho.size
    header = _HDR.pack(_MAGIC, nt, nr, float(grid.theta[0]), float(grid.theta[-1]),
                       float(grid.rho[0]), float(grid.rho[-1]), 0)
    assert len(header) == 64
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.psi0, dtype=np.complex128).tobytes())
        fh.write(np.ascontiguousarray(grid.psiH, dtype=np.complex128).tobytes())
        fh.write(np.ascontiguousarray(grid.R, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(grid.T, dtype=np.float64).tobytes())


def read_binary(path) -> dict:
    with open(path, "rb") as fh:
        magic, nt, nr, t0, t1, r0, r1, dtype_code = _HDR.unpack(fh.read(64))
        if magic != _MAGIC:
            raise WaveGridError("not a sodiff grid file")
        if dtype_code != 0:
            raise WaveGridError(f"unknown dtype code {dtype_code}")
        def arr(count, dt):
            return np.frombuffer(fh.read(count * np.dtype(dt).itemsize), dt)
        psi0 = arr(nt * nr * 2, np.complex128).reshape(nt, nr, 2)
        psiH = arr(nt * nr * 2, np.complex128).reshape(nt, nr, 2)
        R = arr(nt * nr, np.float64).reshape(nt, nr)
        T = arr(nt * nr, np.float64).reshape(nt, nr)
    return {"theta": np.linspace(t0, t1, nt), "rho": np.linspace(r0, r1, nr),
            "psi0": psi0, "psiH": psiH, "R": R, "T": T}


def write_csv(path, columns: dict, precision: int = 9,
              header_lines: tuple[str, ...] = ()):
    """CSV of equal-size columns (flattened in C order) below '# ' header
    lines, one row per element; written to a temporary file and renamed
    into place."""
    path = Path(path)
    fmt = f"%.{precision}g"
    tmp = path.with_suffix(path.suffix + ".tmp")
    arrays = [np.asarray(col).reshape(-1) for col in columns.values()]
    with open(tmp, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(fmt % v for v in row) + "\n")
    os.replace(tmp, path)
    return path


def write_long_csv(grid: WaveGrid, path, precision: int = 9,
                   header_lines: tuple[str, ...] = ()):
    """Long-form CSV: one row per grid point with both beams' spinors."""
    grid._require_pure("write_long_csv")
    TH, RH = np.meshgrid(grid.theta, grid.rho, indexing="ij")
    columns = {"theta_rad": TH, "rho_rad": RH}
    for beam, psi in (("psi0", grid.psi0), ("psiH", grid.psiH)):
        for i, spin in enumerate(("up", "dn")):
            columns[f"re_{beam}_{spin}"] = psi[..., i].real
            columns[f"im_{beam}_{spin}"] = psi[..., i].imag
    columns["R"], columns["T"] = grid.R, grid.T
    return write_csv(path, columns, precision, header_lines)
