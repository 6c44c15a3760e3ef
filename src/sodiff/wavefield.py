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
    """Dense exit spinor fields over a rectangular (theta, rho) grid."""

    theta: np.ndarray            # (n_t,), rad, strictly increasing uniform
    rho: np.ndarray              # (n_r,), rad
    psi0: np.ndarray             # (n_t, n_r, 2) transmitted spinor envelope
    psiH: np.ndarray             # (n_t, n_r, 2) diffracted spinor envelope
    R: np.ndarray                # (n_t, n_r) flux-weighted reflectivity
    T: np.ndarray                # (n_t, n_r) transmission
    geometry: DiffractionGeometry
    u0: np.ndarray               # incident spinor
    crystal_id: str
    physical: np.ndarray = None  # (n_t, n_r) beam-enters-crystal mask
    meta: dict = field(default_factory=dict)

    def spinor(self, beam: str) -> np.ndarray:
        if beam == TRANSMITTED:
            return self.psi0
        if beam == REFLECTED:
            return self.psiH
        raise WaveGridError(f"unknown beam {beam!r}")

    def beam_direction(self, beam: str) -> np.ndarray:
        k0 = np.asarray(self.geometry.k0, float)
        if beam == TRANSMITTED:
            v = k0
        else:
            v = k0 + np.asarray(self.geometry.H, float)
        return v / np.linalg.norm(v)

    def spin_component(self, beam: str, flipped: bool) -> np.ndarray:
        """Projection on the incident spinor (non-flipped) or its orthogonal
        complement (flipped), as a complex map."""
        u0 = self.u0 / np.linalg.norm(self.u0)
        ref = _orthogonal_spinor(u0) if flipped else u0
        return self.spinor(beam) @ np.conj(ref)


def _orthogonal_spinor(u: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(u[1]), np.conj(u[0])])


def _axes_ok(axis: np.ndarray) -> bool:
    if axis.size < 2:
        return True
    d = np.diff(axis)
    slack = 1e-12 * np.max(np.abs(d)) + 8.0 * np.finfo(float).eps * np.max(np.abs(axis))
    return bool(np.all(d > 0) and np.ptp(d) <= slack)


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
    th = np.asarray(theta_axis, float).copy()
    rh = np.asarray(rho_axis, float).copy()
    if not (_axes_ok(th) and _axes_ok(rh)):
        raise WaveGridError("axes must be strictly increasing and uniform")

    n = np.asarray(geom.n, float)
    k_mag = geom.k_mag

    def g0_of(theta_vals, rho_vals):
        k = geom.incident(theta=theta_vals[:, None], rho=rho_vals[None, :])
        return k @ n

    # nudge axis values that put k exactly in the surface (g0 = 0)
    g0 = g0_of(th, rh)
    bad_rows = np.any(np.abs(g0) < 1e-15 * k_mag, axis=1)
    th[bad_rows] += 1e-12

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

    grid = WaveGrid(theta=th, rho=rh, psi0=res["psi0"], psiH=res["psiH"],
                    R=res["R"], T=res["T"], geometry=geom,
                    u0=np.asarray(u0, complex), crystal_id=crystal.material_id,
                    physical=res["g0"] > 0.0,
                    meta={"w": res["w"], "alpha0": res["alpha0"],
                          "energy_meV": res["energy_meV"], "v0": res["v0"]})
    return grid


@dataclass
class CoherenceGrid:
    """Thickness-averaged spin coherence matrices over a (theta, rho) grid.

    The element pattern is rho[a, b] = <psi_a conj(psi_b)> per beam, in the
    lab spin basis.  Spin-component coherences against any reference spinor
    follow by sandwiching.
    """

    theta: np.ndarray
    rho_axis: np.ndarray
    rho0: np.ndarray            # (n_t, n_r, 2, 2)
    rhoH: np.ndarray
    R: np.ndarray
    T: np.ndarray
    geometry: DiffractionGeometry
    u0: np.ndarray
    crystal_id: str
    physical: np.ndarray
    meta: dict = field(default_factory=dict)

    def matrix(self, beam: str) -> np.ndarray:
        if beam == TRANSMITTED:
            return self.rho0
        if beam == REFLECTED:
            return self.rhoH
        raise WaveGridError(f"unknown beam {beam!r}")

    def beam_direction(self, beam: str) -> np.ndarray:
        k0 = np.asarray(self.geometry.k0, float)
        v = k0 if beam == TRANSMITTED else k0 + np.asarray(self.geometry.H)
        return v / np.linalg.norm(v)

    def component_intensity(self, beam: str, flipped: bool) -> np.ndarray:
        u0 = self.u0 / np.linalg.norm(self.u0)
        ref = _orthogonal_spinor(u0) if flipped else u0
        m = self.matrix(beam)
        return np.real(np.einsum("i,...ij,j->...", np.conj(ref), m, ref))

    def flip_coherence(self, beam: str) -> np.ndarray:
        """<psi_flip conj(psi_nonflip)>: the spin-orbit interference map,
        with every thickness-unresolvable common phase averaged out."""
        u0 = self.u0 / np.linalg.norm(self.u0)
        orth = _orthogonal_spinor(u0)
        m = self.matrix(beam)
        return np.einsum("i,...ij,j->...", np.conj(orth), m, u0)


def coherence_scan(geom: DiffractionGeometry, crystal: CrystalModel, u0,
                   theta_axis, rho_axis, n_avg: int = 32,
                   span_A: float | None = None,
                   constants: PhysicalConstants = CONSTANTS) -> CoherenceGrid:
    """Thickness-ensemble companion of grid_scan (see exit_coherence_maps)."""
    th = np.asarray(theta_axis, float)
    rh = np.asarray(rho_axis, float)
    if not (_axes_ok(th) and _axes_ok(rh)):
        raise WaveGridError("axes must be strictly increasing and uniform")
    res = exit_coherence_maps(geom, crystal, u0, th[:, None], rh[None, :],
                              n_avg=n_avg, span_A=span_A, constants=constants)
    return CoherenceGrid(theta=th, rho_axis=rh, rho0=res["rho0"],
                         rhoH=res["rhoH"], R=res["R"], T=res["T"],
                         geometry=geom, u0=np.asarray(u0, complex),
                         crystal_id=crystal.material_id,
                         physical=res["g0"] > 0.0,
                         meta={"w": res["w"], "alpha0": res["alpha0"],
                               "energy_meV": res["energy_meV"],
                               "v0": res["v0"],
                               "thicknesses": res["thicknesses"]})


def coherence_polarization_map(grid: CoherenceGrid, beam: str):
    """Pointwise P_i = tr(sigma_i rho)/tr(rho) of the averaged mixture."""
    m = grid.matrix(beam)
    den = np.real(np.trace(m, axis1=-2, axis2=-1))
    num = np.real(np.einsum("kij,...ji->k...", SIGMA, m))
    ok = den > 1e-300
    P = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
    return {"Px": P[0], "Py": P[1], "Pz": P[2], "intensity": den, "mask": ok}


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


def _sigma_expectations(psi: np.ndarray):
    """Numerators <psi|sigma_i|psi> and the intensity <psi|psi>."""
    num = np.real(np.einsum("...i,kij,...j->k...", np.conj(psi), SIGMA, psi))
    den = np.sum(np.abs(psi) ** 2, axis=-1)
    return num, den


def polarization_map(grid: WaveGrid, beam: str):
    """Pointwise P = <sigma>/intensity over the grid; NaN where empty."""
    num, den = _sigma_expectations(grid.spinor(beam))
    ok = den > 1e-300
    P = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
    return {"Px": P[0], "Py": P[1], "Pz": P[2], "intensity": den, "mask": ok}


def polarization_curve(grid: WaveGrid, beam: str, axis: str = "theta"
                       ) -> PolarizationCurve:
    """P along one axis, flux-weighted marginal over the other axis."""
    num, den = _sigma_expectations(grid.spinor(beam))
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
    TH, RH = np.meshgrid(grid.theta, grid.rho, indexing="ij")
    columns = {"theta_rad": TH, "rho_rad": RH}
    for beam, psi in (("psi0", grid.psi0), ("psiH", grid.psiH)):
        for i, spin in enumerate(("up", "dn")):
            columns[f"re_{beam}_{spin}"] = psi[..., i].real
            columns[f"im_{beam}_{spin}"] = psi[..., i].imag
    columns["R"], columns["T"] = grid.R, grid.T
    return write_csv(path, columns, precision, header_lines)
