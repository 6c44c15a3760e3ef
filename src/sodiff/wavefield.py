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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dispersion as dp
from .crystal import CrystalModel, SIGMA
from .dispersion import DiffractionGeometry, exit_amplitude_maps

log = logging.getLogger(__name__)

REFLECTED = "reflected"
TRANSMITTED = "transmitted"

_ROOT_TOL = 1e-12  # largest accepted backward error of a secular root
_TILE_POINTS = 1 << 13  # grid points per theta-row tile of a scan


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
    physical: np.ndarray         # (n_t, n_r) beam-enters-crystal mask
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

    def sigma_expectations(self, beam: str, rows=slice(None)):
        """Numerators <sigma_i> (leading axis i) and the intensity of the
        theta rows `rows`: from <psi|sigma_i|psi> and |psi|^2, or
        tr(sigma_i rho) and tr(rho)."""
        state, pure = self._state(beam)
        state = state[rows]
        if pure:
            num = np.einsum("...i,kij,...j->k...", np.conj(state), SIGMA, state)
            a = np.abs(state) ** 2
            return np.real(num), a[..., 0] + a[..., 1]
        num = np.real(np.einsum("kij,...ji->k...", SIGMA, state))
        return num, state[..., 0, 0].real + state[..., 1, 1].real

    def spin_field(self, beam: str, what: str) -> np.ndarray:
        """Complex map the OAM analyses resample.

        what = "interference": flip_coherence.  "flipped" is referenced to
        the non-flipped phase, <conj(psi_nonflip) psi_flip>/sqrt(<|psi_nonflip|^2>),
        and "non-flipped" is sqrt(<|psi_nonflip|^2>), real by construction
        (the intensity floored at 0).  Neither depends on a phase common to
        both components, so a pure grid and an ensemble of zero spread give
        the same fields.
        """
        if what == "interference":
            return self.flip_coherence(beam)
        nf = self.component_intensity(beam, flipped=False)
        if what == "flipped":
            # floor the reference intensity so near-empty regions cannot blow up
            floor = 1e-9 * float(np.nanmax(nf))
            return self.flip_coherence(beam) / np.sqrt(np.maximum(nf, floor))
        return np.sqrt(np.maximum(nf, 0.0)).astype(complex)


def _orthogonal_spinor(u: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(u[1]), np.conj(u[0])])


def _axes_ok(axis: np.ndarray) -> bool:
    if axis.size < 2:
        return True
    d = np.diff(axis)
    slack = 1e-12 * np.max(np.abs(d)) + 8.0 * np.finfo(float).eps * np.max(np.abs(axis))
    return bool(np.all(d > 0) and np.ptp(d) <= slack)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _folds(geom: DiffractionGeometry, th: np.ndarray, rh: np.ndarray) -> bool:
    """Whether every theta <-> rho mirror pair of the grid has one channel
    problem, bit for bit.

    With H and n exactly on the lab x axis, k(rho, theta) is k(theta, rho)
    with k_y and k_z swapped (see dispersion._wavevector), so the
    kinematics, w and everything solved from them are equal at the two
    points; only the spin axis u_hat differs.  The axes must be equal and
    keep no grazing nudge: g0 = n_x |k0|/norm falls as theta^2 + rho^2
    grows, so each row's smallest |g0| lies in an end column of rho.
    """
    off_axis = np.concatenate((np.asarray(geom.H, float)[1:],
                               np.asarray(geom.n, float)[1:]))
    if off_axis.any() or not np.array_equal(th, rh):
        return False
    _, g0, _, _ = geom.kinematics(th[:, None], rh[[0, -1]])
    return not np.any(np.abs(g0) < 1e-15 * geom.k_mag)


def _fold_bands(n: int, threads: int) -> list[tuple[int, int]]:
    """Row bands [i0, i1) of an n x n grid that share its representatives
    i <= j about equally: as many bands as the smallest multiple of
    threads that gives shares of at most _TILE_POINTS, each band ending on
    the row that completes its share (so it may exceed the share by part
    of a row)."""
    done_by_row = np.cumsum(np.arange(n, 0, -1))
    total = int(done_by_row[-1])
    count = -(-total // _TILE_POINTS)
    count += -count % threads
    ends = np.searchsorted(done_by_row, total * np.arange(1, count + 1) / count) + 1
    return [(int(i0), int(i1)) for i0, i1 in zip((0, *ends), ends) if i1 > i0]


def _scan(geom: DiffractionGeometry, u0, theta_axis, rho_axis, solve,
          assemble, state: dict, repair, report):
    """Tiled evaluation shared by grid_scan and coherence_scan.

    Checks copies of the axes and allocates the full-grid arrays up front:
    the ``state`` arrays (name -> trailing shape), R, T and the physical
    mask.  A tile calls solve(theta, rho) for the channel solve of its
    points (dispersion._solve_*), assemble(solved, amp0) for their fields
    at the channel projections amp0 of u0 (dispersion._assemble_*) and
    repair(fields, theta, rho) for a statistic; it then copies the kept
    fields into the grid.  Once every tile is done, report(statistics)
    logs, and a secular root with a backward error above _ROOT_TOL raises
    WaveGridError.

    Where _folds holds, a tile is a band of theta rows holding its share
    of the representatives (i, j), i <= j (see _fold_bands): it solves
    them once and assembles each at (i, j) and at its image (j, i), with
    the image's own spin axis.  Elsewhere a tile is at most _TILE_POINTS
    points of whole
    theta rows (at least one row), and it first nudges by 1e-12 rad every
    theta row that puts k exactly in the surface (g0 = 0).  The engine's
    values do not depend on the array size (see
    dispersion._transfer_factors), so the grid equals one whole-grid call
    bit for bit either way.  The images of a band's representatives lie in
    its own columns below the diagonal, so no two tiles write one entry.
    With more than one tile, the tiles are shared among one thread per CPU
    in the process's affinity mask (the calling thread and a pool): numpy
    releases the GIL.
    """
    th = np.asarray(theta_axis, float).copy()
    rh = np.asarray(rho_axis, float).copy()
    if not (th.size and rh.size):
        raise WaveGridError("axes must not be empty")
    if not (_axes_ok(th) and _axes_ok(rh)):
        raise WaveGridError("axes must be strictly increasing and uniform")
    n_t, n_r = th.size, rh.size
    kept = {name: np.empty((n_t, n_r) + tail, complex)
            for name, tail in state.items()}
    kept.update((name, np.empty((n_t, n_r))) for name in ("R", "T"))
    physical = np.empty((n_t, n_r), bool)
    u0 = np.asarray(u0, complex)
    cpus, rows = _cpus(), max(1, _TILE_POINTS // n_r)

    def fields(sol, u_hat):
        res = assemble(sol, dp._channel_projections(u_hat, u0))
        return dp._point(sol, {**res, "g0": sol["g0"]})

    def store(res, t, r, put):
        """Repair the fields res of the points (t, r) and put each kept
        one into its grid array."""
        stat = repair(res, t, r)
        res = {**res, "physical": res["g0"] > 0.0}
        for name, out in {**kept, "physical": physical}.items():
            put(out, res[name])
        return stat

    def worst(sol):
        return float(np.max(sol["backward_error"]))

    def row_tile(i0):
        i1 = min(i0 + rows, n_t)
        t = th[i0:i1]  # a view: the nudge lands in th
        _, g0, _, _ = geom.kinematics(t[:, None], rh[None, :])
        t[np.any(np.abs(g0) < 1e-15 * geom.k_mag, axis=1)] += 1e-12
        t, r = t[:, None], rh[None, :]
        sol = solve(t, r)

        def put(out, v):
            out[i0:i1] = v

        return worst(sol), [store(fields(sol, sol["u_hat"]), t, r, put)]

    def fold_tile(band):
        # representatives of rows i0 <= i < i1: the d diagonal points, the
        # triangle i < j < i1, then the block j >= i1 row by row, which
        # with its image block is stored by slices
        i0, i1 = band
        d, cols = i1 - i0, n_r - i1
        ti, tj = np.nonzero(np.arange(d)[:, None] < np.arange(d))
        ti = np.concatenate((np.arange(d), ti)) + i0
        tj = np.concatenate((np.arange(d), tj)) + i0
        tri = ti.size
        t = np.concatenate((th[ti], np.repeat(th[i0:i1], cols)))
        r = np.concatenate((rh[tj], np.tile(rh[i1:], d)))
        sol = solve(t, r)

        def block(v):   # the last d * cols entries, as (d, cols, ...)
            return v[len(v) - d * cols:].reshape((d, cols) + v.shape[1:])

        def put(out, v):
            out[ti, tj] = v[:tri]
            out[i0:i1, i1:] = block(v)

        def put_image(out, v):   # v leaves out the diagonal
            out[tj[d:], ti[d:]] = v[:tri - d]
            out[i1:, i0:i1] = block(v).swapaxes(0, 1)

        stats = [store(fields(sol, sol["u_hat"]), t, r, put)]
        if t.size > d:   # the image (j, i) lies at theta = r, rho = t
            image = fields(sol, dp._spin_axis(geom, r, t))
            image = {name: v[d:] for name, v in image.items()}
            stats.append(store(image, r[d:], t[d:], put_image))
        return worst(sol), stats

    if _folds(geom, th, rh):
        tile, tiles = fold_tile, _fold_bands(n_t, cpus)
    else:
        tile, tiles = row_tile, range(0, n_t, rows)

    # every k-th tile to each of `workers` threads; the calling thread is
    # one of them, since each thread keeps the memory its tiles freed in its
    # own malloc arena, so one pool thread fewer lowers the peak RSS
    workers = min(cpus, len(tiles))
    shares = [tiles[k::workers] for k in range(workers)]

    def run(share):
        return [tile(t) for t in share]

    if workers > 1:
        with ThreadPoolExecutor(workers - 1) as pool:
            others = pool.map(run, shares[1:])
            results = [r for share in [run(shares[0]), *others] for r in share]
    else:
        results = run(tiles)
    report([stat for _, stats in results for stat in stats])
    largest = max(w for w, _ in results)
    if largest > _ROOT_TOL:
        raise WaveGridError(f"secular root backward error {largest:.2e} "
                            f"exceeds {_ROOT_TOL:.0e}")
    return WaveGrid(theta=th, rho=rh, geometry=geom, u0=u0,
                    physical=physical, **kept)


def _nonfinite(res, names) -> np.ndarray:
    """Mask of the points where a named field is not finite."""
    bad = np.zeros(res["R"].shape, bool)
    for name in names:
        a = res[name]
        for entry in np.ndindex(a.shape[bad.ndim:]):
            bad |= ~np.isfinite(a[(...,) + entry])
    return bad


def grid_scan(geom: DiffractionGeometry, crystal: CrystalModel, u0,
              theta_axis, rho_axis) -> WaveGrid:
    """Dense exit-field evaluation over the tensor grid theta x rho.

    Deterministic and independent of evaluation order: the grid is solved
    in tiles, possibly on several threads, and equals one whole-grid
    exit_amplitude_maps call bit for bit; only psi0, psiH, R, T and the
    physical mask are kept.  Where H and n lie on the lab x axis (Bragg
    backscattering) and theta and rho are the same axis, each theta <-> rho
    mirror pair is solved once and assembled at both points, with the same
    bits.  Exactly grazing axis values are nudged by 1e-12 rad; points
    where the boundary system is singular are retried one by one with a
    nudged theta and, if still unsolvable, stored as NaN, never dropped
    (one log warning per scan).  Every secular root must have a backward
    error of at most 1e-12, else WaveGridError is raised once the whole
    grid is done.
    """
    def repair(res, t, r):
        bad = _nonfinite(res, ("psi0", "psiH"))
        singular = int(bad.sum())
        if not singular:
            return 0, 0
        at = np.nonzero(bad)
        t, r = (np.broadcast_to(a, bad.shape)[at] for a in (t, r))
        retry = exit_amplitude_maps(geom, crystal, u0,
                                    t * (1.0 + 1e-12) + 1e-15, r)
        for name in ("psi0", "psiH", "R", "T"):
            res[name][at] = retry[name]
        return singular, int(_nonfinite(res, ("psi0", "psiH")).sum())

    def report(stats):
        singular, nan = (sum(s) for s in zip(*stats))
        if singular:
            log.warning("grid_scan: %d singular points retried with a nudged "
                        "theta, %d remain NaN", singular, nan)

    return _scan(geom, u0, theta_axis, rho_axis,
                 lambda t, r: dp._solve_amplitudes(geom, crystal, t, r),
                 dp._assemble_amplitudes, {"psi0": (2,), "psiH": (2,)},
                 repair, report)


def coherence_scan(geom: DiffractionGeometry, crystal: CrystalModel, u0,
                   theta_axis, rho_axis, span_A: float | None = None
                   ) -> WaveGrid:
    """Thickness-ensemble companion of grid_scan (see exit_coherence_maps):
    a grid holding rho0/rhoH instead of psi0/psiH, on axes checked and
    nudged off grazing incidence as grid_scan's are, solved in the same
    tiles with the same theta <-> rho fold, and equal to one whole-grid
    exit_coherence_maps call bit for bit.  Points left NaN are logged once
    per scan, and a secular root is checked as in grid_scan."""
    def report(nan):
        if sum(nan):
            log.warning("coherence_scan: %d points are NaN", sum(nan))

    return _scan(geom, u0, theta_axis, rho_axis,
                 lambda t, r: dp._solve_coherences(geom, crystal, t, r, span_A),
                 dp._assemble_coherences, {"rho0": (2, 2), "rhoH": (2, 2)},
                 lambda res, t, r: int(_nonfinite(res, ("rho0", "rhoH")).sum()),
                 report)


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
    """Pointwise P = <sigma>/intensity over the grid; NaN where empty.

    Formed in theta-row tiles of at most _TILE_POINTS points (at least one
    row), written straight into the output arrays, so no temporary spans
    the grid."""
    shape = (grid.theta.size, grid.rho.size)
    P = np.full((3,) + shape, np.nan)
    den = np.empty(shape)
    ok = np.empty(shape, bool)
    step = max(1, _TILE_POINTS // shape[1])
    for i0 in range(0, shape[0], step):
        rows = slice(i0, i0 + step)
        num, den[rows] = grid.sigma_expectations(beam, rows)
        np.greater(den[rows], 1e-300, out=ok[rows])
        np.divide(num, den[rows], out=P[:, rows], where=ok[rows])
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

def phase_map(grid: WaveGrid, component: str, beam: str, frame: str = "beam"):
    """Wrapped phase of the flipped/non-flipped spin component.

    frame="beam" mirrors the rho axis for beams propagating against the
    nominal beam direction, so the map is expressed in the exit beam's own
    right-handed transverse frame.  frame="lab" keeps grid axes as stored.
    Amplitudes of 1e-300 or less are masked.
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
    mask = np.abs(amp) > 1e-300
    phase = np.where(mask, np.angle(amp), np.nan)
    return {"phase": phase, "mask": mask, "mirrored": mirror,
            "theta": grid.theta, "rho": (-grid.rho[::-1] if mirror else grid.rho)}


def rectangle_loop(shape: tuple[int, int], margin: int) -> list[tuple[int, int]]:
    """Closed counter-clockwise rectangular index loop ``margin`` (>= 0)
    cells in from the array edge."""
    if margin < 0:
        raise WaveGridError(f"negative loop margin {margin}")
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
# CSV export
# ---------------------------------------------------------------------------

_CSV_CHUNK_ROWS = 1024


def write_csv(path, columns: dict, precision: int = 9,
              header_lines: tuple[str, ...] = ()):
    """CSV of columns that broadcast against each other, below '# ' header
    lines: one row per element of the broadcast shape, in C order (a grid
    given as theta[:, None], rho[None, :] and 2-D fields comes out
    theta-major).  Written to a temporary file and renamed into place.

    Values are printed with %.<precision>g in the columns' common dtype,
    which prints int, bool and float values exactly as formatting each on
    its own would.  A column constant along the last axis is formatted once
    per leading index, one constant along the leading axes once in all;
    only the full columns go through the template, one % operation per
    block of whole last-axis rows of at most _CSV_CHUNK_ROWS rows (or per
    _CSV_CHUNK_ROWS-row piece of a longer one).
    """
    path = Path(path)
    arrays = [np.asarray(col) for col in columns.values()]
    try:
        shape = (np.broadcast_shapes(*(a.shape for a in arrays)) if arrays
                 else (0,)) or (1,)
    except ValueError:
        raise WaveGridError("CSV columns must broadcast to equal sizes, got "
                            f"shapes {[a.shape for a in arrays]}") from None
    n_lead, m = int(np.prod(shape[:-1])), shape[-1]
    cell = f"%.{precision}g"
    dtype = np.result_type(*arrays) if arrays else float
    cells = []       # per column: its line-template cell, or m of them
    per_row = []     # columns constant along the last axis: n_lead strings
    full = []        # the other columns, as (n_lead, m) values
    for a in arrays:
        a = a.astype(dtype, copy=False)
        a = a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
        if m > 1 and a.shape[-1] == 1:
            lead = np.broadcast_to(a[..., 0], shape[:-1]).reshape(-1)
            cells.append(chr(len(per_row)))   # a mark no number contains
            per_row.append([cell % v for v in lead.tolist()])
        elif n_lead > 1 and a.size == m:
            cells.append([cell % v for v in a.reshape(-1).tolist()])
        else:
            full.append(np.broadcast_to(a, shape).reshape(n_lead, m))
            cells.append(cell)
    if all(isinstance(c, str) for c in cells):
        line, each = ",".join(cells) + "\n", None
    else:   # one line template per last-axis index
        line, each = None, [",".join(row) + "\n" for row in zip(
            *([c] * m if isinstance(c, str) else c for c in cells))]
    per_row = list(zip(*per_row)) or [()] * n_lead
    rows = max(1, _CSV_CHUNK_ROWS // max(m, 1))
    span = max(1, min(m, _CSV_CHUNK_ROWS))
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        for text in header_lines:
            fh.write(f"# {text}\n")
        fh.write(",".join(columns) + "\n")
        for i0 in range(0, n_lead, rows):
            for j0 in range(0, m, span):
                i1, j1 = min(i0 + rows, n_lead), min(j0 + span, m)
                lines = line * (j1 - j0) if each is None else \
                    "".join(each[j0:j1])
                template = []
                for i in range(i0, i1):
                    text = lines
                    for mark, value in enumerate(per_row[i]):
                        text = text.replace(chr(mark), value)
                    template.append(text)
                template = "".join(template)
                values = [f[i0:i1, j0:j1] for f in full]
                values = np.stack(values, axis=-1).ravel().tolist() if full else ()
                fh.write(template % tuple(values))
    os.replace(tmp, path)
    return path
