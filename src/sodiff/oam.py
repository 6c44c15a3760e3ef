"""Orbital-angular-momentum analysis of transverse wavefields.

A sampled complex field over the transverse wavevector plane is resampled
onto a polar grid about a chosen axis point, expanded in azimuthal Fourier
modes psi_l(r) = (1/2pi) integral psi e^{-i l phi} dphi, and reduced to the
mode distribution p[l] = 2 pi integral |psi_l|^2 r dr normalised by the
total intensity.  An independent finite-difference estimator of <L_z>
cross-checks the whole decomposition path.

Memory: to_polar resamples, and total_intensity, oam_distribution and
oracle_Lz reduce, in blocks of whole radial rows of at most
_POLAR_BLOCK_NODES nodes (one row when a row is wider).  Besides the polar
field itself (n_r x n_phi x 16 B) an analysis holds only a few blocks; the
reductions give the bits of their whole-grid forms.

Azimuth handedness: field_from_grid takes phi right-handed about the
reciprocal lattice vector H.  Where H has a negative component along the
beam this mirrors the lab k_z axis, i.e. phi = atan2(-k_z, k_y).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .wavefield import WaveGrid

log = logging.getLogger(__name__)

_POLAR_BLOCK_NODES = 1 << 16  # polar nodes resampled or reduced at a time


class OamError(ValueError):
    pass


@dataclass(frozen=True)
class AzimuthalField:
    """Complex field on a uniform polar grid about a declared center."""

    values: np.ndarray          # (n_r, n_phi)
    r: np.ndarray               # (n_r,) radial axis, 1/A, starting at >= 0
    phi: np.ndarray             # (n_phi,) uniform on [0, 2pi), phi[0] = 0
    center: tuple[float, float]  # (k_y0, k_z0) of the axis, 1/A
    handedness: int             # +1: phi right-handed about +x; -1: about -x
    source_intensity: float     # integral |psi|^2 over the sampled disk
    coverage: float             # fraction of polar nodes inside the source

    @property
    def n_phi(self) -> int:
        return self.phi.size

    def total_intensity(self) -> float:
        """integral |psi|^2 r dr dphi on the polar grid."""
        dphi = 2.0 * np.pi / self.n_phi
        dens = _row_intensity(self.values) * dphi
        return float(np.trapezoid(dens * self.r, self.r))


@dataclass(frozen=True)
class OamDistribution:
    ells: np.ndarray            # integer mode numbers, [-L, L]
    p: np.ndarray               # probabilities, >= 0
    residual: float             # probability outside [-L, L]
    mean: float                 # sum l p / sum p over the window
    total_intensity: float


def to_polar(values, ky_axis, kz_axis, center=(0.0, 0.0), n_r: int = 128,
             n_phi: int = 256, r_max: float | None = None,
             handedness: int = +1) -> AzimuthalField:
    """Bilinear resampling of a Cartesian transverse field to polar nodes.

    Nodes falling outside the Cartesian domain are zero (the field is taken
    to vanish beyond the computed window, which is the physical statement
    that the crystal only diffracts within the rocking width and the beam
    only illuminates within its divergence).
    """
    values = np.asarray(values)
    ky = np.asarray(ky_axis, float)
    kz = np.asarray(kz_axis, float)
    if values.shape != (ky.size, kz.size):
        raise OamError("field shape does not match axes")
    if ky.size < 2 or kz.size < 2:
        raise OamError("polar resampling needs at least 2 points on each "
                       f"axis, got {ky.size} x {kz.size}")
    if handedness not in (+1, -1):
        raise OamError("handedness must be +1 or -1")
    cy, cz = center
    if r_max is None:
        r_max = min(ky[-1] - cy, cy - ky[0], kz[-1] - cz, cz - kz[0])
        if r_max <= 0:
            raise OamError("center lies outside the grid")
    r = np.linspace(0.0, r_max, n_r)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    cos_phi, sin_phi = np.cos(phi)[None, :], np.sin(phi)[None, :]
    # Resampled in blocks of radial rows, so that the node coordinates and
    # the gather's temporaries stay small.  Temporaries over the whole
    # polar grid (fig3: 16 MB each) made the peak RSS vary from run to run
    # with the memory the allocator had kept of earlier ones.
    out = np.empty((n_r, n_phi), np.result_type(values, float))
    covered = 0
    rows = max(1, _POLAR_BLOCK_NODES // n_phi)
    for i0 in range(0, n_r, rows):
        rb = r[i0:i0 + rows, None]
        out[i0:i0 + rows], inside = _bilinear(
            values, ky, kz, cy + rb * cos_phi, cz + handedness * rb * sin_phi)
        covered += int(np.count_nonzero(inside))

    dky = ky[1] - ky[0]
    dkz = kz[1] - kz[0]
    rr = np.hypot((ky[:, None] - cy), (kz[None, :] - cz))
    disk = rr <= r_max
    src = float(np.sum(np.abs(values[disk]) ** 2) * dky * dkz)

    return AzimuthalField(values=out, r=r, phi=phi, center=(cy, cz),
                          handedness=handedness, source_intensity=src,
                          coverage=covered / out.size)


def _bilinear(values, x_axis, y_axis, X, Y):
    """Bilinear gather with zero fill outside the axes' span, and the mask
    of the nodes inside.  That is decided in index space: a node up to 1e-9
    of a cell past an edge is clamped onto it, not zeroed.  Only the nodes
    inside are gathered and weighted."""
    nx, ny = x_axis.size, y_axis.size
    dx = x_axis[1] - x_axis[0]
    dy = y_axis[1] - y_axis[0]
    fx = (X - x_axis[0]) / dx
    fy = (Y - y_axis[0]) / dy
    tol = 1e-9
    inside = ((fx >= -tol) & (fx <= nx - 1 + tol)
              & (fy >= -tol) & (fy <= ny - 1 + tol))
    fx = np.clip(fx[inside], 0, nx - 1 - 1e-12)
    fy = np.clip(fy[inside], 0, ny - 1 - 1e-12)
    ix = np.clip(fx.astype(int), 0, nx - 2)
    iy = np.clip(fy.astype(int), 0, ny - 2)
    tx = fx - ix
    ty = fy - iy
    out = np.zeros(inside.shape, np.result_type(values, float))
    out[inside] = (values[ix, iy] * (1 - tx) * (1 - ty)
                   + values[ix + 1, iy] * tx * (1 - ty)
                   + values[ix, iy + 1] * (1 - tx) * ty
                   + values[ix + 1, iy + 1] * tx * ty)
    return out, inside


def field_from_grid(grid: WaveGrid, beam: str, what: str,
                    center=(0.0, 0.0), n_r: int = 128,
                    n_phi: int = 256, r_max: float | None = None,
                    physical_only: bool = False) -> AzimuthalField:
    """Polar resampling of one spin field of an exit beam.

    what is "flipped", "non-flipped" or "interference" (see
    WaveGrid.spin_field); the interference product conj(psi_nonflip)
    psi_flip is formed on the Cartesian grid before resampling, so phases
    common to both spin components cancel exactly, including thickness
    oscillations far too fast for the grid to resolve.  physical_only
    zeroes the half-plane where the beam cannot enter the crystal (grazing
    backscattering geometries); analysis then covers the reachable lobe
    only.  center is in (theta, rho) radians; the radial axis comes out in
    1/A.  The azimuth is right-handed about H.
    """
    if what not in ("interference", "flipped", "non-flipped"):
        raise OamError("what must be 'interference', 'flipped' or 'non-flipped'")
    vals = grid.spin_field(beam, what)
    if physical_only:
        vals = np.where(grid.physical, vals, 0.0)
    k = grid.geometry.k_mag
    return to_polar(vals, k * grid.theta, k * grid.rho,
                    center=(k * center[0], k * center[1]), n_r=n_r,
                    n_phi=n_phi, r_max=None if r_max is None else k * r_max,
                    handedness=+1 if grid.geometry.H[0] >= 0.0 else -1)


# ---------------------------------------------------------------------------
# Azimuthal Fourier transform, mode distribution and <L_z> oracle, reduced
# in blocks of radial rows
# ---------------------------------------------------------------------------

def _row_blocks(shape):
    """Slices of whole rows of a (n_r, n_phi) grid, at most
    _POLAR_BLOCK_NODES nodes each, or one row when a row is wider."""
    n_r, n_phi = shape
    rows = max(1, _POLAR_BLOCK_NODES // n_phi)
    return [slice(i0, i0 + rows) for i0 in range(0, n_r, rows)]


def _row_intensity(values) -> np.ndarray:
    """sum over phi of |psi|^2 for each radial row."""
    out = np.empty(values.shape[0])
    for rows in _row_blocks(values.shape):
        out[rows] = np.sum(np.abs(values[rows]) ** 2, axis=1)
    return out


def _aft_all(field: AzimuthalField, rows=slice(None)) -> np.ndarray:
    """All DFT modes of the radial rows `rows`, shape (rows, n_phi), bin k
    holding mode fftfreq-style integers."""
    return np.fft.fft(field.values[rows], axis=1) / field.n_phi


def _mode_power(field: AzimuthalField) -> np.ndarray:
    """2 pi * integral |psi_l|^2 r dr for every DFT bin, bin l % n_phi
    holding mode l.

    The modes of one block of rows exist at a time.  The trapezoid over r
    adds its terms d_k (y_{k+1} + y_k) / 2 row by row from the first, the
    order in which np.trapezoid sums over the leading axis, so the power
    has the bits of the whole-grid form."""
    r, dr = field.r, np.diff(field.r)
    power, prev = np.zeros(field.n_phi), None
    for rows in _row_blocks(field.values.shape):
        y = np.abs(_aft_all(field, rows)) ** 2 * r[rows, None]
        for k, row in enumerate(y, start=rows.start):
            if k:
                term = dr[k - 1] * (row + prev) / 2.0
                power = term if k == 1 else np.add(power, term, out=power)
            prev = row
    return 2.0 * np.pi * power


def oam_distribution(field: AzimuthalField, L: int = 32) -> OamDistribution:
    """Mode probabilities p[l] for |l| <= L, residual reported separately."""
    if L > field.n_phi // 2 - 1:
        raise OamError("truncation beyond Nyquist")
    total = field.total_intensity()
    if total <= 0.0:
        raise OamError("zero total intensity")
    power = _mode_power(field)
    ells = np.arange(-L, L + 1)
    p = power[ells % field.n_phi] / total
    residual = float(power.sum() / total - p.sum())
    mean = float(np.sum(ells * p) / np.sum(p)) if p.sum() > 0 else 0.0
    return OamDistribution(ells=ells, p=p, residual=residual, mean=mean,
                           total_intensity=total)


def oracle_Lz(field: AzimuthalField) -> float:
    """<L_z> in hbar by central differences of the azimuthal derivative.

    Completely independent of the Fourier path: <psi| -i d/dphi |psi> over
    <psi|psi> with periodic wraparound.  A half-resolution re-estimate on
    every second azimuth that moves by more than 1e-3 relatively logs an
    'under-resolved' warning.  n_phi must be even: for odd n_phi the half
    grid wraps with a one-step gap, which biases the re-estimate.
    """
    if field.n_phi % 2:
        raise OamError(f"oracle_Lz needs an even n_phi, got {field.n_phi}")
    val = _lz_estimate(field.values, field.r, field.phi)
    half = _lz_estimate(field.values[:, ::2], field.r, field.phi[::2])
    denom = max(abs(val), 1e-30)
    if abs(val - half) / denom > 1e-3:
        log.warning("oracle_Lz: azimuthal grid under-resolved (delta %.2e)",
                    abs(val - half) / denom)
    return val


def _lz_estimate(values, r, phi):
    dphi = phi[1] - phi[0]
    num = np.empty(values.shape[0], complex)
    for rows in _row_blocks(values.shape):
        v = values[rows]
        # periodic central difference psi[j+1] - psi[j-1], without roll copies
        dpsi = np.empty_like(v)
        np.subtract(v[:, 2:], v[:, :-2], out=dpsi[:, 1:-1])
        np.subtract(v[:, 1], v[:, -1], out=dpsi[:, 0])
        np.subtract(v[:, 0], v[:, -2], out=dpsi[:, -1])
        dpsi /= 2 * dphi
        num[rows] = np.sum(np.conj(v) * (-1j) * dpsi, axis=1)
    den = _row_intensity(values)
    num_r = np.trapezoid(num * r, r)
    den_r = np.trapezoid(den * r, r)
    if den_r == 0:
        raise OamError("zero intensity")
    return float(np.real(num_r / den_r))
