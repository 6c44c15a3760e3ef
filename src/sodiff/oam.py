"""Orbital-angular-momentum analysis of transverse wavefields.

A sampled complex field over the transverse wavevector plane is resampled
onto a polar grid about a chosen axis point, expanded in azimuthal Fourier
modes psi_l(r) = (1/2pi) integral psi e^{-i l phi} dphi, and reduced to the
mode distribution p[l] = 2 pi integral |psi_l|^2 r dr normalised by the
total intensity.  An independent finite-difference estimator of <L_z>
cross-checks the whole decomposition path.

Memory: the polar nodes are resampled, and reduced, in blocks of whole
radial rows of at most _POLAR_BLOCK_NODES nodes (one row when a row is
wider).  One reducer, _RowSums, takes the blocks in row order and keeps
per-row sums and the mode power, O(n_r + n_phi) numbers.  analyse and
analyse_grid feed it blocks resampled straight from the Cartesian field,
so they hold that field plus a few blocks and never the polar field;
to_polar stores the blocks in an AzimuthalField (n_r x n_phi x 16 B), and
total_intensity, oam_distribution and oracle_Lz feed the reducer from it.
Both give the bits of the whole-grid forms.

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
        return _reduce(self).total()


@dataclass(frozen=True)
class OamDistribution:
    ells: np.ndarray            # integer mode numbers, [-L, L]
    p: np.ndarray               # probabilities, >= 0
    residual: float             # probability outside [-L, L]
    mean: float                 # sum l p / sum p over the window
    total_intensity: float


# ---------------------------------------------------------------------------
# Polar resampling
# ---------------------------------------------------------------------------

class _PolarNodes:
    """A Cartesian field and the polar nodes it is resampled on, checked."""

    def __init__(self, values, ky_axis, kz_axis, center, n_r, n_phi, r_max,
                 handedness):
        self.values = values = np.asarray(values)
        self.ky = ky = np.asarray(ky_axis, float)
        self.kz = kz = np.asarray(kz_axis, float)
        if values.shape != (ky.size, kz.size):
            raise OamError("field shape does not match axes")
        if ky.size < 2 or kz.size < 2:
            raise OamError("polar resampling needs at least 2 points on "
                           f"each axis, got {ky.size} x {kz.size}")
        if handedness not in (+1, -1):
            raise OamError("handedness must be +1 or -1")
        cy, cz = center
        self.center = (cy, cz)
        if r_max is None:
            r_max = min(ky[-1] - cy, cy - ky[0], kz[-1] - cz, cz - kz[0])
            if r_max <= 0:
                raise OamError("center lies outside the grid")
        self.r_max, self.handedness = r_max, handedness
        self.r = np.linspace(0.0, r_max, n_r)
        self.phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)

    def blocks(self):
        """(rows, resampled values, nodes inside the axes' span) of each
        block of radial rows, in row order."""
        cy, cz = self.center
        cos_phi, sin_phi = np.cos(self.phi)[None, :], np.sin(self.phi)[None, :]
        for rows in _row_blocks((self.r.size, self.phi.size)):
            rb = self.r[rows, None]
            block, inside = _bilinear(self.values, self.ky, self.kz,
                                      cy + rb * cos_phi,
                                      cz + self.handedness * rb * sin_phi)
            yield rows, block, int(np.count_nonzero(inside))


def to_polar(values, ky_axis, kz_axis, center=(0.0, 0.0), n_r: int = 128,
             n_phi: int = 256, r_max: float | None = None,
             handedness: int = +1) -> AzimuthalField:
    """Bilinear resampling of a Cartesian transverse field to polar nodes.

    Nodes falling outside the Cartesian domain are zero (the field is taken
    to vanish beyond the computed window, which is the physical statement
    that the crystal only diffracts within the rocking width and the beam
    only illuminates within its divergence).  The nodes are resampled one
    block of radial rows at a time into the stored field, which is the only
    array over all of them; analyse gives the distribution and <L_z> of the
    same nodes without storing it.
    """
    nodes = _PolarNodes(values, ky_axis, kz_axis, center, n_r, n_phi, r_max,
                        handedness)
    out = np.empty((nodes.r.size, n_phi), np.result_type(nodes.values, float))
    covered = 0
    for rows, block, inside in nodes.blocks():
        out[rows] = block
        covered += inside

    (cy, cz), ky, kz = nodes.center, nodes.ky, nodes.kz
    rr = np.hypot((ky[:, None] - cy), (kz[None, :] - cz))
    disk = rr <= nodes.r_max
    src = float(np.sum(np.abs(nodes.values[disk]) ** 2)
                * (ky[1] - ky[0]) * (kz[1] - kz[0]))
    return AzimuthalField(values=out, r=nodes.r, phi=nodes.phi,
                          center=nodes.center, handedness=handedness,
                          source_intensity=src, coverage=covered / out.size)


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


def _grid_field(grid: WaveGrid, beam: str, what: str, center, r_max,
                physical_only: bool) -> dict:
    """The Cartesian spin field of an exit beam and its axes, center,
    r_max and handedness in 1/A, as to_polar and analyse take them."""
    if what not in ("interference", "flipped", "non-flipped"):
        raise OamError("what must be 'interference', 'flipped' or 'non-flipped'")
    vals = grid.spin_field(beam, what)
    if physical_only:
        vals = np.where(grid.physical, vals, 0.0)
    k = grid.geometry.k_mag
    return {"values": vals, "ky_axis": k * grid.theta, "kz_axis": k * grid.rho,
            "center": (k * center[0], k * center[1]),
            "r_max": None if r_max is None else k * r_max,
            "handedness": +1 if grid.geometry.H[0] >= 0.0 else -1}


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
    1/A.  The azimuth is right-handed about H.  The stored polar field
    (n_r x n_phi) is the one array over all nodes; analyse_grid reduces
    the same nodes without it.
    """
    return to_polar(n_r=n_r, n_phi=n_phi, **_grid_field(
        grid, beam, what, center, r_max, physical_only))


def analyse(values, ky_axis, kz_axis, center=(0.0, 0.0), n_r: int = 128,
            n_phi: int = 256, r_max: float | None = None,
            handedness: int = +1, L: int = 32):
    """(oam_distribution(field, L), oracle_Lz(field), field.coverage) of
    field = to_polar(values, ky_axis, kz_axis, ...), bit for bit, in one
    pass that never holds the polar field: each block of radial rows is
    resampled, reduced and dropped before the next."""
    nodes = _PolarNodes(values, ky_axis, kz_axis, center, n_r, n_phi, r_max,
                        handedness)
    _check_truncation(L, n_phi)
    _check_even(n_phi)
    sums = _RowSums(nodes.r, n_phi)
    covered = 0
    for rows, block, inside in nodes.blocks():
        sums.add(rows, block)
        covered += inside
    return (sums.distribution(L), sums.oracle(),
            covered / (nodes.r.size * n_phi))


def analyse_grid(grid: WaveGrid, beam: str, what: str, L: int = 32,
                 center=(0.0, 0.0), n_r: int = 128, n_phi: int = 256,
                 r_max: float | None = None, physical_only: bool = False):
    """analyse of the spin field that field_from_grid resamples, with the
    same arguments: the mode distribution, oracle <L_z> and coverage of
    one component, holding the Cartesian field and a few blocks."""
    return analyse(n_r=n_r, n_phi=n_phi, L=L, **_grid_field(
        grid, beam, what, center, r_max, physical_only))


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


def _modes(values) -> np.ndarray:
    """All DFT modes of each row of a block, bin k holding mode
    fftfreq-style integers."""
    return np.fft.fft(values, axis=1) / values.shape[1]


def _lz_rows(values, dphi) -> np.ndarray:
    """sum over phi of conj(psi) (-i dpsi/dphi) for each row, by periodic
    central differences psi[j+1] - psi[j-1] (no roll copies)."""
    n = values.shape[1]
    dpsi = np.empty_like(values)
    np.subtract(values[:, 2:], values[:, :-2], out=dpsi[:, 1:-1])
    np.subtract(values[:, 1 % n], values[:, -1], out=dpsi[:, 0])
    np.subtract(values[:, 0], values[:, -2 % n], out=dpsi[:, -1])
    dpsi /= 2 * dphi
    return np.sum(np.conj(values) * (-1j) * dpsi, axis=1)


class _RowSums:
    """The reductions of a polar field on radial axis r, fed one block of
    whole radial rows at a time in row order (add).

    Kept per radial row, at full and at half azimuthal resolution (every
    second azimuth, for the oracle's re-estimate): the intensity sum over
    phi of |psi|^2 and the <L_z> numerator.  The mode power 2 pi integral
    |psi_l|^2 r dr of every DFT bin is accumulated from each block's FFT:
    the trapezoid over r adds its terms d_k (y_{k+1} + y_k) / 2 row by row
    from the first, the order in which np.trapezoid sums over the leading
    axis.  So every result has the bits of the whole-grid form.
    """

    def __init__(self, r, n_phi: int):
        self.r, self.n_phi = r, n_phi
        self.dphi = 2.0 * np.pi / n_phi
        self.intensity = np.empty((2, r.size))    # [full, half] resolution
        self.lz_num = np.empty((2, r.size), complex)
        self._dr = np.diff(r)
        self._power = np.zeros(n_phi)
        self._prev = None   # the last row's |psi_l|^2 r

    def add(self, rows: slice, block):
        for res, (v, dphi) in enumerate(((block, self.dphi),
                                         (block[:, ::2], 2 * self.dphi))):
            self.intensity[res, rows] = np.sum(np.abs(v) ** 2, axis=1)
            self.lz_num[res, rows] = _lz_rows(v, dphi)
        y = np.abs(_modes(block)) ** 2 * self.r[rows, None]
        for k, row in enumerate(y, start=rows.start):
            if k:
                term = self._dr[k - 1] * (row + self._prev) / 2.0
                self._power = term if k == 1 else np.add(
                    self._power, term, out=self._power)
            self._prev = row

    def total(self) -> float:
        """integral |psi|^2 r dr dphi."""
        dens = self.intensity[0] * self.dphi
        return float(np.trapezoid(dens * self.r, self.r))

    def mode_power(self) -> np.ndarray:
        """2 pi * integral |psi_l|^2 r dr for every DFT bin, bin l % n_phi
        holding mode l."""
        return 2.0 * np.pi * self._power

    def distribution(self, L: int) -> OamDistribution:
        total = self.total()
        if total <= 0.0:
            raise OamError("zero total intensity")
        power = self.mode_power()
        ells = np.arange(-L, L + 1)
        p = power[ells % self.n_phi] / total
        residual = float(power.sum() / total - p.sum())
        mean = float(np.sum(ells * p) / np.sum(p)) if p.sum() > 0 else 0.0
        return OamDistribution(ells=ells, p=p, residual=residual, mean=mean,
                               total_intensity=total)

    def lz(self, half: bool = False) -> float:
        """<L_z> estimate at full or half azimuthal resolution."""
        num_r = np.trapezoid(self.lz_num[int(half)] * self.r, self.r)
        den_r = np.trapezoid(self.intensity[int(half)] * self.r, self.r)
        if den_r == 0:
            raise OamError("zero intensity")
        return float(np.real(num_r / den_r))

    def oracle(self) -> float:
        val = self.lz()
        half = self.lz(half=True)
        denom = max(abs(val), 1e-30)
        if abs(val - half) / denom > 1e-3:
            log.warning("oracle_Lz: azimuthal grid under-resolved (delta %.2e)",
                        abs(val - half) / denom)
        return val


def _reduce(field: AzimuthalField) -> _RowSums:
    """The reductions of a stored polar field, fed block by block."""
    sums = _RowSums(field.r, field.n_phi)
    for rows in _row_blocks(field.values.shape):
        sums.add(rows, field.values[rows])
    return sums


def _check_truncation(L: int, n_phi: int):
    if L > n_phi // 2 - 1:
        raise OamError("truncation beyond Nyquist")


def _check_even(n_phi: int):
    if n_phi % 2:
        raise OamError(f"oracle_Lz needs an even n_phi, got {n_phi}")


def oam_distribution(field: AzimuthalField, L: int = 32) -> OamDistribution:
    """Mode probabilities p[l] for |l| <= L, residual reported separately."""
    _check_truncation(L, field.n_phi)
    return _reduce(field).distribution(L)


def oracle_Lz(field: AzimuthalField) -> float:
    """<L_z> in hbar by central differences of the azimuthal derivative.

    Completely independent of the Fourier path: <psi| -i d/dphi |psi> over
    <psi|psi> with periodic wraparound.  A half-resolution re-estimate on
    every second azimuth that moves by more than 1e-3 relatively logs an
    'under-resolved' warning.  n_phi must be even: for odd n_phi the half
    grid wraps with a one-step gap, which biases the re-estimate.
    """
    _check_even(field.n_phi)
    return _reduce(field).oracle()
