"""Two-beam dynamical diffraction per spin channel.

Inside the crystal the wavefield is a superposition of two branches
k_i = k0 + (|k0|/cos gamma) eps_i n.  Inserting that ansatz into the
stationary Schroedinger equation with the truncated potential
{V(0), V(+-H)} and keeping terms linear in eps gives, per decoupled spin
channel, the quadratic secular equation (y = 2 E eps + v0)

    beta y^2 + [(1 - beta) v0 - alpha0] y - vH vmH = 0,

with alpha0 = (hbar^2/2m)(|k0|^2 - |k0+H|^2) the exact deviation from the
Bragg condition and beta = ((k0+H).n)/(k0.n).  The reflected/forward
amplitude ratio of each branch is X_i = -(2 E eps_i + v0)/vH.

Boundary conditions: the forward amplitudes always sum to the incident one;
Bragg geometry additionally has no reflected field at the rear face, Laue
geometry none at the entrance.  Amplitudes are evaluated in a numerically
stable gauge so that arbitrarily thick crystals cannot overflow.

Geometry frame convention: all 3-vectors (k0, H, n) are expressed in the
lab frame whose x axis is the nominal incident beam direction and whose z
axis is vertical.  Rocking theta deflects the incident wavevector toward y,
tilting rho toward z: k(theta, rho) = |k0| (1, theta, rho)/norm.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS, FM_TO_A, PhysicalConstants
from .crystal import (
    CrystalModel,
    IDENTITY2,
    SIGMA,
    mean_potential_meV,
    reciprocal_vector,
    schwinger_axis,
    structure_sums,
)

log = logging.getLogger(__name__)

BRAGG = "bragg"
LAUE = "laue"

class DispersionError(ValueError):
    """Unsolvable diffraction configuration."""


@dataclass(frozen=True)
class DiffractionGeometry:
    """Incident beam, reflection and crystal slab for one scan.

    thickness_A is measured along the inward surface normal n.  theta and
    rho are the rocking/tilt offsets of this particular geometry instance;
    grid scans pass arrays instead and leave these at zero.
    """

    k0: tuple[float, float, float]      # nominal incident wavevector, 1/A
    H: tuple[float, float, float]       # reciprocal vector in the lab frame
    n: tuple[float, float, float]       # inward surface normal, unit
    kind: str                           # BRAGG or LAUE
    thickness_A: float
    theta: float = 0.0
    rho: float = 0.0
    hkl: tuple[int, int, int] | None = None  # for structure-factor phases

    def __post_init__(self):
        if self.kind not in (BRAGG, LAUE):
            raise DispersionError(f"unknown geometry kind {self.kind!r}")
        n = np.asarray(self.n, float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise DispersionError("surface normal must be unit length")
        if self.thickness_A < 0:
            raise DispersionError("thickness must be non-negative")

    @property
    def k_mag(self) -> float:
        return float(np.linalg.norm(self.k0))

    @property
    def wavelength_A(self) -> float:
        return 2.0 * np.pi / self.k_mag

    def incident(self, theta=None, rho=None) -> np.ndarray:
        """Exact unit-norm incident wavevector(s) at rocking/tilt offsets."""
        th = np.asarray(self.theta if theta is None else theta, float)
        rh = np.asarray(self.rho if rho is None else rho, float)
        th, rh = np.broadcast_arrays(th, rh)
        norm = np.sqrt(1.0 + th**2 + rh**2)
        k = np.stack([np.ones_like(th), th, rh], axis=-1) / norm[..., None]
        return self.k_mag * k

    @property
    def cos_gamma(self) -> float:
        k = self.incident()
        return float(k @ np.asarray(self.n)) / self.k_mag

    @property
    def b_asym(self) -> float:
        k = self.incident()
        n = np.asarray(self.n)
        return float(k @ n) / float((k + np.asarray(self.H)) @ n)

    def sin_bragg(self) -> float:
        return float(np.linalg.norm(self.H)) / (2.0 * self.k_mag)


def make_geometry(crystal: CrystalModel, hkl, wavelength_A: float, kind: str,
                  thickness_A: float, frame: str = "auto") -> DiffractionGeometry:
    """Symmetric-geometry builder in the canonical lab frame.

    Bragg: reflecting planes parallel to the surface, H antiparallel to the
    inward normal.  Laue: planes perpendicular to the surface.  The Bragg
    angle follows from |H| = 2|k0| sin(theta_B).

    frame picks the direction the nominal beam (the lab x axis) points at:
    "incidence" puts it exactly on the kinematic Bragg condition;
    "axis" aligns it with the backscattering axis -H, the natural frame
    near sin(theta_B) = 1 where the vortex structure is centred on H.
    "auto" switches to the axis frame for sin(theta_B) > 0.99.  In the
    axis frame the Laue surface degenerates to the grazing -y normal
    (flat-surface idealisation); the rocking half-plane theta < 0 is then
    the side on which the beam actually enters the crystal.
    """
    h_vec = reciprocal_vector(crystal, hkl)
    h_mag = float(np.linalg.norm(h_vec))
    k_mag = 2.0 * np.pi / wavelength_A
    s = h_mag / (2.0 * k_mag)
    if s > 1.0 + 1e-8:
        raise DispersionError(
            f"Bragg condition unreachable: |H|/2|k0| = {s:.6f} > 1")
    s = min(s, 1.0)
    c = np.sqrt(max(0.0, 1.0 - s * s))
    if frame == "auto":
        frame = "axis" if s > 0.99 else "incidence"
    if frame == "axis":
        H = h_mag * np.array([-1.0, 0.0, 0.0])
        n = np.array([1.0, 0.0, 0.0]) if kind == BRAGG else np.array([0.0, -1.0, 0.0])
    elif frame == "incidence":
        H = h_mag * np.array([-s, c, 0.0])
        if kind == BRAGG:
            n = np.array([s, -c, 0.0])
        elif kind == LAUE:
            n = np.array([c, s, 0.0]) if c > 1e-8 else np.array([0.0, -1.0, 0.0])
        else:
            raise DispersionError(f"unknown geometry kind {kind!r}")
    else:
        raise DispersionError(f"unknown frame {frame!r}")
    if kind not in (BRAGG, LAUE):
        raise DispersionError(f"unknown geometry kind {kind!r}")
    return DiffractionGeometry(k0=(k_mag, 0.0, 0.0), H=tuple(H), n=tuple(n),
                               kind=kind, thickness_A=thickness_A,
                               hkl=tuple(int(i) for i in hkl))


def backscattering_wavelength(crystal: CrystalModel, hkl, kind: str,
                              constants: PhysicalConstants = CONSTANTS) -> float:
    """Wavelength at which the backscattered reflectivity actually peaks.

    Laue geometry is unshifted (lambda = 2d); in Bragg geometry refraction
    displaces the resonance to lambda = 2d (1 - v0/2E).  At exactly
    lambda = 2d the Bragg backscattering resonance is unreachable (the
    refraction-shifted Darwin centre lies outside the accessible deviation
    range) and the peak reflectivity collapses to the percent level.
    """
    d = crystal.d_spacing(hkl)
    if kind == LAUE:
        return 2.0 * d
    v0 = mean_potential_meV(crystal, constants)
    energy = constants.energy_meV(2.0 * d)
    return 2.0 * d * (1.0 - v0 / (2.0 * energy))


# ---------------------------------------------------------------------------
# Spin-channel kernel
# ---------------------------------------------------------------------------

def _solve_channel(beta, b, p, vH):
    """Vectorised secular-equation roots and amplitude ratios.

    Solves beta y^2 + b y - p = 0 with b = (1 - beta) v0 - alpha0 and
    p = vH vmH.  Returns (y1, y2, X1, X2) with y = 2 E eps + v0, ordered by
    ascending Re(eps), ties by ascending Im(eps).  The smaller root is
    computed from the product y1 y2 = -p / beta to avoid cancellation.
    """
    vH = np.asarray(vH, complex)
    if np.any(np.abs(vH) == 0.0):
        raise DispersionError("forbidden reflection: V(H) = 0")

    disc = np.asarray(b**2 + 4.0 * beta * p, complex)
    sq = np.sqrt(disc)
    # pick the sign that maximises |b -+ sq| for the well-conditioned root
    plus = -b + sq
    minus = -b - sq
    use_plus = np.abs(plus) >= np.abs(minus)
    y_big = np.where(use_plus, plus, minus) / (2.0 * beta)
    y_small = (-p / beta) / y_big
    y1, y2 = y_small, y_big

    swap = (y2.real < y1.real) | ((y2.real == y1.real) & (y2.imag < y1.imag))
    y1, y2 = np.where(swap, y2, y1), np.where(swap, y1, y2)
    X1 = -y1 / vH
    X2 = -y2 / vH
    return y1, y2, X1, X2


def _backward_error(beta, b, p, y):
    """Backward error |beta y^2 + b y - p| / (|beta||y|^2 + |b||y| + |p|)
    of computed roots y (both branches may be stacked on a leading axis):
    the smallest relative change of the coefficients that makes y exact.
    Unlike the residual of the two-beam equations it does not grow with the
    distance from the Bragg condition."""
    ay = np.abs(y)
    return (np.abs((beta * y + b) * y - p)
            / (np.abs(beta) * ay**2 + np.abs(b) * ay + np.abs(p)))


def _lattice_sums(geom: DiffractionGeometry, crystal: CrystalModel,
                  constants: PhysicalConstants):
    """(pref, A, B): the channel potentials are v_H = pref (A - 2i s w B).

    The geometry's H lives in the lab frame; atomic phases e^{iH.r} need
    the crystal-frame vector, recovered from the stored Miller indices.
    Hand-built geometries without hkl are taken to have their H already in
    the crystal frame.
    """
    H = (reciprocal_vector(crystal, geom.hkl) if geom.hkl is not None
         else np.asarray(geom.H, float))
    A, B, _ = structure_sums(crystal, H)
    pref = constants.two_pi_hbar2_over_m_meV_A3 * FM_TO_A / crystal.cell_volume_A3
    return pref, A, B


def _channels(geom: DiffractionGeometry, crystal: CrystalModel, u0_spinor,
              theta, rho, constants: PhysicalConstants) -> dict:
    """Both spin channels of the two-beam problem over broadcast (theta, rho).

    The potential is diagonalised per point along the local spin-orbit axis
    u_hat(K x H); channel c = 0 (1) is the sigma.u_hat = +1 (-1) eigenstate
    with v_H = pref (A -+ 2i w B).  Points where K || H carry no spin-orbit
    term and propagate spin-diagonally.

    Returns a dict: theta, rho, alpha0, beta, g0, gH, w, u_hat, v0,
    energy_meV, kappa_scale; y and X (channel, branch, ...) from
    _solve_channel; amp0 (channel, ..., 2), the incident spinor projected
    on each channel; backward_error (...), the largest _backward_error of
    the point's four roots, NaN roots skipped.  Channel-major storage keeps
    each channel's arrays contiguous.
    """
    th = np.asarray(theta, float)
    rh = np.asarray(rho, float)
    th, rh = np.broadcast_arrays(th, rh)
    shape = th.shape

    k_mag = geom.k_mag
    H = np.asarray(geom.H, float)
    n = np.asarray(geom.n, float)
    hb2m = constants.hbar2_over_2m_meV_A2
    energy = hb2m * k_mag**2

    norm = np.sqrt(1.0 + th**2 + rh**2)
    k = k_mag * np.stack([np.ones_like(th), th, rh], axis=-1) / norm[..., None]

    g0 = k @ n
    gH = (k + H) @ n
    if np.any(g0 == 0.0) or np.any(gH == 0.0):
        raise DispersionError("grid touches an exactly grazing point")
    beta = gH / g0
    alpha0 = -hb2m * (2.0 * (k @ H) + float(H @ H))
    u_hat, w = schwinger_axis(k, H)
    del k  # free 24 B per point before the channel arrays are allocated

    v0 = mean_potential_meV(crystal, constants)
    pref, A, B = _lattice_sums(geom, crystal, constants)
    b = (1.0 - beta) * v0 - alpha0

    y = np.zeros((2, 2) + shape, complex)
    X = np.zeros((2, 2) + shape, complex)
    amp0 = np.zeros((2,) + shape + (2,), complex)
    backward = np.zeros(shape)
    sigma_u = np.einsum("...k,kij->...ij", u_hat, SIGMA)
    u0_spinor = np.asarray(u0_spinor, complex)
    for ci, s in enumerate((+1.0, -1.0)):
        vH = pref * (A - 2.0j * s * w * B)
        vmH = pref * (np.conj(A) + 2.0j * s * w * np.conj(B))
        p = vH * vmH
        y1, y2, X1, X2 = _solve_channel(beta, b, p, vH)
        y[ci, 0], y[ci, 1] = y1, y2
        X[ci, 0], X[ci, 1] = X1, X2
        worst = np.fmax.reduce(_backward_error(beta, b, p, y[ci]), axis=0)
        backward = np.fmax(backward, worst)
        amp0[ci] = 0.5 * (IDENTITY2 + s * sigma_u) @ u0_spinor

    return {"theta": th, "rho": rh, "alpha0": alpha0, "beta": beta,
            "g0": g0, "gH": gH, "w": w, "u_hat": u_hat, "v0": v0,
            "energy_meV": energy, "kappa_scale": k_mag**2 / g0,
            "y": y, "X": X, "amp0": amp0, "backward_error": backward}


def _transfer_factors(kind, y1, y2, X1, X2, v0, energy, kappa_scale, D):
    """Exit amplitude per unit incident amplitude for one spin channel.

    Returns (t, r): forward (at depth D) and diffracted (entry face for
    Bragg, depth D for Laue) envelope amplitudes; overall plane-wave phase
    factors common to all grid points are dropped.
    """
    eps1 = (y1 - v0) / (2.0 * energy)
    eps2 = (y2 - v0) / (2.0 * energy)
    kap1 = kappa_scale * eps1
    kap2 = kappa_scale * eps2
    if kind == BRAGG:
        # label a = growing branch, b = decaying; q = Eb/Ea has |q| <= 1
        a_first = kap1.imag <= kap2.imag
        kap_a = np.where(a_first, kap1, kap2)
        kap_b = np.where(a_first, kap2, kap1)
        X_a = np.where(a_first, X1, X2)
        X_b = np.where(a_first, X2, X1)
        q = np.exp(1j * (kap_b - kap_a) * D)
        E_b = np.exp(1j * kap_b * D)
        den = X_a - q * X_b
        t = E_b * (X_a - X_b) / den
        r = X_a * X_b * (1.0 - q) / den
    else:
        E1 = np.exp(1j * kap1 * D)
        E2 = np.exp(1j * kap2 * D)
        den = X2 - X1
        t = (X2 * E1 - X1 * E2) / den
        r = X1 * X2 * (E1 - E2) / den
    return t, r


def _channel_roots(ch: dict, ci: int):
    """(y1, y2, X1, X2) of channel ci from a _channels result."""
    return ch["y"][ci, 0], ch["y"][ci, 1], ch["X"][ci, 0], ch["X"][ci, 1]


def exit_amplitude_maps(geom: DiffractionGeometry, crystal: CrystalModel,
                        u0_spinor, theta, rho,
                        constants: PhysicalConstants = CONSTANTS) -> dict:
    """Exit spinor envelopes over broadcastable (theta, rho) offsets.

    Both scalar channels of _channels are carried through the crystal and
    the exit transfer operator sum_s t_s P_s is applied to the incident
    spinor in the fixed lab basis.

    Returns a dict of arrays: psi0, psiH (..., 2), R, T, plus diagnostics
    (alpha0, beta, g0, gH, w, u_hat, y, X, t, r per channel/branch and the
    per-point root backward_error).
    """
    ch = _channels(geom, crystal, u0_spinor, theta, rho, constants)
    shape = ch["g0"].shape
    v0, energy = ch["v0"], ch["energy_meV"]

    psi0 = np.zeros(shape + (2,), complex)
    psiH = np.zeros(shape + (2,), complex)
    t_all = np.zeros(shape + (2,), complex)
    r_all = np.zeros(shape + (2,), complex)
    for ci in range(2):
        t, r = _transfer_factors(geom.kind, *_channel_roots(ch, ci), v0,
                                 energy, ch["kappa_scale"], geom.thickness_A)
        psi0 += t[..., None] * ch["amp0"][ci]
        psiH += r[..., None] * ch["amp0"][ci]
        t_all[..., ci], r_all[..., ci] = t, r

    T = np.sum(np.abs(psi0) ** 2, axis=-1)
    R = np.sum(np.abs(psiH) ** 2, axis=-1) * np.abs(ch["gH"]) / ch["g0"]

    # (channel, branch, ...) -> (..., channel, branch), as views
    point_major = tuple(range(2, ch["y"].ndim)) + (0, 1)
    keep = ("theta", "rho", "alpha0", "beta", "g0", "gH", "w", "u_hat", "v0",
            "energy_meV", "backward_error")
    return {"psi0": psi0, "psiH": psiH, "R": R, "T": T, "t": t_all,
            "r": r_all, "y": ch["y"].transpose(point_major),
            "X": ch["X"].transpose(point_major),
            **{key: ch[key] for key in keep}}


def _window_factor(x):
    """Gaussian ensemble weight exp(-x^2/2) on the beat frequency x = dk*sigma.

    A Gaussian thickness spread of width sigma multiplies every beat term
    e^{i dk D} of a quadratic product by exp(-(dk sigma)^2/2): beats from
    branch interference (dk ~ rad/um) are annihilated to below double
    precision while the spin-orbit phase differences that carry the physics
    (dk ~ rad/m) are untouched to one part in 1e10.
    """
    x = np.asarray(x)
    return np.exp(-0.5 * np.real(x) ** 2)


def exit_coherence_maps(geom: DiffractionGeometry, crystal: CrystalModel,
                        u0_spinor, theta, rho, n_avg: int = 32,
                        span_A: float | None = None,
                        constants: PhysicalConstants = CONSTANTS) -> dict:
    """Thickness-ensemble-averaged spin coherence matrices <psi psi^dag>.

    For crystals many extinction lengths thick, the exit amplitudes carry
    optical-path phases of thousands of radians that no transverse grid can
    resolve; observables built from them are then dominated by sampling
    noise.  Averaging the quadratic coherences over an ensemble of
    thicknesses (the incoherent mixture any real thickness gradient or
    wavelength band produces) removes the unresolvable beats while
    preserving every spin-orbit observable: intensities, polarization and
    the relative phase accumulated between spin channels.

    The two geometries use different ensembles.  Laue averages over a
    Gaussian of width span_A in closed form (the amplitudes are
    two-exponential sums).  Bragg averages n_avg equally weighted
    thicknesses spread uniformly over +-1.5 span_A.  span_A is in Angstrom
    and defaults to 1e-5 of the thickness, far below any real tolerance
    yet enough to suppress the Laue branch beats below double precision.

    Returns dict with rho0, rhoH (..., 2, 2) per-beam coherence matrices,
    fluxes R, T, and the geometry diagnostics of exit_amplitude_maps.
    """
    ch = _channels(geom, crystal, u0_spinor, theta, rho, constants)
    shape = ch["g0"].shape
    v0, energy, kappa_scale = ch["v0"], ch["energy_meV"], ch["kappa_scale"]
    chan = [_channel_roots(ch, ci) for ci in range(2)]
    if span_A is None:
        span_A = 1e-5 * geom.thickness_A
    thicknesses = geom.thickness_A + 3.0 * span_A * (
        np.arange(n_avg) / max(n_avg - 1, 1) - 0.5)

    C0 = np.zeros(shape + (2, 2), complex)   # <t_s conj(t_s')>
    CH = np.zeros(shape + (2, 2), complex)
    if geom.kind == LAUE:
        # Laue amplitudes are two-exponential sums, so the Gaussian
        # thickness-ensemble average of every quadratic product is exact:
        # <e^{i dk D'}> over D' ~ N(D, span_A^2) equals
        # e^{i dk D} exp(-(dk span_A)^2 / 2), with Re(dk) in the window.
        kap, At, Ar = [], [], []
        for (y1, y2, X1, X2) in chan:
            den = X2 - X1
            kap.append(np.stack([kappa_scale * (y1 - v0) / (2 * energy),
                                 kappa_scale * (y2 - v0) / (2 * energy)]))
            At.append(np.stack([X2 / den, -X1 / den]))
            Ar.append(np.stack([X1 * X2 / den, -X1 * X2 / den]))
        D = geom.thickness_A
        for a in range(2):
            for b in range(2):
                for i in range(2):
                    for j in range(2):
                        dk = kap[a][i] - np.conj(kap[b][j])
                        win = _window_factor(dk * span_A) * np.exp(1j * dk * D)
                        C0[..., a, b] += At[a][i] * np.conj(At[b][j]) * win
                        CH[..., a, b] += Ar[a][i] * np.conj(Ar[b][j]) * win
    else:
        for D in thicknesses:
            ts, rs = [], []
            for (y1, y2, X1, X2) in chan:
                t, r = _transfer_factors(geom.kind, y1, y2, X1, X2, v0,
                                         energy, kappa_scale, D)
                ts.append(t)
                rs.append(r)
            for a in range(2):
                for b in range(2):
                    C0[..., a, b] += ts[a] * np.conj(ts[b])
                    CH[..., a, b] += rs[a] * np.conj(rs[b])
        C0 /= n_avg
        CH /= n_avg

    basis = ch["amp0"]
    rho0 = np.zeros(shape + (2, 2), complex)
    rhoH = np.zeros(shape + (2, 2), complex)
    for a in range(2):
        for b in range(2):
            outer = basis[a][..., :, None] * np.conj(basis[b][..., None, :])
            rho0 += C0[..., a, b, None, None] * outer
            rhoH += CH[..., a, b, None, None] * outer

    T = np.real(np.trace(rho0, axis1=-2, axis2=-1))
    R = (np.real(np.trace(rhoH, axis1=-2, axis2=-1))
         * np.abs(ch["gH"]) / ch["g0"])
    keep = ("theta", "rho", "alpha0", "beta", "g0", "gH", "w", "u_hat", "v0",
            "energy_meV")
    return {"rho0": rho0, "rhoH": rhoH, "R": R, "T": T,
            "thicknesses": thicknesses, **{key: ch[key] for key in keep}}


def secular_residuals(result: dict) -> np.ndarray:
    """Relative residual of the second two-beam equation for every stored
    branch; the first equation is satisfied identically by X = -y/vH."""
    alpha0 = result["alpha0"][..., None, None]
    beta = result["beta"][..., None, None]
    E = result["energy_meV"]
    v0 = result["v0"]
    y = result["y"]
    X = result["X"]
    # rebuild channel potentials from stored data: vH = -y/X
    vH = -y / X
    vmH = np.conj(vH)  # real scattering lengths
    eps = (y - v0) / (2.0 * E)
    alphaH = alpha0 - 2.0 * E * beta * eps
    res = -vmH + (alphaH - v0) * X
    scale = np.abs(vmH) + np.abs((alphaH - v0) * X) + 1e-300
    return np.abs(res) / scale


# ---------------------------------------------------------------------------
# Derived scan helpers
# ---------------------------------------------------------------------------

def scalar_reflection_scale(crystal: CrystalModel, geom: DiffractionGeometry,
                            constants: PhysicalConstants = CONSTANTS) -> float:
    """|v_H| of the spin-averaged (nuclear) channel, in meV."""
    pref, A, _ = _lattice_sums(geom, crystal, constants)
    return abs(pref * A)


def deviation_slope(geom: DiffractionGeometry,
                    constants: PhysicalConstants = CONSTANTS,
                    step: float = 1e-9) -> float:
    """d alpha0 / d theta at the scan centre, meV/rad (numeric)."""
    hb2m = constants.hbar2_over_2m_meV_A2
    H = np.asarray(geom.H)

    def a0(th):
        k = geom.incident(theta=th, rho=geom.rho)
        return -hb2m * (2.0 * float(k @ H) + float(H @ H))

    return (a0(geom.theta + step) - a0(geom.theta - step)) / (2.0 * step)


def darwin_center_theta(crystal: CrystalModel, geom: DiffractionGeometry,
                        constants: PhysicalConstants = CONSTANTS) -> float:
    """Rocking offset of the refraction-shifted Darwin curve centre.

    Solves alpha0(theta) = v0 (1 - beta) by Newton iteration; returns 0 for
    backscattering-degenerate geometries where the slope vanishes.
    """
    v0 = mean_potential_meV(crystal, constants)
    hb2m = constants.hbar2_over_2m_meV_A2
    H = np.asarray(geom.H)
    n = np.asarray(geom.n)

    def f(th):
        k = geom.incident(theta=th, rho=geom.rho)
        alpha0 = -hb2m * (2.0 * float(k @ H) + float(H @ H))
        beta = float((k + H) @ n) / float(k @ n)
        return alpha0 - v0 * (1.0 - beta)

    th = 0.0
    for _ in range(60):
        step = 1e-9
        d = (f(th + step) - f(th - step)) / (2.0 * step)
        if abs(d) < 1e-6:   # backscattering: quadratic deviation, no centre
            return 0.0
        new = th - f(th) / d
        if abs(new - th) < 1e-16:
            return new
        th = new
    return th


def darwin_fwhm_rad(crystal: CrystalModel, geom: DiffractionGeometry,
                    constants: PhysicalConstants = CONSTANTS,
                    n_theta: int = 4001) -> float:
    """FWHM of the thick-crystal scalar-channel rocking curve, numeric.

    The crystal's spin-orbit term is switched off (scalar theory) and the
    thickness is raised far beyond the extinction length so the plateau is
    saturated; the width comes from half-maximum crossings of R(theta).
    """
    if geom.kind != BRAGG:
        raise DispersionError("Darwin width is defined for Bragg geometry")
    scal = crystal.without_schwinger()
    vh = scalar_reflection_scale(scal, geom, constants)
    slope = abs(deviation_slope(geom, constants))
    if slope == 0.0:
        raise DispersionError("vanishing deviation slope (backscattering)")
    halfwidth = 6.0 * vh * np.sqrt(abs(geom.b_asym) + 1.0) / slope
    center = darwin_center_theta(scal, geom, constants)
    # plateau-centre decay depth 1/Im(kappa); thickness far beyond it
    z_ext = 2.0 * constants.hbar2_over_2m_meV_A2 * geom.k_mag * abs(geom.cos_gamma) / vh
    thick = replace(geom, thickness_A=100.0 * z_ext)
    th = center + np.linspace(-halfwidth, halfwidth, n_theta)
    res = exit_amplitude_maps(thick, scal, np.array([1.0, 0.0]), th,
                              np.zeros_like(th), constants)
    R = res["R"]
    half = 0.5 * R.max()
    above = R >= half
    idx = np.flatnonzero(above)
    if idx.size < 2 or idx[0] == 0 or idx[-1] == R.size - 1:
        raise DispersionError("Darwin scan window failed to bracket the curve")
    lo, hi = idx[0], idx[-1]
    th_lo = np.interp(half, [R[lo - 1], R[lo]], [th[lo - 1], th[lo]])
    th_hi = np.interp(half, [R[hi + 1], R[hi]], [th[hi + 1], th[hi]])
    return float(th_hi - th_lo)
