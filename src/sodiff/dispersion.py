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

import functools
import logging
from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS, FM_TO_A
from .crystal import (
    CrystalModel,
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

    thickness_A is measured along the inward surface normal n.  The
    rocking/tilt offsets (theta, rho) are not part of the geometry: every
    engine takes them as broadcast arrays and evaluates them through
    kinematics().
    """

    k0: tuple[float, float, float]      # nominal incident wavevector, 1/A
    H: tuple[float, float, float]       # reciprocal vector in the lab frame
    n: tuple[float, float, float]       # inward surface normal, unit
    kind: str                           # BRAGG or LAUE
    thickness_A: float
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

    def kinematics(self, theta, rho):
        """Incidence kinematics over broadcast rocking/tilt offsets.

        Returns (k, g0, gH, alpha0): the exact incident wavevector
        k = |k0| (1, theta, rho)/norm (..., 3), the direction cosines
        g0 = k.n and gH = (k+H).n scaled by |k0|, and the deviation from the
        Bragg condition alpha0 = (hbar^2/2m)(|k|^2 - |k+H|^2) in meV.  The
        asymmetry ratio beta = gH/g0 is left to the caller, which must rule
        out grazing incidence (g0 = 0) first.
        """
        th, rh = np.broadcast_arrays(np.asarray(theta, float),
                                     np.asarray(rho, float))
        norm = np.sqrt(1.0 + th**2 + rh**2)
        unit = np.stack([np.ones_like(th), th, rh], axis=-1)
        k = self.k_mag * unit / norm[..., None]
        H = np.asarray(self.H, float)
        n = np.asarray(self.n, float)
        alpha0 = -CONSTANTS.hbar2_over_2m_meV_A2 * (2.0 * (k @ H) + float(H @ H))
        return k, k @ n, (k + H) @ n, alpha0

    @property
    def cos_gamma(self) -> float:
        """Incidence direction cosine k.n/|k0| at the nominal beam."""
        _, g0, _, _ = self.kinematics(0.0, 0.0)
        return float(g0) / self.k_mag

    @property
    def b_asym(self) -> float:
        """Asymmetry factor g0/gH at the nominal beam."""
        _, g0, gH, _ = self.kinematics(0.0, 0.0)
        return float(g0) / float(gH)


def make_geometry(crystal: CrystalModel, hkl, wavelength_A: float, kind: str,
                  thickness_A: float) -> DiffractionGeometry:
    """Symmetric-geometry builder in the canonical lab frame.

    Bragg: reflecting planes parallel to the surface, H antiparallel to the
    inward normal.  Laue: planes perpendicular to the surface.  The Bragg
    angle follows from |H| = 2|k0| sin(theta_B).

    The nominal beam (the lab x axis) is placed by sin(theta_B).  Up to
    0.99 it lies exactly on the kinematic Bragg condition,
    H = |H| (-sin, cos, 0).  Above 0.99 it is aligned with the
    backscattering axis, H = -|H| x, the natural frame where the vortex
    structure is centred on H; there n = +x for Bragg, and the Laue
    surface degenerates to the grazing -y normal (flat-surface
    idealisation), so that the rocking half-plane theta < 0 is the side on
    which the beam actually enters the crystal.
    """
    h_vec = reciprocal_vector(crystal, hkl)
    h_mag = float(np.linalg.norm(h_vec))
    k_mag = 2.0 * np.pi / wavelength_A
    s = h_mag / (2.0 * k_mag)
    if s > 1.0 + 1e-8:
        raise DispersionError(
            f"Bragg condition unreachable: |H|/2|k0| = {s:.6f} > 1")
    if s > 0.99:
        H = (-h_mag, 0.0, 0.0)
        n = (1.0, 0.0, 0.0) if kind == BRAGG else (0.0, -1.0, 0.0)
    else:
        c = np.sqrt(1.0 - s * s)
        H = tuple(h_mag * np.array([-s, c, 0.0]))
        n = (s, -c, 0.0) if kind == BRAGG else (c, s, 0.0)
    return DiffractionGeometry(k0=(k_mag, 0.0, 0.0), H=H, n=n, kind=kind,
                               thickness_A=thickness_A,
                               hkl=tuple(int(i) for i in hkl))


def backscattering_wavelength(crystal: CrystalModel, hkl, kind: str) -> float:
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
    v0 = mean_potential_meV(crystal)
    energy = CONSTANTS.energy_meV(2.0 * d)
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


_REFLECTION_CACHE_SIZE = 32


@dataclass(frozen=True)
class Reflection:
    """One reflection of one crystal, independent of the incident beam:
    the channel potentials are v_H = pref (A -+ 2i w B)."""

    H: tuple[float, float, float]   # crystal-frame reciprocal vector, 1/A
    h_mag: float                    # |H|, 1/A
    A: complex                      # sum_j b_j e^{iH.r_j}, fm
    B: complex                      # sum_j gamma_j e^{iH.r_j}, fm
    pref: float                     # (2 pi hbar^2/m) / V_cell, meV/fm
    v0: float                       # V(0), meV


def _reflection(geom: DiffractionGeometry, crystal: CrystalModel) -> Reflection:
    """The geometry's reflection of the crystal, built once per distinct
    (crystal value, hkl) and kept in a bounded LRU cache.  Atomic phases
    e^{iH.r} need the crystal-frame H, recovered from the stored Miller
    indices; hand-built geometries without hkl are taken to have their H
    already in the crystal frame, and are keyed on it."""
    if geom.hkl is not None:
        return _build_reflection(crystal, geom.hkl, None)
    return _build_reflection(crystal, None, tuple(float(h) for h in geom.H))


@functools.lru_cache(maxsize=_REFLECTION_CACHE_SIZE)
def _build_reflection(crystal: CrystalModel, hkl, H) -> Reflection:
    H = reciprocal_vector(crystal, hkl) if hkl is not None else np.asarray(H, float)
    A, B, h_mag = structure_sums(crystal, H)
    pref = CONSTANTS.two_pi_hbar2_over_m_meV_A3 * FM_TO_A / crystal.cell_volume_A3
    return Reflection(H=tuple(float(h) for h in H), h_mag=h_mag, A=A, B=B,
                      pref=pref, v0=mean_potential_meV(crystal))


def _channels(geom: DiffractionGeometry, crystal: CrystalModel, u0_spinor,
              theta, rho) -> dict:
    """Both spin channels of the two-beam problem over broadcast (theta, rho).

    The potential is diagonalised per point along the local spin-orbit axis
    u_hat(K x H); channel c = 0 (1) is the sigma.u_hat = +1 (-1) eigenstate
    with v_H = pref (A -+ 2i w B).  Points where K || H carry no spin-orbit
    term and propagate spin-diagonally.  pref, A, B and v0 are read from
    the geometry's cached Reflection of the crystal; only the kinematics,
    the axis and the roots are computed per call.

    Returns a dict: theta, rho, alpha0, beta, g0, gH, w, u_hat, v0,
    energy_meV, kappa_scale; y and X (channel, branch, ...) from
    _solve_channel; amp0 (channel, ..., 2), the incident spinor projected
    on each channel; backward_error (...), the largest _backward_error of
    the point's four roots, NaN roots skipped.  Channel-major storage keeps
    each channel's arrays contiguous.
    """
    th, rh = np.broadcast_arrays(np.asarray(theta, float),
                                 np.asarray(rho, float))
    shape = th.shape
    k_mag = geom.k_mag
    energy = CONSTANTS.hbar2_over_2m_meV_A2 * k_mag**2

    k, g0, gH, alpha0 = geom.kinematics(th, rh)
    if np.any(g0 == 0.0) or np.any(gH == 0.0):
        raise DispersionError("grid touches an exactly grazing point")
    beta = gH / g0
    u_hat, w = schwinger_axis(k, geom.H)
    del k  # free 24 B per point before the channel arrays are allocated

    refl = _reflection(geom, crystal)
    pref, A, B, v0 = refl.pref, refl.A, refl.B, refl.v0
    b = (1.0 - beta) * v0 - alpha0

    y = np.zeros((2, 2) + shape, complex)
    X = np.zeros((2, 2) + shape, complex)
    backward = np.zeros(shape)
    for ci, s in enumerate((+1.0, -1.0)):
        vH = pref * (A - 2.0j * s * w * B)
        vmH = pref * (np.conj(A) + 2.0j * s * w * np.conj(B))
        p = vH * vmH
        y1, y2, X1, X2 = _solve_channel(beta, b, p, vH)
        y[ci, 0], y[ci, 1] = y1, y2
        X[ci, 0], X[ci, 1] = X1, X2
        worst = np.fmax.reduce(_backward_error(beta, b, p, y[ci]), axis=0)
        backward = np.fmax(backward, worst)

    return {"theta": th, "rho": rh, "alpha0": alpha0, "beta": beta,
            "g0": g0, "gH": gH, "w": w, "u_hat": u_hat, "v0": v0,
            "energy_meV": energy, "kappa_scale": k_mag**2 / g0,
            "y": y, "X": X, "amp0": _channel_projections(u_hat, u0_spinor),
            "backward_error": backward}


def _channel_projections(u_hat, u0_spinor) -> np.ndarray:
    """The incident spinor projected on both channels, (channel, ..., 2).

    The projector 1/2 (1 + s sigma.u_hat) is written out, 1/2 (1 +- s u_z)
    on the diagonal and 1/2 s (u_x -+ i u_y) off it, and applied in the
    operation order of a matmul, whose values it reproduces bit for bit.
    One point is computed as a 1-element array: numpy's scalar arithmetic
    rounds complex products differently from its array loops.
    """
    ux, uy, uz = u_hat.reshape(-1, 3).T
    u_minus = ux - 1j * uy
    u_plus = ux + 1j * uy
    u00, u01 = np.asarray(u0_spinor, complex)
    amp0 = np.empty((2, uz.size, 2), complex)
    for ci, s in enumerate((+1.0, -1.0)):
        amp0[ci, :, 0] = 0.5 * (1.0 + s * uz) * u00 + 0.5 * s * u_minus * u01
        amp0[ci, :, 1] = 0.5 * s * u_plus * u00 + 0.5 * (1.0 - s * uz) * u01
    return amp0.reshape((2,) + u_hat.shape[:-1] + (2,))


def _transfer_setup(kind, ch: dict, ci: int):
    """Thickness-independent part of the transfer factors of channel ci of
    the _channels result ch: (i g1, i g2, X1, X2, diff, X1 X2), from the
    branch wavenumbers kap = kappa_scale (y - v0) / 2E.  Bragg relabels the
    branches 1 = a = growing, 2 = b = decaying, takes g1 = kap_b - kap_a,
    g2 = kap_b (so |e^{i g1 D}| <= 1) and diff = X_a - X_b; Laue keeps the
    branch order, g = kap and diff = X2 - X1."""
    kappa_scale, v0, energy = ch["kappa_scale"], ch["v0"], ch["energy_meV"]
    y, X = ch["y"], ch["X"]
    # real * complex: exact under the operand swap of _transfer_factors
    kap1, kap2 = [kappa_scale * (y[ci, b] - v0) / (2 * energy) for b in (0, 1)]
    X1, X2 = X[ci, 0], X[ci, 1]
    if kind == BRAGG:
        a_first = kap1.imag <= kap2.imag
        kap_a = np.where(a_first, kap1, kap2)
        kap_b = np.where(a_first, kap2, kap1)
        X_a = np.where(a_first, X1, X2)
        X_b = np.where(a_first, X2, X1)
        return (1j * (kap_b - kap_a), 1j * kap_b, X_a, X_b, X_a - X_b,
                X_a * X_b)
    return 1j * kap1, 1j * kap2, X1, X2, X2 - X1, X1 * X2


def _transfer_factors(kind, setup, D):
    """Exit amplitude per unit incident amplitude for one spin channel at
    thickness D, from its _transfer_setup.

    Returns (t, r): forward (at depth D) and diffracted (entry face for
    Bragg, depth D for Laue) envelope amplitudes; overall plane-wave phase
    factors common to all grid points are dropped.

    No complex product here or in the ensemble sums has a temporary as its
    right operand: numpy evaluates ``a * (b - c)`` on arrays of 256 KiB or
    more in place as ``(b - c) * a``, and complex multiplication (fused
    multiply-add) is not bitwise commutative, so the values would depend on
    the array size and a tiled grid would differ from a whole-grid call.
    """
    ig1, ig2, X1, X2, diff, prod = setup
    if kind == BRAGG:
        q = np.exp(ig1 * D)
        E_b = np.exp(ig2 * D)
        den = X1 - q * X2
        one_minus_q = 1.0 - q
        return diff * E_b / den, prod * one_minus_q / den
    E1 = np.exp(ig1 * D)
    E2 = np.exp(ig2 * D)
    beat = E1 - E2
    return (X2 * E1 - X1 * E2) / diff, prod * beat / diff


def exit_amplitude_maps(geom: DiffractionGeometry, crystal: CrystalModel,
                        u0_spinor, theta, rho) -> dict:
    """Exit spinor envelopes over broadcastable (theta, rho) offsets.

    Both scalar channels of _channels are carried through the crystal and
    the exit transfer operator sum_s t_s P_s is applied to the incident
    spinor in the fixed lab basis.

    Returns a dict of arrays: psi0, psiH (..., 2), R, T, plus diagnostics
    (alpha0, beta, g0, gH, w, u_hat, y, X, t, r per channel/branch and the
    per-point root backward_error).
    """
    ch = _channels(geom, crystal, u0_spinor, theta, rho)
    shape = ch["g0"].shape

    psi0 = np.zeros(shape + (2,), complex)
    psiH = np.zeros(shape + (2,), complex)
    t_all = np.zeros(shape + (2,), complex)
    r_all = np.zeros(shape + (2,), complex)
    for ci in range(2):
        t, r = _transfer_factors(geom.kind, _transfer_setup(geom.kind, ch, ci),
                                 geom.thickness_A)
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
    """Gaussian ensemble weight exp(-x^2/2) on the real beat frequency
    x = Re(dk) sigma.

    A Gaussian thickness spread of width sigma multiplies every beat term
    e^{i dk D} of a quadratic product by exp(-(dk sigma)^2/2): beats from
    branch interference (dk ~ rad/um) are annihilated to below double
    precision while the spin-orbit phase differences that carry the physics
    (dk ~ rad/m) are untouched to one part in 1e10.
    """
    return np.exp(-0.5 * x**2)


_BRAGG_ENSEMBLE_POINTS = 32
# |Re(dk)| span_A beyond which a Laue cross-branch beat is dropped: its
# window factor is then below exp(-72) = 5.4e-32
_NEGLIGIBLE_BEAT = 12.0


def exit_coherence_maps(geom: DiffractionGeometry, crystal: CrystalModel,
                        u0_spinor, theta, rho,
                        span_A: float | None = None) -> dict:
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
    two-exponential sums): one sum of branch beats for each of the three
    channel entries C[0,0], C[1,1] and C[0,1], with C[1,0] = conj(C[0,1]).
    A cross-branch beat is dropped at every point where its window factor
    is below exp(-_NEGLIGIBLE_BEAT^2/2) = 5.4e-32, and not formed at all
    where that holds over the whole call, so a 35 mm backscattering crystal
    forms 6 exponentials per point.  Bragg averages _BRAGG_ENSEMBLE_POINTS
    equally weighted thicknesses uniform over +-1.5 span_A, reached by
    stepped exponentials (round-off about 1e-14 at 100 um, 1e-12 at
    10 mm).  span_A (Angstrom, finite and >= 0) defaults to 1e-5 of the
    thickness, far below any real tolerance yet enough to suppress the Laue
    branch beats below double precision.

    Returns dict with rho0, rhoH (..., 2, 2) per-beam coherence matrices
    (exactly Hermitian, with a real diagonal), fluxes R, T, and g0 (> 0
    where the beam enters the crystal).
    """
    if span_A is None:
        span_A = 1e-5 * geom.thickness_A
    elif not 0.0 <= span_A < np.inf:
        raise DispersionError(f"span_A must be finite and >= 0, got {span_A}")
    ch = _channels(geom, crystal, u0_spinor, theta, rho)
    shape = ch["g0"].shape
    setups = [_transfer_setup(geom.kind, ch, ci) for ci in range(2)]

    C0 = np.zeros(shape + (2, 2), complex)   # <t_s conj(t_s')>
    CH = np.zeros(shape + (2, 2), complex)
    if geom.kind == LAUE:
        # Laue amplitudes are two-exponential sums, so the Gaussian
        # thickness-ensemble average of every quadratic product is exact:
        # <e^{i dk D'}> over D' ~ N(D, span_A^2) equals
        # e^{i dk D} exp(-(dk span_A)^2 / 2), with Re(dk) in the window.
        ig = [(ig1, ig2) for ig1, ig2, *_ in setups]
        At = [(X2 / diff, -X1 / diff) for _, _, X1, X2, diff, _ in setups]
        Ar = [(prod / diff, -prod / diff) for *_, diff, prod in setups]
        D = geom.thickness_A
        for a, b in ((0, 0), (1, 1), (0, 1)):
            for i in range(2):
                for j in range(2):
                    # i dk with dk = g_ai - conj(g_bj); conj(...) leads
                    # every product below: see _transfer_factors
                    x = (ig[a][i].imag - ig[b][j].imag) * span_A   # Re(dk)
                    keep = True
                    if i != j:   # per point, so tiles cannot tell
                        keep = ~(np.abs(x) > _NEGLIGIBLE_BEAT)
                        if not keep.any():
                            continue
                    idk = ig[a][i] + np.conj(ig[b][j])
                    win = _window_factor(x) * np.exp(idk * D)
                    for C, Amp in ((C0, At), (CH, Ar)):
                        np.add(C[..., a, b], np.conj(Amp[b][j]) * Amp[a][i]
                               * win, out=C[..., a, b], where=keep)
        for C in (C0, CH):
            C[..., 1, 0] = np.conj(C[..., 0, 1])
    else:
        # Equally spaced thicknesses D0 + k h: q = e^{i g1 D}, E_b = e^{i g2 D}
        # are stepped by e^{i g h}, for both spin channels at once.  Only
        # |z|^2 and conj(z_1) z_0 of z = t/diff, r/prod are summed.
        S = np.array(setups).swapaxes(0, 1)   # (factor, channel, ...)
        X_a, X_b, diff, prod = S[2:]
        n = _BRAGG_ENSEMBLE_POINTS
        q, E_b = qE = np.exp(S[:2] * (geom.thickness_A - 1.5 * span_A))
        step = np.exp(S[:2] * (3.0 * span_A / (n - 1)))
        diag, off = np.zeros((2, 2) + shape), np.zeros((2,) + shape, complex)
        for _ in range(n):
            inv = 1.0 / (X_a - q * X_b)
            for i, z in enumerate((E_b * inv, (1.0 - q) * inv)):
                diag[i] += z.real * z.real
                diag[i] += z.imag * z.imag
                off[i] += np.conj(z[1]) * z[0]
            qE *= step   # q and E_b are views of qE
        for C, d, o, f in zip((C0, CH), diag, off, (diff, prod)):
            C[..., 0, 0], C[..., 1, 1] = np.abs(f) ** 2 * d / n
            C[..., 0, 1] = np.conj(f[1]) * f[0] * o / n
            C[..., 1, 0] = np.conj(C[..., 0, 1])

    basis = ch["amp0"]
    rho0 = np.zeros(shape + (2, 2), complex)
    rhoH = np.zeros(shape + (2, 2), complex)
    for a in range(2):
        for b in range(2):
            outer = basis[a][..., :, None] * np.conj(basis[b][..., None, :])
            rho0 += C0[..., a, b, None, None] * outer
            rhoH += CH[..., a, b, None, None] * outer
    for m in (rho0, rhoH):   # exactly Hermitian, as C0 and CH are
        m[..., 1, 0] = np.conj(m[..., 0, 1])
        m[..., (0, 1), (0, 1)] = m[..., (0, 1), (0, 1)].real

    T = np.real(np.trace(rho0, axis1=-2, axis2=-1))
    R = (np.real(np.trace(rhoH, axis1=-2, axis2=-1))
         * np.abs(ch["gH"]) / ch["g0"])
    return {"rho0": rho0, "rhoH": rhoH, "R": R, "T": T, "g0": ch["g0"]}


# ---------------------------------------------------------------------------
# Derived scan helpers
# ---------------------------------------------------------------------------

def scalar_reflection_scale(crystal: CrystalModel,
                            geom: DiffractionGeometry) -> float:
    """|v_H| = |pref A| of the spin-averaged (nuclear) channel, in meV,
    read from the geometry's cached Reflection of the crystal."""
    refl = _reflection(geom, crystal)
    return abs(refl.pref * refl.A)


def deviation_slope(geom: DiffractionGeometry) -> float:
    """d alpha0 / d theta at theta = 0, meV/rad (central difference)."""
    step = 1e-9
    up, down = (geom.kinematics(th, 0.0)[3] for th in (step, -step))
    return float(up - down) / (2.0 * step)


def darwin_center_theta(crystal: CrystalModel, geom: DiffractionGeometry) -> float:
    """Rocking offset of the refraction-shifted Darwin curve centre.

    Solves alpha0(theta) = v0 (1 - beta) by Newton iteration; returns 0 for
    backscattering-degenerate geometries where the slope vanishes.
    """
    v0 = mean_potential_meV(crystal)

    def f(th):
        _, g0, gH, alpha0 = geom.kinematics(th, 0.0)
        return float(alpha0) - v0 * (1.0 - float(gH) / float(g0))

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


def darwin_fwhm_rad(crystal: CrystalModel, geom: DiffractionGeometry) -> float:
    """FWHM of the thick-crystal scalar-channel rocking curve, numeric.

    The crystal's spin-orbit term is switched off (scalar theory) and the
    thickness is raised far beyond the extinction length so the plateau is
    saturated; the width comes from the half-maximum crossings of R(theta)
    sampled at 4001 points.
    """
    if geom.kind != BRAGG:
        raise DispersionError("Darwin width is defined for Bragg geometry")
    scal = crystal.without_schwinger()
    vh = scalar_reflection_scale(scal, geom)
    slope = abs(deviation_slope(geom))
    if slope == 0.0:
        raise DispersionError("vanishing deviation slope (backscattering)")
    halfwidth = 6.0 * vh * np.sqrt(abs(geom.b_asym) + 1.0) / slope
    center = darwin_center_theta(scal, geom)
    # plateau-centre decay depth 1/Im(kappa); thickness far beyond it
    z_ext = 2.0 * CONSTANTS.hbar2_over_2m_meV_A2 * geom.k_mag * abs(geom.cos_gamma) / vh
    thick = replace(geom, thickness_A=100.0 * z_ext)
    th = center + np.linspace(-halfwidth, halfwidth, 4001)
    res = exit_amplitude_maps(thick, scal, np.array([1.0, 0.0]), th,
                              np.zeros_like(th))
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
