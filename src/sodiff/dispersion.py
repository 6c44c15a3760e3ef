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
import math
import operator
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS, FM_TO_A
from .crystal import (
    CrystalError,
    CrystalModel,
    _reciprocal,
    mean_potential_meV,
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
    kinematics().  The vectors are stored as 3-tuples of floats, hkl as a
    3-tuple of ints (or None), kind as a str and thickness_A as a float,
    whatever sequences or arrays they were given as, so a geometry is
    hashable.
    """

    k0: tuple[float, float, float]      # nominal incident wavevector, 1/A
    H: tuple[float, float, float]       # reciprocal vector in the lab frame
    n: tuple[float, float, float]       # inward surface normal, unit
    kind: str                           # BRAGG or LAUE
    thickness_A: float
    hkl: tuple[int, int, int] | None = None  # for structure-factor phases

    def __post_init__(self):
        kind = str(self.kind)
        if kind not in (BRAGG, LAUE):
            raise DispersionError(f"unknown geometry kind {kind!r}")
        hkl = self.hkl
        stored = {"kind": kind, "thickness_A": float(self.thickness_A),
                  "k0": _triple("k0", self.k0, float),
                  "H": _triple("H", self.H, float),
                  "n": _triple("n", self.n, float),
                  "hkl": hkl if hkl is None else _triple("hkl", hkl, int)}
        # only a field that was converted is set again: a geometry made by
        # dataclasses.replace sets _k_mag alone
        for name, value in stored.items():
            if value is not getattr(self, name):
                object.__setattr__(self, name, value)
        object.__setattr__(self, "_k_mag", None)   # see k_mag
        if abs(math.hypot(*self.n) - 1.0) > 1e-12:
            raise DispersionError("surface normal must be unit length")
        if not 0.0 <= self.thickness_A < math.inf:
            raise DispersionError(
                f"thickness must be finite and >= 0, got {self.thickness_A}")

    @property
    def k_mag(self) -> float:
        """|k0|, computed on first use and kept: the engines, kinematics()
        and wavelength_A read it on every call.  Its slot is set to None at
        construction, so that every instance has the same attributes."""
        if self._k_mag is None:
            object.__setattr__(self, "_k_mag", float(np.linalg.norm(self.k0)))
        return self._k_mag

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
        k = _wavevector(self.k_mag, theta, rho)
        H = np.asarray(self.H, float)
        alpha0 = -CONSTANTS.hbar2_over_2m_meV_A2 * (2.0 * (k @ H) + float(H @ H))
        return k, k @ self.n, (k + H) @ self.n, alpha0

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


def _triple(name: str, values, kind: type) -> tuple:
    """values as a 3-tuple of kind, float or int (taken by operator.index,
    so 1.5 is refused); DispersionError otherwise.  A tuple that already is
    one is returned itself, so geometries made by dataclasses.replace share
    their vectors."""
    if (type(values) is tuple and len(values) == 3
            and type(values[0]) is type(values[1]) is type(values[2]) is kind):
        return values
    try:
        out = tuple(map(float if kind is float else operator.index, values))
    except (TypeError, ValueError) as exc:
        raise DispersionError(f"{name} must be three numbers: {exc}") from None
    if len(out) != 3:
        raise DispersionError(f"{name} must have 3 components, got {len(out)}")
    return out


def _wavevector(k_mag: float, theta, rho) -> np.ndarray:
    """k = |k0| (1, theta, rho)/norm, (..., 3).  The norm is formed as
    sqrt(1 + (theta^2 + rho^2)), so k at (rho, theta) is k at (theta, rho)
    with its y and z components swapped, bit for bit."""
    th, rh = np.asarray(theta, float), np.asarray(rho, float)
    norm = np.sqrt(1.0 + (th**2 + rh**2))
    k = np.empty(norm.shape + (3,))
    k[..., 0], k[..., 1], k[..., 2] = 1.0, th, rh
    k *= k_mag
    k /= norm[..., None]
    return k


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
    if not 0.0 < wavelength_A < np.inf:
        raise DispersionError(
            f"wavelength must be finite and > 0, got {wavelength_A}")
    hkl = _triple("hkl", hkl, int)
    h_mag = _reciprocal(crystal, hkl)[1]
    k_mag = 2.0 * np.pi / wavelength_A
    s = h_mag / (2.0 * k_mag)
    if s > 1.0 + 1e-8:
        raise DispersionError(
            f"Bragg condition unreachable: |H|/2|k0| = {s:.6f} > 1")
    if s > 0.99:
        H = (-h_mag, 0.0, 0.0)
        n = (1.0, 0.0, 0.0) if kind == BRAGG else (0.0, -1.0, 0.0)
    else:
        c = math.sqrt(1.0 - s * s)
        H = (h_mag * -s, h_mag * c, 0.0)
        n = (s, -c, 0.0) if kind == BRAGG else (c, s, 0.0)
    return DiffractionGeometry(k0=(k_mag, 0.0, 0.0), H=H, n=n, kind=kind,
                               thickness_A=thickness_A, hkl=hkl)


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
    p = vH vmH.  Returns (y, X), each (branch, ...), with y = 2 E eps + v0
    and X = -y/vH, ordered by ascending Re(eps) where the roots differ more
    in their real parts, else by ascending Im(eps): in a total-reflection
    zone the real parts differ by round-off only.  The smaller root is
    computed from the product y1 y2 = -p / beta to avoid cancellation.
    """
    vH = np.asarray(vH, complex)
    if not vH.all():
        raise DispersionError("forbidden reflection: V(H) = 0")

    disc = np.asarray(b**2 + 4.0 * beta * p, complex)
    sq = np.sqrt(disc)
    # pick the sign that maximises |b -+ sq| for the well-conditioned root
    neg_b = -b
    plus = neg_b + sq
    minus = neg_b - sq
    use_plus = np.abs(plus) >= np.abs(minus)
    y_big = np.where(use_plus, plus, minus) / (2.0 * beta)
    y = np.array(((-p / beta) / y_big, y_big))
    d = y_big - y[0]
    swap = np.where(np.abs(d.real) >= np.abs(d.imag), d.real, d.imag) < 0.0
    y = np.where(swap, y[::-1], y)
    return y, -y / vH


def _backward_error(beta, b, p, y):
    """Backward error |beta y^2 + b y - p| / (|beta||y|^2 + |b||y| + |p|)
    of computed roots y (stacked on leading branch and channel axes): the
    smallest relative change of the coefficients that makes y exact.
    Unlike the residual of the two-beam equations it does not grow with the
    distance from the Bragg condition."""
    ay = np.abs(y)
    return (np.abs((beta * y + b) * y - p)
            / (np.abs(beta) * ay**2 + np.abs(b) * ay + np.abs(p)))


_REFLECTION_CACHE_SIZE = 32
# one-point _channels results (read-only, never returned: see _point) and
# first-miss marks kept by _reused_channels.  A thickness sweep needs one entry
# (point_sweep's Pendelloesung group and criterion 10 each sweep one point);
# 16 is not tuned to any measured traffic.
_CHANNEL_CACHE_SIZE = 16
_CHANNEL_CACHE: OrderedDict = OrderedDict()
_CHANNEL_LOCK = threading.Lock()
_UNSEEN = object()


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
    return _build_reflection(crystal, None, geom.H)


@functools.lru_cache(maxsize=_REFLECTION_CACHE_SIZE)
def _build_reflection(crystal: CrystalModel, hkl, H) -> Reflection:
    H, h_mag = (_reciprocal(crystal, hkl) if hkl is not None
                else (np.asarray(H, float), None))
    A, B, h_mag = structure_sums(crystal, H, h_mag)
    pref = CONSTANTS.two_pi_hbar2_over_m_meV_A3 * FM_TO_A / crystal.cell_volume_A3
    return Reflection(H=tuple(H.tolist()), h_mag=h_mag, A=A, B=B,
                      pref=pref, v0=mean_potential_meV(crystal))


_SIGNS = np.array([1.0, -1.0])


def _point_setup(geom: DiffractionGeometry, theta: float, rho: float):
    """(g0, gH, alpha0, beta, u_hat, w) of kinematics() and schwinger_axis()
    at one point, as two copies, bit for bit.  IEEE +, -, *, / and sqrt
    round alike at any array size, so k and the spin axis are formed in
    floats in those functions' order; only k.H, k.n and (k + H).n, which
    BLAS rounds for two or more points, stay on the (2, 3) array."""
    k_mag, n, (h0, h1, h2) = geom.k_mag, geom.n, geom.H
    norm = math.sqrt(1.0 + (theta * theta + rho * rho))
    k0, k1, k2 = k_mag / norm, theta * k_mag / norm, rho * k_mag / norm
    k, H = np.array(((k0, k1, k2),) * 2), np.array(geom.H)
    g0, gH, hh = k @ n, (k + H) @ n, float(H @ H)
    if not all((*g0, *gH)):
        raise DispersionError("grid touches an exactly grazing point")
    alpha0 = -CONSTANTS.hbar2_over_2m_meV_A2 * (2.0 * (k @ H) + hh)
    kmag = math.sqrt(k0 * k0 + (k1 * k1 + k2 * k2))
    h_mag = math.sqrt(h0 * h0 + h1 * h1 + h2 * h2)
    if h_mag == 0.0 or not kmag:
        raise CrystalError("schwinger_axis needs non-zero K and H")
    c0, c1, c2 = k1 * h2 - k2 * h1, k2 * h0 - k0 * h2, k0 * h1 - k1 * h0
    cmag = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    par = cmag <= 1e-12 * kmag * h_mag   # K || H: the lab z axis, w = 0
    u_hat = (0.0, 0.0, 1.0) if par else (c0 / cmag, c1 / cmag, c2 / cmag)
    w = 0.0 if par else cmag / hh
    return g0, gH, alpha0, gH / g0, np.array((u_hat,) * 2), np.array((w,) * 2)


def _channels(geom: DiffractionGeometry, crystal: CrystalModel, theta,
              rho) -> dict:
    """Both spin channels of the two-beam problem over broadcast (theta, rho).

    The potential is diagonalised per point along the local spin-orbit axis
    u_hat(K x H); channel c = 0 (1) is the sigma.u_hat = +1 (-1) eigenstate
    with v_H = pref (A -+ 2i w B).  Points where K || H carry no spin-orbit
    term and propagate spin-diagonally.  pref, A, B and v0 are read from
    the geometry's cached Reflection of the crystal; only the kinematics,
    the axis and the roots are computed per call, for both channels at once
    on a leading channel axis.

    Offsets that broadcast to one point are computed as two copies of it
    (point is then their broadcast shape, else None): numpy rounds 0-d
    complex products and k @ v of one point differently, so only an array
    of two or more points rounds as a grid does.  The real set-up of such a
    point is formed in Python floats (_point_setup).

    Returns a dict: point, alpha0, beta, b, g0, gH, w, u_hat, v0,
    energy_meV, kappa_scale over the points (...); p (channel, ...); y and
    X (branch, channel, ...) from _solve_channel.  Only the scans check the
    roots (see wavefield._scan), so no one-point call pays for it.
    """
    th, rh = np.asarray(theta, float), np.asarray(rho, float)
    point = None
    if th.size == rh.size == 1:
        point = th.shape if th.ndim >= rh.ndim else rh.shape
        g0, gH, alpha0, beta, u_hat, w = _point_setup(geom, th.item(), rh.item())
    else:
        k, g0, gH, alpha0 = geom.kinematics(th, rh)
        if not (g0.all() and gH.all()):
            raise DispersionError("grid touches an exactly grazing point")
        beta = gH / g0
        u_hat, w = schwinger_axis(k, geom.H)
        del k  # free 24 B per point before the channel arrays are allocated
    k_mag = geom.k_mag

    refl = _reflection(geom, crystal)
    pref, A, B, v0 = refl.pref, refl.A, refl.B, refl.v0
    b = (1.0 - beta) * v0 - alpha0
    # 2i s w with s = sigma.u_hat of each channel
    isw = 2.0j * _SIGNS.reshape((2,) + (1,) * w.ndim) * w
    vH = pref * (A - isw * B)
    vmH = pref * (A.conjugate() + isw * B.conjugate())
    p = vH * vmH
    y, X = _solve_channel(beta, b, p, vH)

    energy = CONSTANTS.hbar2_over_2m_meV_A2 * k_mag**2
    return {"point": point, "alpha0": alpha0, "beta": beta, "b": b, "p": p,
            "g0": g0, "gH": gH, "w": w, "u_hat": u_hat, "v0": v0,
            "energy_meV": energy, "kappa_scale": k_mag**2 / g0,
            "y": y, "X": X}


def _reused_channels(geom: DiffractionGeometry, crystal: CrystalModel,
                     theta, rho) -> dict:
    """_channels(geom, crystal, theta, rho), taken from the channel cache
    when the offsets broadcast to one point.

    The cache is a bounded LRU shared by all threads.  Its key is
    everything a _channels result reads except the thickness: the bits and
    shapes of theta and rho, the bits of k0, H and n (so -0.0 and +0.0 are
    different keys), kind, hkl and the crystal's value.  A key is stored
    on its second miss; the first only marks it (value None), so a point
    that never comes back (a rocking curve, a random crystal) skips
    freezing its arrays and setting up its transfer factors: storing every
    miss made point_sweep's random and Darwin groups about 8 % slower
    (BENCH_19.json, store_every_miss).  A thickness sweep at one point
    thus solves its channel problem twice and then reads it.

    A stored entry also holds the rest of a call that does not depend on
    the thickness: "setup", the _transfer_setup of its channels, and
    "projections", a one-element list holding the channel projections of
    the last incident spinor used at the point (see _projections).  A hit
    thus leaves only the transfer factors and the assembly to its caller.
    A stored entry's arrays are read-only, the beta, b, p and y that a 1 x 1
    scan's root check reads among them; the caller gets a copy of the
    dict, to which it may add keys, sharing the projections list.  Offsets
    of two or more points (every scan tile but a 1 x 1 grid's) get a plain
    _channels result, without a setup that would outlive its use.
    """
    th, rh = np.asarray(theta, float), np.asarray(rho, float)
    if not th.size == rh.size == 1:
        return _channels(geom, crystal, th, rh)
    key = (th.shape, th.tobytes(), rh.shape, rh.tobytes(),
           struct.pack("9d", *geom.k0, *geom.H, *geom.n), geom.kind,
           geom.hkl, crystal)
    with _CHANNEL_LOCK:
        ch = _CHANNEL_CACHE.get(key, _UNSEEN)
        if ch is not _UNSEEN:
            _CHANNEL_CACHE.move_to_end(key)
    if ch is not None and ch is not _UNSEEN:
        return dict(ch)
    admit = ch is None
    ch = _channels(geom, crystal, th, rh)
    if admit:
        ch["setup"] = _transfer_setup(geom.kind, ch)
        ch["projections"] = [None]
        for v in (*ch.values(), *ch["setup"]):
            if isinstance(v, np.ndarray):
                v.setflags(write=False)
    with _CHANNEL_LOCK:
        _CHANNEL_CACHE[key] = ch if admit else None
        if len(_CHANNEL_CACHE) > _CHANNEL_CACHE_SIZE:
            _CHANNEL_CACHE.popitem(last=False)
    return dict(ch) if admit else ch


def _spin_axis(geom: DiffractionGeometry, theta, rho) -> np.ndarray:
    """u_hat of _channels over broadcast (theta, rho) of two or more points,
    without the channel solve."""
    return schwinger_axis(_wavevector(geom.k_mag, theta, rho), geom.H)[0]


def _channel_projections(u_hat, u0_spinor) -> np.ndarray:
    """The incident spinor projected on both channels, (channel, ..., 2).

    The projector 1/2 (1 + s sigma.u_hat) is written out, 1/2 (1 +- s u_z)
    on the diagonal and 1/2 s (u_x -+ i u_y) off it, and applied to both
    channels at once in the operation order of a matmul, whose values it
    reproduces bit for bit.  A bare (3,) axis is computed as a 1-element
    array: numpy rounds 0-d complex products differently.
    """
    ux, uy, uz = u_hat.reshape(-1, 3).T
    iuy = 1j * uy
    u00, u01 = np.asarray(u0_spinor, complex)
    s = _SIGNS[:, None]
    half_s, s_uz = 0.5 * s, s * uz
    amp0 = np.empty((2, uz.size, 2), complex)
    amp0[..., 0] = 0.5 * (1.0 + s_uz) * u00 + half_s * (ux - iuy) * u01
    amp0[..., 1] = half_s * (ux + iuy) * u00 + 0.5 * (1.0 - s_uz) * u01
    return amp0.reshape((2,) + u_hat.shape[:-1] + (2,))


def _projections(sol: dict, u0_spinor) -> np.ndarray:
    """_channel_projections of the incident spinor on the channels of the
    solve sol.  A stored channel-cache entry (see _reused_channels) keeps
    those of the last spinor used at its point, read-only, keyed on the
    spinor's shape and complex128 bytes; the list item holding key and
    projections is replaced as one tuple, so no thread pairs one spinor's
    key with another's projections."""
    u0 = np.asarray(u0_spinor, complex)
    slot = sol.get("projections")
    if slot is None:
        return _channel_projections(sol["u_hat"], u0)
    key = (u0.shape, u0.tobytes())
    last = slot[0]
    if last is not None and last[0] == key:
        return last[1]
    amp0 = _channel_projections(sol["u_hat"], u0)
    amp0.setflags(write=False)
    slot[0] = (key, amp0)
    return amp0


def _transfer_setup(kind, ch: dict):
    """Thickness-independent part of the transfer factors of both channels
    of the _channels result ch: (i g1, i g2, X1, X2, diff, X1 X2), each
    (channel, ...), from the branch wavenumbers
    kap = kappa_scale (y - v0) / 2E.  Bragg relabels the branches
    1 = a = growing, 2 = b = decaying, takes g1 = kap_b - kap_a, g2 = kap_b
    (so |e^{i g1 D}| <= 1) and diff = X_a - X_b; Laue keeps the branch
    order, g = kap and diff = X2 - X1."""
    # real * complex: exact under the operand swap of _transfer_factors
    kap = ch["kappa_scale"] * (ch["y"] - ch["v0"]) / (2 * ch["energy_meV"])
    X = ch["X"]
    if kind == BRAGG:
        a_first = kap[0].imag <= kap[1].imag
        kap_a, kap_b = np.where(a_first, kap, kap[::-1])
        X_a, X_b = np.where(a_first, X, X[::-1])
        return (1j * (kap_b - kap_a), 1j * kap_b, X_a, X_b, X_a - X_b,
                X_a * X_b)
    (kap1, kap2), (X1, X2) = kap, X
    return 1j * kap1, 1j * kap2, X1, X2, X2 - X1, X1 * X2


def _transfer_factors(kind, setup, D):
    """Exit amplitude per unit incident amplitude of both spin channels at
    thickness D, from their _transfer_setup.

    Returns (t, r), each (channel, ...): forward (at depth D) and
    diffracted (entry face for Bragg, depth D for Laue) envelope
    amplitudes; overall plane-wave phase factors common to all grid points
    are dropped.

    No complex product here, in the ensemble sums or in the assembly has a
    temporary as its right operand: numpy evaluates ``a * (b - c)`` on
    arrays of 256 KiB or more in place as ``(b - c) * a``, and complex
    multiplication (fused multiply-add) is not bitwise commutative, so the
    values would depend on the array size and a tiled grid would differ
    from a whole-grid call.  A (channel, ...) array of a full 8192-point
    scan tile (a line scan, or rows of a power-of-two width) is exactly
    256 KiB, so the rule governs production tiles, not only whole-grid
    calls.
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


def _point(ch: dict, res: dict) -> dict:
    """res as it is, or, when _channels computed a single point twice, its
    first copy in the shape of the call's offsets.  A read-only view there
    is one of the channel cache's arrays (see _reused_channels), such as
    the g0 of exit_coherence_maps, so it is copied: no array a caller
    receives shares memory with the cache."""
    point = ch["point"]
    if point is None:
        return res
    first = (0,) + (None,) * len(point)   # point is all ones
    out = {}
    for key, v in res.items():
        v = v[first]
        frozen = isinstance(v, np.ndarray) and not v.flags.writeable
        out[key] = v.copy() if frozen else v
    return out


# ---------------------------------------------------------------------------
# The two engines: a channel solve, then an assembly per point
#
# The solve (_solve_amplitudes, _solve_coherences) depends on a point's
# spin axis only through w = |K x H|/|H|^2; the assembly (_assemble_*)
# brings in the axis u_hat through the channel projections amp0 of the
# incident spinor.  A scan may therefore assemble one solve at every point
# whose channel problem is the same (see wavefield._scan).
# ---------------------------------------------------------------------------

def _solve_amplitudes(geom: DiffractionGeometry, crystal: CrystalModel,
                      theta, rho) -> dict:
    """The _channels result, read through the one-point cache of
    _reused_channels, with the transfer factors t and r (channel, ...) of
    the geometry's thickness.  A stored entry's transfer setup is read,
    not computed again."""
    sol = _reused_channels(geom, crystal, theta, rho)
    sol["t"], sol["r"] = _transfer_factors(
        geom.kind, sol.get("setup") or _transfer_setup(geom.kind, sol),
        geom.thickness_A)
    return sol


def _assemble_amplitudes(sol: dict, amp0) -> dict:
    """psi0, psiH (..., 2), R and T: the exit transfer operator
    sum_s t_s P_s of the _solve_amplitudes result sol applied to the
    incident spinor, whose channel projections amp0 are given."""
    t, r = sol["t"], sol["r"]
    # sum over the channels, from +0.0 as an accumulator would start
    psi0, psiH = (0.0 + f[0] + f[1] for f in (t[..., None] * amp0,
                                              r[..., None] * amp0))
    a0, aH = np.abs(psi0) ** 2, np.abs(psiH) ** 2
    T = a0[..., 0] + a0[..., 1]
    R = (aH[..., 0] + aH[..., 1]) * np.abs(sol["gH"]) / sol["g0"]
    return {"psi0": psi0, "psiH": psiH, "R": R, "T": T}


def exit_amplitude_maps(geom: DiffractionGeometry, crystal: CrystalModel,
                        u0_spinor, theta, rho) -> dict:
    """Exit spinor envelopes over broadcastable (theta, rho) offsets.

    Both scalar channels of _channels are carried through the crystal on
    their leading channel axis, and the exit transfer operator
    sum_s t_s P_s is applied to the incident spinor in the fixed lab basis.
    A 0-d (theta, rho) gives the same values as that point of a grid.  The
    channel problem of one point does not depend on the thickness, so a
    one-point call reads it from a small shared cache (see
    _reused_channels): a thickness sweep at fixed (theta, rho) solves it,
    sets up its transfer factors and projects the incident spinor on its
    first two calls only (the projections are kept for the last spinor
    used at the point), and the transfer factors and the assembly run on
    every call, with the same bits as a solve.

    Returns a dict of psi0, psiH (..., 2) and R, T and nothing else: the
    channel solve behind them is internal.
    """
    sol = _solve_amplitudes(geom, crystal, theta, rho)
    return _point(sol, _assemble_amplitudes(sol, _projections(sol, u0_spinor)))


# Gauss-Hermite rule of the Bragg thickness ensemble (Abramowitz & Stegun
# 25.4.46): D' = D + x span_A, x ~ N(0, 1), taken as the +-x pairs of its
# positive nodes, each with the square root of its weight.  The nodes and
# weights are those of numpy.polynomial.hermite_e.hermegauss, the weights
# divided by sqrt(2 pi) (checked by the tests), written out because
# importing numpy.polynomial would cost every process 17 ms and 1.6 MB.
_ENSEMBLE_NODES = 8
_NODE_X = np.array([0.5390798113513751, 1.636519042435108,
                    2.8024858612875416, 4.1445471861258945])
_NODE_ROOT_W = np.sqrt([0.37301225767907736, 0.11723990766175905,
                        0.009635220120788258, 0.00011261453837536765])
# |g1| span_A at which the rule's error on <e^{i a x}> = e^{-a^2/2}
# reaches 1e-12 (a = 0.627); beyond it an ensemble is logged as
# under-resolved
_ENSEMBLE_PHASE_LIMIT = 0.62
# The 3-node rule (x = 0 once, then the +-x pair), taken at a point where
# it gives the 8-node rule's result to round-off.  It errs on
# <e^{i b x}> = e^{-b^2/2} by about b^6/120.  The products summed at a
# point are series in rho^j e^{i (j+1) a x}, where a is the largest rate of
# the point's node factors (|g1|, 2 |Im g2| and |g2_0 - conj(g2_1)|, times
# span_A) and rho the ratio of the smaller to the larger of |q0 X2| and
# |X1|, both over the channels.  So the rule errs on them by at most
#     a^6/120 sum_j (j+1)^6 rho^j = a^6/120 A(rho)/(1 - rho)^7,
# A the Eulerian polynomial _SHORT_EULERIAN of degree 5, and a point takes
# it where that bound is at most _SHORT_TOL.
_SHORT_NODE_X = np.array([0.0, 1.7320508075688772])
_SHORT_NODE_ROOT_W = np.sqrt([2.0 / 3.0, 1.0 / 6.0])
_SHORT_EULERIAN = (1, 57, 302, 302, 57, 1)
_SHORT_TOL = 1e-16
# |Re(dk)| span_A beyond which a Laue cross-branch beat is dropped: its
# window factor is then below exp(-72) = 5.4e-32
_NEGLIGIBLE_BEAT = 12.0


def _solve_coherences(geom: DiffractionGeometry, crystal: CrystalModel,
                      theta, rho, span_A: float | None) -> dict:
    """The _channels result with the thickness-ensemble coherences of the
    channel amplitudes, C0 = <t_s conj(t_s')> and CH = <r_s conj(r_s')>,
    each (..., 2, 2) over the channels (s, s'), for exit_coherence_maps.
    A Bragg result also holds ensemble_phase, the call's largest
    |g1| span_A (see _check_ensemble).  The channels are read as in
    _solve_amplitudes."""
    if span_A is None:
        span_A = 1e-5 * geom.thickness_A
    elif not 0.0 <= span_A < np.inf:
        raise DispersionError(f"span_A must be finite and >= 0, got {span_A}")
    sol = _reused_channels(geom, crystal, theta, rho)
    shape = sol["g0"].shape
    ig1, ig2, X1, X2, diff, prod = (sol.get("setup")
                                    or _transfer_setup(geom.kind, sol))

    # stored channel pair first, so that each entry C[..., a, b] that the
    # ensemble writes and the assembly reads is contiguous
    C0, CH = (np.moveaxis(np.zeros((2, 2) + shape, complex), (0, 1), (-2, -1))
              for _ in range(2))
    if geom.kind == LAUE:
        # Laue amplitudes are two-exponential sums, so the Gaussian
        # thickness-ensemble average of every quadratic product is exact:
        # <e^{i dk D'}> over D' ~ N(D, span_A^2) equals
        # e^{i dk D} exp(-(dk span_A)^2 / 2), with Re(dk) in the window: it
        # annihilates branch beats (dk ~ rad/um) and leaves the spin-orbit
        # phases (dk ~ rad/m) to 1e-10.  Indexed [branch][channel].
        ig = (ig1, ig2)
        At = (X2 / diff, -X1 / diff)
        Ar = (prod / diff, -prod / diff)
        D = geom.thickness_A
        for a, b in ((0, 0), (1, 1), (0, 1)):
            for i in range(2):
                for j in range(2):
                    # i dk with dk = g_ai - conj(g_bj); conj(...) leads
                    # every product below: see _transfer_factors
                    x = (ig[i][a].imag - ig[j][b].imag) * span_A   # Re(dk)
                    keep = True
                    if i != j:   # per point, so tiles cannot tell
                        keep = ~(np.abs(x) > _NEGLIGIBLE_BEAT)
                        if not keep.any():
                            continue
                    idk = ig[i][a] + np.conj(ig[j][b])
                    win = np.exp(-0.5 * x**2) * np.exp(idk * D)
                    for C, Amp in ((C0, At), (CH, Ar)):
                        np.add(C[..., a, b], np.conj(Amp[j][b]) * Amp[i][a]
                               * win, out=C[..., a, b], where=keep)
        for C in (C0, CH):
            C[..., 1, 0] = np.conj(C[..., 0, 1])
    else:
        # Each point takes the 3-node rule where it serves (see
        # _short_points) and the 8-node rule elsewhere, the points of each
        # gathered when a call mixes them; the choice is per point, so no
        # value depends on the tile.
        D = geom.thickness_A
        q0 = np.exp(ig1 * D)
        short = _short_points(q0, ig1, ig2, X1, X2, span_A)
        rules = ((short, (_SHORT_NODE_X, _SHORT_NODE_ROOT_W)),
                 (~short, (_NODE_X, _NODE_ROOT_W)))
        diag, off = np.empty((2, 2) + shape), np.empty((2,) + shape, complex)
        for pick, rule in rules:
            if pick.all():
                diag, off = _bragg_node_sums(q0, ig1, ig2, X1, X2, span_A,
                                             *rule)
            elif pick.any():
                # one point is gathered twice: see _channels
                at = np.flatnonzero(pick)
                rows = np.resize(at, max(at.size, 2))
                terms = (v.reshape(2, -1)[:, rows]
                         for v in (q0, ig1, ig2, X1, X2))
                d, o = _bragg_node_sums(*terms, span_A, *rule)
                diag.reshape(2, 2, -1)[..., at] = d[..., :at.size]
                off.reshape(2, -1)[:, at] = o[:, :at.size]
        E_b = np.exp(ig2 * D)
        for C, d, o, f in zip((C0, CH), diag, off, (diff * E_b, prod)):
            C[..., 0, 0], C[..., 1, 1] = np.abs(f) ** 2 * d
            C[..., 0, 1] = np.conj(f[1]) * f[0] * o
            C[..., 1, 0] = np.conj(C[..., 0, 1])
        sol["ensemble_phase"] = span_A * float(np.fmax.reduce(
            np.abs(ig1), axis=None, initial=0.0))
    sol["C0"], sol["CH"] = C0, CH
    return sol


def _short_points(q0, ig1, ig2, X1, X2, span_A):
    """Mask of the points of (channel, ...) arrays that the 3-node rule
    serves (see _SHORT_NODE_X)."""
    near, far = np.abs(q0 * X2), np.abs(X1)
    larger = np.maximum(near, far)
    rho = np.max(np.divide(np.minimum(near, far), larger,
                           out=np.ones(larger.shape), where=larger > 0.0),
                 axis=0)
    rate = np.max(np.maximum(np.abs(ig1), 2.0 * np.abs(ig2.real)), axis=0)
    rate = np.maximum(rate, np.abs(ig2[0] + np.conj(ig2[1]))) * span_A
    poly = np.full(rho.shape, float(_SHORT_EULERIAN[-1]))
    for coef in _SHORT_EULERIAN[-2::-1]:
        poly *= rho
        poly += coef
    a2, fall = rate * rate, 1.0 - rho
    fall2 = fall * fall
    return (a2 * a2 * a2 * poly / 120.0
            <= _SHORT_TOL * (fall2 * fall2 * fall2 * fall))


def _bragg_node_sums(q0, ig1, ig2, X1, X2, span_A, node_x, root_w):
    """Sums over the Gauss-Hermite nodes D' = D + x span_A (x = 0 once and
    the +-x pairs of the other node_x, weights root_w^2) of a Bragg
    ensemble, over (channel, ...) points: diag (2, channel, ...) of |z|^2
    and off (2, ...) of conj(z_1) z_0, for z = t/(diff E_b) and r/prod.

    e^{i g1 D'} is q0 = e^{i g1 D} times or divided by e^{i g1 x span_A},
    one exp per pair.  E_b's node factor e = e^{i g2 x span_A} enters the
    t sums as |e|^{+-2} = e^{+-2 Re(i g2) x span_A} and, in conj(z_1) z_0,
    as conj(e_1) e_0 = e^{(i g2_0 + conj(i g2_1)) x span_A} or its
    reciprocal.  Only 1/(X1 - q X2) depends on the node otherwise; its
    |.|^2 and the products of both channels' reciprocals serve both
    sums, with sqrt(w) folded into the reciprocal, in buffers reused
    from node to node."""
    shape = q0.shape[1:]
    q, inv, step = (np.empty_like(q0) for _ in range(3))
    mag, e2, sq, sq2 = (np.empty(q0.shape) for _ in range(4))
    pair, phase, cz = (np.empty(shape, complex) for _ in range(3))
    re2 = 2.0 * ig2.real
    dphase = ig2[0] + np.conj(ig2[1])
    diag, off = np.zeros((2, 2) + shape), np.zeros((2,) + shape, complex)
    for x, w in zip(node_x, root_w):
        if x:
            xs = x * span_A
            np.exp(np.multiply(ig1, xs, out=step), out=step)
            np.exp(np.multiply(re2, xs, out=e2), out=e2)
            np.exp(np.multiply(dphase, xs, out=phase), out=phase)
            applies = (np.multiply, np.divide)   # the node +x, then -x
        else:
            for v in (step, e2, phase):
                v.fill(1.0)
            applies = (np.multiply,)
        for apply in applies:
            apply(q0, step, out=q)
            np.multiply(q, X2, out=inv)
            np.subtract(X1, inv, out=inv)
            np.divide(w, inv, out=inv)
            np.multiply(inv.real, inv.real, out=mag)
            mag += np.multiply(inv.imag, inv.imag, out=sq)
            np.conjugate(inv[1], out=pair)
            np.multiply(pair, inv[0], out=pair)
            diag[0] += apply(mag, e2, out=sq)
            off[0] += apply(pair, phase, out=cz)
            omq = np.subtract(1.0, q, out=inv)   # inv is spent
            np.multiply(omq.real, omq.real, out=sq)
            sq += np.multiply(omq.imag, omq.imag, out=sq2)
            diag[1] += np.multiply(mag, sq, out=sq)
            np.conjugate(omq[1], out=cz)
            np.multiply(cz, omq[0], out=cz)
            off[1] += np.multiply(pair, cz, out=cz)
    return diag, off


def _assemble_coherences(sol: dict, amp0) -> dict:
    """rho0, rhoH (..., 2, 2), R and T: the channel coherences of the
    _solve_coherences result sol carried to the lab spin basis by the
    channel projections amp0 of the incident spinor.

    Only the independent entries [0,0], [0,1] and [1,1] are summed, each
    over the channel pairs (a, b) from zero; [1,0] is the conjugate of
    [0,1] and the diagonal its real part, so the result is exactly
    Hermitian, as C0 and CH are."""
    C0, CH = sol["C0"], sol["CH"]
    # named, so that no product below has a temporary as its right operand
    # (see _transfer_factors)
    amp0_conj = np.conj(amp0)
    rho0 = np.empty(C0.shape, complex)
    rhoH = np.empty(C0.shape, complex)
    for m, n in ((0, 0), (0, 1), (1, 1)):
        sum0 = np.zeros(C0.shape[:-2], complex)
        sumH = np.zeros(C0.shape[:-2], complex)
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            outer = amp0[a][..., m] * amp0_conj[b][..., n]
            sum0 += C0[..., a, b] * outer
            sumH += CH[..., a, b] * outer
        for rho, total in ((rho0, sum0), (rhoH, sumH)):
            rho[..., m, n] = total.real if m == n else total
    for rho in (rho0, rhoH):
        rho[..., 1, 0] = np.conj(rho[..., 0, 1])

    T = rho0[..., 0, 0].real + rho0[..., 1, 1].real
    R = ((rhoH[..., 0, 0].real + rhoH[..., 1, 1].real)
         * np.abs(sol["gH"]) / sol["g0"])
    return {"rho0": rho0, "rhoH": rhoH, "R": R, "T": T}


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

    Both geometries average over one Gaussian ensemble of thicknesses,
    D' ~ N(D, span_A^2).  Laue does so in closed form (the amplitudes are
    two-exponential sums): one sum of branch beats for each of the three
    channel entries C[0,0], C[1,1] and C[0,1], with C[1,0] = conj(C[0,1]).
    A cross-branch beat is dropped at every point where its window factor
    is below exp(-_NEGLIGIBLE_BEAT^2/2) = 5.4e-32, and not formed at all
    where that holds over the whole call, so a 35 mm backscattering crystal
    forms 6 exponentials per point.  Bragg uses the _ENSEMBLE_NODES-point
    Gauss-Hermite rule, whose nodes D + x span_A come in +-x pairs that
    share one exponential per branch wavenumber.  The rule's error on the
    averaged factors e^{i g1 D'} stays below 1e-12 while |g1| span_A is
    at most _ENSEMBLE_PHASE_LIMIT (g1 the complex difference of the branch
    wavenumbers: Re(g1) sets the phase and Im(g1) the decay across the
    ensemble); a call that exceeds it logs one warning on
    "sodiff.dispersion".  A point takes the 3-node rule instead where a
    bound on its error shows that it gives the 8-node result to round-off
    (see _SHORT_NODE_X).  span_A (Angstrom, finite and >= 0) defaults to
    1e-5 of the thickness, far below any real tolerance yet enough to
    suppress the Laue branch beats below double precision; span_A = 0
    gives the pure outer products.  One-point calls share the channel
    cache of exit_amplitude_maps, so a thickness sweep at one (theta, rho)
    solves its channel problem, sets up its branch wavenumbers and
    projects the incident spinor on its first two calls only (the
    projections are kept for the last spinor used at the point); the
    ensemble and the assembly run on every call.

    Returns dict with rho0, rhoH (..., 2, 2) per-beam coherence matrices
    (exactly Hermitian, with a real diagonal), fluxes R, T, and g0 (> 0
    where the beam enters the crystal).
    """
    sol = _solve_coherences(geom, crystal, theta, rho, span_A)
    _check_ensemble("exit_coherence_maps", sol.get("ensemble_phase", 0.0))
    res = _assemble_coherences(sol, _projections(sol, u0_spinor))
    return _point(sol, {**res, "g0": sol["g0"]})


def _check_ensemble(caller: str, phase: float) -> None:
    """Log one warning when a Bragg ensemble's largest |g1| span_A, phase,
    exceeds _ENSEMBLE_PHASE_LIMIT."""
    if phase > _ENSEMBLE_PHASE_LIMIT:
        log.warning("%s: Bragg thickness ensemble under-resolved: "
                    "|g1| span_A reaches %.3g, above %.2g for %d "
                    "Gauss-Hermite nodes", caller, phase,
                    _ENSEMBLE_PHASE_LIMIT, _ENSEMBLE_NODES)


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
