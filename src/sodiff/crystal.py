"""Crystal model and the lattice sums of the potential's Fourier components.

The potential seen by the neutron is a sum of Fermi pseudopotentials plus
the spin-orbit coupling of the moving neutron to the intra-crystal electric
field.  Its Fourier component at reciprocal vector H, for neutron wavevector
K, is the 2x2 spin matrix

    V(H, K) = (2 pi hbar^2 / m) (1/V_cell)
              * sum_j [ b_j - 2i gamma_j sigma.(K x H)/|H|^2 ] exp(i H.r_j)

with gamma_j = (mu e / hbar c) Z_j (1 - f_j(|H|)).  We normalise the lattice
sum per unit cell volume so V carries energy units and V(0) is the usual
neutron optical potential; dispersion.Reflection assembles one reflection.

All operations here are pure functions over immutable inputs.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .constants import CONSTANTS, FM_TO_A

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


class CrystalError(ValueError):
    """Invalid crystal data or an unusable reflection."""


@dataclass(frozen=True)
class FormFactor:
    """Isotropic electronic form factor, sum of Gaussians in s = |H|/4pi.

    Stored unnormalised (f_raw(0) ~ Z); evaluation returns f_raw(s)/f_raw(0)
    so that f(0) = 1 exactly and the spin-orbit strength vanishes at H -> 0.
    Without Gaussians (UNIT_FORM_FACTOR) f is the float c/c, without numpy.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: float

    def __call__(self, h_mag: float | np.ndarray) -> float | np.ndarray:
        if not self.a:
            return self.c / self.c
        s2 = (np.asarray(h_mag) / (4.0 * np.pi)) ** 2
        raw = self.c + sum(ai * np.exp(-bi * s2) for ai, bi in zip(self.a, self.b))
        raw0 = self.c + sum(self.a)
        return raw / raw0


UNIT_FORM_FACTOR = FormFactor(a=(), b=(), c=1.0)  # f == 1: no spin-orbit term


@dataclass(frozen=True)
class AtomSite:
    element: str
    frac: tuple[float, float, float]
    b_fm: float
    Z: int
    form_factor: FormFactor = UNIT_FORM_FACTOR


_LATTICE_CACHE_SIZE = 32


def _lattice_bits(lattice) -> bytes:
    """The nine lattice components as float64 bytes: the key of
    _inverted_lattice, so -0.0 and +0.0 are different lattices."""
    (a, b, c), (d, e, f), (g, h, i) = lattice
    return struct.pack("9d", a, b, c, d, e, f, g, h, i)


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _inverted_lattice(bits: bytes) -> tuple[float, np.ndarray]:
    """(|det L|, 2 pi inv(L).T) of the lattice L whose _lattice_bits are
    bits, the matrix read-only.  Kept in a bounded LRU cache keyed on the
    lattice, not on the crystal instance: crystals that share a lattice
    (a fit over random sites) share one entry, and no instance grows."""
    lat = np.frombuffer(bits).reshape(3, 3)
    matrix = 2.0 * np.pi * np.linalg.inv(lat).T
    matrix.setflags(write=False)
    return abs(float(np.linalg.det(lat))), matrix


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _reciprocal_entry(bits: bytes, hkl: bytes) -> tuple[np.ndarray, float]:
    """(H, |H|), H read-only, of the Miller indices whose float64 bytes are
    hkl on the lattice whose _lattice_bits are bits: a bounded LRU cache
    like _inverted_lattice's, so crystals that share a lattice share it."""
    H = np.frombuffer((np.frombuffer(hkl) @ _inverted_lattice(bits)[1])
                      .tobytes())   # on immutable bytes: never writable
    if not H.any():   # the matrix is invertible: hkl is zero
        raise CrystalError("hkl = (0,0,0) has no reciprocal vector")
    return H, float(np.linalg.norm(H))


def _reciprocal(crystal: "CrystalModel", hkl) -> tuple[np.ndarray, float]:
    """_reciprocal_entry of Miller indices hkl on the crystal's lattice."""
    try:
        key = struct.pack("3d", *hkl)
    except (struct.error, TypeError):
        raise CrystalError("hkl must be a 3-tuple") from None
    return _reciprocal_entry(_lattice_bits(crystal.lattice), key)


@dataclass(frozen=True)
class CrystalModel:
    """Lattice plus atomic basis; the source of all structure factors.

    ``schwinger_scale`` multiplies every gamma_j; 0 switches the spin-orbit
    term off entirely (useful for scalar-theory limits and tests).
    """

    material_id: str
    lattice: tuple[tuple[float, float, float], ...]  # rows a1, a2, a3, in A
    sites: tuple[AtomSite, ...]
    schwinger_scale: float = 1.0

    def __post_init__(self):
        lat = np.asarray(self.lattice, dtype=float)
        if lat.shape != (3, 3):
            raise CrystalError("lattice must be three 3-vectors")
        if not all(map(math.isfinite, lat.flat)):
            raise CrystalError(f"lattice must be finite, got {self.lattice}")
        if abs(float(np.linalg.det(lat))) < 1e-9:
            raise CrystalError("degenerate lattice")
        if not self.sites:
            raise CrystalError("crystal needs at least one site")
        for s in self.sites:
            ff = s.form_factor
            if not all(map(math.isfinite, (*s.frac, s.b_fm, *ff.a, *ff.b, ff.c))):
                raise CrystalError(f"site {s.element}: frac {s.frac}, b_fm {s.b_fm} "
                                   f"and form factor {ff} must be finite")
        if not math.isfinite(self.schwinger_scale):
            raise CrystalError(f"schwinger_scale must be finite, got "
                               f"{self.schwinger_scale}")

    def __hash__(self):
        """The dataclass field hash, computed once per instance: every
        reflection-cache lookup hashes the whole site tree."""
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.material_id, self.lattice, self.sites,
                      self.schwinger_scale))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # string hashes differ between processes: an unpickled model
        # computes its own
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def lattice_matrix(self) -> np.ndarray:
        return np.asarray(self.lattice, dtype=float)

    @property
    def cell_volume_A3(self) -> float:
        """|det| of the lattice, computed once per distinct lattice (see
        _inverted_lattice)."""
        return _inverted_lattice(_lattice_bits(self.lattice))[0]

    @property
    def reciprocal_matrix(self) -> np.ndarray:
        """Rows b1, b2, b3 with a_i . b_j = 2 pi delta_ij, inverted once per
        distinct lattice (see _inverted_lattice): a read-only view of the
        kept matrix, which cannot be made writable either."""
        return _inverted_lattice(_lattice_bits(self.lattice))[1].view()

    def d_spacing(self, hkl) -> float:
        return 2.0 * np.pi / _reciprocal(self, hkl)[1]

    def without_schwinger(self) -> "CrystalModel":
        return replace(self, schwinger_scale=0.0)


def reciprocal_vector(crystal: CrystalModel, hkl) -> np.ndarray:
    """Reciprocal lattice vector H for integer Miller indices, in 1/A.

    Satisfies H . a_i = 2 pi hkl_i.  hkl = (0,0,0) is rejected: the H = 0
    Fourier component goes through the dedicated V(0) path instead.
    """
    return _reciprocal(crystal, hkl)[0].copy()


def schwinger_axis(K, H) -> tuple[np.ndarray, np.ndarray]:
    """Spin quantization axis and geometric strength of the spin-orbit term.

    Returns (u_hat, w) with u_hat = (K x H)/|K x H| and w = |K x H|/|H|^2
    (dimensionless), broadcasting over the leading axes of K.  Where K is
    parallel to H the term vanishes identically: there u_hat is the lab z
    axis and w = 0.  A zero K or H is an error.
    """
    K = np.asarray(K, dtype=float)
    h0, h1, h2 = map(float, H)   # a geometry's floats, as they are
    H = np.asarray(H, dtype=float)
    k0, k1, k2 = K[..., 0], K[..., 1], K[..., 2]
    # |K|, like |K x H| for H on the x axis, is even under k1 <-> k2
    k_mag = np.sqrt(k0 * k0 + (k1 * k1 + k2 * k2))
    h_mag = math.sqrt(h0 * h0 + h1 * h1 + h2 * h2)
    if h_mag == 0.0 or not k_mag.all():
        raise CrystalError("schwinger_axis needs non-zero K and H")
    # K x H and its norm component by component, in np.cross's and
    # np.linalg.norm's operation order
    cross = np.empty(K.shape)
    c0, c1, c2 = cross[..., 0], cross[..., 1], cross[..., 2]
    np.subtract(k1 * h2, k2 * h1, out=c0)
    np.subtract(k2 * h0, k0 * h2, out=c1)
    np.subtract(k0 * h1, k1 * h0, out=c2)
    cmag = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    w = cmag / float(H @ H)
    parallel = cmag <= 1e-12 * k_mag * h_mag
    if parallel.any():
        u_hat = cross / np.where(parallel, 1.0, cmag)[..., None]
        u_hat[parallel] = (0.0, 0.0, 1.0)
        return u_hat, np.where(parallel, 0.0, w)
    cross /= cmag[..., None]
    return cross, w


def site_gammas(crystal: CrystalModel, h_mag: float) -> np.ndarray:
    """gamma_j = (mu e/hbar c) Z_j (1 - f_j(|H|)) per site, in fm."""
    g = np.array([
        CONSTANTS.schwinger_gamma_fm * s.Z * (1.0 - float(s.form_factor(h_mag)))
        for s in crystal.sites
    ])
    return crystal.schwinger_scale * g


def structure_sums(crystal: CrystalModel, H,
                   h_mag=None) -> tuple[complex, complex, float]:
    """Nuclear and spin-orbit lattice sums A = sum b_j e^{iH.r_j},
    B = sum gamma_j e^{iH.r_j} (both fm), plus |H|, taken from h_mag when
    given (the norm _reciprocal_entry keeps beside H)."""
    H = np.asarray(H, dtype=float)
    h_mag = float(np.linalg.norm(H)) if h_mag is None else h_mag
    lat = crystal.lattice_matrix
    phases = np.array([np.exp(1j * float(np.dot(H, np.asarray(s.frac) @ lat)))
                       for s in crystal.sites])
    b = np.array([s.b_fm for s in crystal.sites])
    gam = site_gammas(crystal, h_mag)
    return complex(np.sum(b * phases)), complex(np.sum(gam * phases)), h_mag


def mean_potential_meV(crystal: CrystalModel) -> float:
    """V(0): the neutron optical potential, real and spin-independent."""
    b_sum = sum(s.b_fm for s in crystal.sites) * FM_TO_A
    return CONSTANTS.two_pi_hbar2_over_m_meV_A3 * b_sum / crystal.cell_volume_A3


# ---------------------------------------------------------------------------
# Material file I/O
#
# Line-oriented text format (grammar documented in the README):
#   material <id>
#   lattice            followed by three "ax ay az" rows in Angstrom
#   sites              followed by "El fx fy fz b_fm Z" rows
#   formfactors        followed by "El a1 b1 a2 b2 a3 b3 a4 b4 c" rows
#   end
# '#' starts a comment; blank lines ignored.
# ---------------------------------------------------------------------------

def load_crystal(path: str | Path) -> CrystalModel:
    text = Path(path).read_text()
    return parse_crystal(text, material_hint=Path(path).stem)


def parse_crystal(text: str, material_hint: str = "unnamed") -> CrystalModel:
    material = material_hint
    lattice_rows: list[tuple[float, float, float]] = []
    site_rows: list[tuple[str, float, float, float, float, int]] = []
    ff_table: dict[str, FormFactor] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split()[0].lower()
        if word in ("lattice", "sites", "formfactors"):
            section = word
            continue
        if word == "material":
            material = line.split(None, 1)[1].strip() if " " in line else material
            continue
        if word == "end":
            section = None
            continue
        try:
            if section == "lattice":
                x, y, z = (float(t) for t in line.split())
                lattice_rows.append((x, y, z))
            elif section == "sites":
                tok = line.split()
                site_rows.append((tok[0], float(tok[1]), float(tok[2]),
                                  float(tok[3]), float(tok[4]), int(tok[5])))
            elif section == "formfactors":
                tok = line.split()
                vals = [float(t) for t in tok[1:]]
                if len(vals) != 9:
                    raise ValueError("need a1 b1 .. a4 b4 c")
                ff_table[tok[0]] = FormFactor(a=tuple(vals[0:8:2]),
                                              b=tuple(vals[1:8:2]), c=vals[8])
            else:
                raise ValueError(f"content outside any section: {line!r}")
        except (ValueError, IndexError) as exc:
            raise CrystalError(f"crystal file line {lineno}: {exc}") from exc

    if len(lattice_rows) != 3:
        raise CrystalError("crystal file must define exactly 3 lattice vectors")
    if not site_rows:
        raise CrystalError("crystal file defines no sites")
    sites = tuple(
        AtomSite(element=el, frac=(fx, fy, fz), b_fm=b, Z=z,
                 form_factor=ff_table.get(el, UNIT_FORM_FACTOR))
        for el, fx, fy, fz, b, z in site_rows
    )
    return CrystalModel(material_id=material, lattice=tuple(lattice_rows), sites=sites)


def reference_quartz() -> CrystalModel:
    """The shipped alpha-quartz model with d(110) anchored to 2d = 5.0279 A."""
    ref = importlib.resources.files("sodiff").joinpath("data/quartz110.crystal")
    return parse_crystal(ref.read_text(), material_hint="alpha-quartz-110-anchored")
