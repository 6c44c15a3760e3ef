import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_force_potential, channel_diagnostics,
                     potential_fourier, schwinger_axis_cross)
from sodiff import crystal as cr
from sodiff import dispersion as dp
from sodiff.constants import CONSTANTS, FM_TO_A


def simple_cubic(a=2 * np.pi, b=1.0, Z=1):
    site = cr.AtomSite("X", (0.0, 0.0, 0.0), b, Z)
    return cr.CrystalModel("cube", ((a, 0, 0), (0, a, 0), (0, 0, a)), (site,))


# ---------------------------------------------------------------------------
# reciprocal_vector
# ---------------------------------------------------------------------------

def test_reciprocal_simple_cubic():
    c = simple_cubic()
    H = cr.reciprocal_vector(c, (1, 0, 0))
    assert abs(np.linalg.norm(H) - 1.0) < 1e-14


def test_reciprocal_duality(quartz):
    lat = quartz.lattice_matrix
    for hkl in [(1, 1, 0), (2, -1, 3), (0, 0, 1)]:
        H = cr.reciprocal_vector(quartz, hkl)
        for i in range(3):
            assert abs(np.dot(H, lat[i]) - 2 * np.pi * hkl[i]) < 1e-10


def test_reference_quartz_d110(quartz):
    # anchored to the backscattering wavelength: 2d = 5.0279 A
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    assert abs(np.linalg.norm(H) - 2 * np.pi / 2.51395) < 1e-6
    assert abs(quartz.d_spacing((1, 1, 0)) - 2.51395) < 1e-6


def test_reciprocal_zero_hkl_rejected(quartz):
    with pytest.raises(cr.CrystalError):
        cr.reciprocal_vector(quartz, (0, 0, 0))


def test_degenerate_lattice_rejected():
    site = cr.AtomSite("X", (0, 0, 0), 1.0, 1)
    with pytest.raises(cr.CrystalError):
        cr.CrystalModel("bad", ((1, 0, 0), (2, 0, 0), (0, 0, 1)), (site,))


# ---------------------------------------------------------------------------
# schwinger_axis
# ---------------------------------------------------------------------------

def test_schwinger_axis_orthogonal():
    u, w = cr.schwinger_axis(np.array([2.0, 0, 0]), np.array([0, 3.0, 0]))
    assert np.allclose(u, [0, 0, 1])
    assert abs(w - 2.0 / 3.0) < 1e-14


def test_schwinger_axis_parallel_is_z_axis():
    """K parallel to H: no spin-orbit term, the axis defaults to z; the
    axis broadcasts over K and a zero K or H is still rejected."""
    u, w = cr.schwinger_axis(np.array([1.0, 0, 0]), np.array([-2.0, 0, 0]))
    assert np.array_equal(u, [0, 0, 1]) and w == 0.0
    K = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 3.0, 0]])
    u, w = cr.schwinger_axis(K, np.array([0, 3.0, 0]))
    assert np.allclose(u, [[0, 0, 1], [0, 0, 1], [0, 0, 1]])
    assert np.allclose(w, [1.0 / 3.0, 2.0 / 3.0, 0.0], rtol=1e-14, atol=0)
    for K, H in ((np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3))):
        with pytest.raises(cr.CrystalError):
            cr.schwinger_axis(K, H)


def test_schwinger_axis_bit_exact(quartz):
    """The component-wise cross product and norms equal np.cross and
    np.linalg.norm bit for bit, on random K, one K and K parallel to H."""
    rng = np.random.default_rng(11)
    for H in (cr.reciprocal_vector(quartz, (1, 1, 0)),
              cr.reciprocal_vector(quartz, (1, 0, 1)), rng.normal(size=3)):
        for K in (rng.normal(size=(4096, 3)), rng.normal(size=(5, 7, 3)),
                  rng.normal(size=3), np.array([2.0 * H, -H])):
            u, w = cr.schwinger_axis(K, H)
            u_ref, w_ref = schwinger_axis_cross(K, H)
            assert u.shape == u_ref.shape and w.shape == w_ref.shape
            assert np.array_equal(u, u_ref) and np.array_equal(w, w_ref)


def test_schwinger_axis_backscattering_limit(quartz):
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    k_mag = np.linalg.norm(H) / 2.0  # lambda = 2d
    eps = 1e-6
    K = k_mag * (-(H / np.linalg.norm(H)) * np.sqrt(1 - eps**2)
                 + eps * np.array([0.0, 0.0, 1.0]))
    _, w = cr.schwinger_axis(K, H)
    assert w < 1e-6  # magnitude vanishes as cos(theta_B)


def test_schwinger_axis_quartz_2A_matches_formula(quartz):
    # |K x H|/|H|^2 against |K| cos(theta_B)/|H| at exact Bragg incidence
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    h = np.linalg.norm(H)
    k_mag = 2 * np.pi / 2.0
    s = h / (2 * k_mag)
    c = np.sqrt(1 - s * s)
    h_hat = H / h
    perp = np.array([-h_hat[1], h_hat[0], 0.0])
    K = k_mag * (-s * h_hat + c * perp)
    _, w = cr.schwinger_axis(K, H)
    assert abs(w - k_mag * c / h) < 1e-12 * w


# ---------------------------------------------------------------------------
# potential_fourier
# ---------------------------------------------------------------------------

def test_single_site_nuclear_only():
    c = simple_cubic(a=4.0, b=1.0)
    K = np.array([3.0, 0, 0])
    for hkl in [(1, 0, 0), (1, 1, 0)]:
        H = cr.reciprocal_vector(c, hkl)
        V = potential_fourier(c, H, K)
        expected = CONSTANTS.two_pi_hbar2_over_m_meV_A3 * 1.0 * FM_TO_A / 64.0
        # site at origin with Z(1-f) = 0 only if form factor is unity
        assert np.allclose(V, expected * np.eye(2), atol=1e-15)


def test_zero_H_is_mean_optical_potential(quartz):
    V = potential_fourier(quartz, np.zeros(3), np.array([3.0, 0, 0]))
    v0 = cr.mean_potential_meV(quartz)
    assert np.allclose(V, v0 * np.eye(2), atol=1e-18)
    assert abs(v0 - 1.0165e-4) < 2e-6  # ~102 neV quartz optical potential


def test_potential_against_brute_force(quartz):
    K = np.array([2 * np.pi / 2.0, 0.1, -0.05])
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    V = potential_fourier(quartz, H, K)
    sites = [(s.frac, s.b_fm, s.Z, s.form_factor) for s in quartz.sites]
    Vb = brute_force_potential(sites, quartz.lattice_matrix, (1, 1, 0), K,
                               quartz.cell_volume_A3)
    assert np.allclose(V, Vb, rtol=2e-5, atol=1e-18)


def test_schwinger_to_nuclear_ratio_2A(quartz):
    """Spin-orbit to nuclear weight of V(110), checked by brute force and
    for order of magnitude against the ~1e10 V/m intra-crystal field."""
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    h = np.linalg.norm(H)
    k_mag = np.pi  # 2 A
    s = h / (2 * k_mag)
    c = np.sqrt(1 - s * s)
    h_hat = H / h
    perp = np.array([-h_hat[1], h_hat[0], 0.0])
    K = k_mag * (-s * h_hat + c * perp)
    V = potential_fourier(quartz, H, K)
    nuclear = np.trace(V) / 2.0
    schw = V - nuclear * np.eye(2)
    ratio = np.linalg.norm(schw, 2) / abs(nuclear)
    A, B, _ = cr.structure_sums(quartz, H)
    w = k_mag * c / h
    assert abs(ratio - 2 * w * abs(B) / abs(A)) < 0.3 * ratio

    # implied amplitude of the (110) Fourier component of the electric field
    z_sum = abs(B / CONSTANTS.schwinger_gamma_fm)
    e_over_eps0 = 1.602176634e-19 / 8.8541878128e-12  # V m
    field = e_over_eps0 * z_sum / (quartz.cell_volume_A3 * 1e-30 * h * 1e10)
    assert 1e9 < field < 1e12  # "fields of up to 1e10 V/m"


def test_bj_scaling_linear(quartz):
    import dataclasses
    K = np.array([3.0, 0.2, 0.0])
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    base = potential_fourier(quartz.without_schwinger(), H, K)
    scaled_sites = tuple(dataclasses.replace(s, b_fm=3.0 * s.b_fm)
                         for s in quartz.sites)
    scaled = dataclasses.replace(quartz, sites=scaled_sites, schwinger_scale=0.0)
    V = potential_fourier(scaled, H, K)
    assert np.allclose(V, 3.0 * base, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 0.999),
    st.floats(0.5, 10.0), st.integers(1, 30)), min_size=1, max_size=6),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_hermiticity_under_H_negation(site_data, h, k, l):
    """V(-H,K) = V(H,K)^dagger for real scattering lengths."""
    if (h, k, l) == (0, 0, 0):
        return
    sites = tuple(cr.AtomSite("X", (fx, fy, fz), b, Z,
                              cr.FormFactor(a=(float(Z - 0.5),), b=(10.0,), c=0.5))
                  for fx, fy, fz, b, Z in site_data)
    c = cr.CrystalModel("rand", ((3.1, 0, 0), (0.2, 4.0, 0), (0, 0.1, 5.2)), sites)
    K = np.array([1.7, 0.3, -0.4])
    H = cr.reciprocal_vector(c, (h, k, l))
    V = potential_fourier(c, H, K)
    Vm = potential_fourier(c, -H, K)
    assert np.allclose(Vm, V.conj().T, rtol=1e-10, atol=1e-18)


def test_channel_diagonalisation_residual(quartz):
    """V(H,K) is diagonal in the sigma.u basis with the engine's channel
    potentials vH = -y/X as entries."""
    K = np.array([2 * np.pi / 2.0, 0.15, 0.07])
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    # hand-built geometry (no hkl: H in the crystal frame) whose incident
    # wavevector at (theta, rho) is K
    geom = dp.DiffractionGeometry(k0=(float(np.linalg.norm(K)), 0.0, 0.0),
                                  H=tuple(H), n=(1.0, 0.0, 0.0),
                                  kind=dp.LAUE, thickness_A=1e6)
    res = channel_diagnostics(geom, quartz, K[1] / K[0], K[2] / K[0])
    vH = -res["y"][:, 0] / res["X"][:, 0]          # channels s = +1, -1
    V = potential_fourier(quartz, H, K)
    sig_u = np.einsum("k,kij->ij", res["u_hat"], cr.SIGMA)
    evals, evecs = np.linalg.eigh(sig_u)
    # eigh sorts ascending: column 0 is s=-1, column 1 is s=+1
    D = evecs.conj().T @ V @ evecs
    off = abs(D[0, 1]) + abs(D[1, 0])
    scale = max(abs(vH[0]), abs(vH[1]))
    assert off <= 1e-12 * scale
    assert abs(D[1, 1] - vH[0]) <= 1e-12 * scale
    assert abs(D[0, 0] - vH[1]) <= 1e-12 * scale


def test_form_factors_normalised_and_monotone(quartz):
    hs = np.linspace(0.0, 25.0, 400)
    for site in quartz.sites:
        f = site.form_factor(hs)
        assert abs(f[0] - 1.0) < 1e-14
        assert np.all(f >= -1e-12) and np.all(f <= 1.0 + 1e-12)
        assert np.all(np.diff(f) <= 1e-12)


# ---------------------------------------------------------------------------
# material file parsing
# ---------------------------------------------------------------------------

def test_material_file_roundtrip(tmp_path, quartz):
    text = (
        "material demo\n"
        "lattice\n  4.0 0 0\n  0 4.0 0\n  0 0 4.0\n"
        "sites\n  Si 0.0 0.0 0.0 4.1491 14\n"
        "formfactors\n  Si 6.2915 2.4386 3.0353 32.3337 1.9891 0.6785 "
        "1.5410 81.6937 1.1407\nend\n")
    path = tmp_path / "demo.crystal"
    path.write_text(text)
    c = cr.load_crystal(path)
    assert c.material_id == "demo"
    assert abs(c.cell_volume_A3 - 64.0) < 1e-12
    assert c.sites[0].Z == 14
    assert abs(c.sites[0].form_factor(0.0) - 1.0) < 1e-14


def test_material_file_errors(tmp_path):
    bad = tmp_path / "bad.crystal"
    bad.write_text("material x\nlattice\n 1 0 0\n 0 1 0\nsites\n X 0 0 0 1 1\n")
    with pytest.raises(cr.CrystalError):
        cr.load_crystal(bad)
    bad.write_text("material x\nlattice\n 1 0 0\n 0 1 0\n 0 0 1\n"
                   "sites\n X 0 0 oops 1 1\n")
    with pytest.raises(cr.CrystalError, match="line 7"):
        cr.load_crystal(bad)


def test_crystal_hash_cached_per_instance_not_pickled():
    """Equal models built apart hash equal, with the value of the field
    tuple the dataclass hash is defined by.  The hash is kept on the
    instance after its first use, but not pickled: string hashes differ
    between processes, so a restored model computes its own."""
    a, b = cr.reference_quartz(), cr.reference_quartz()
    assert a is not b and a == b
    fields = hash((a.material_id, a.lattice, a.sites, a.schwinger_scale))
    assert hash(a) == hash(b) == fields
    assert hash(a) == fields                      # the kept value
    assert hash(a.without_schwinger()) != hash(a)
    restored = pickle.loads(pickle.dumps(a))
    assert "_hash" in vars(a) and "_hash" not in vars(restored)
    assert restored == a and hash(restored) == fields
    assert "_hash" in vars(restored)


def test_lattice_inverted_once_per_lattice(quartz, monkeypatch):
    """reciprocal_matrix and cell_volume_A3 are computed once per distinct
    lattice: d_spacing, reciprocal_vector and make_geometry of both kinds
    invert a new lattice once, a second crystal on that lattice (other
    sites, as a fit over random crystals makes) not again, and neither
    instance keeps anything beyond its hash."""
    counts = {"inv": 0, "det": 0}
    for name in counts:
        def counted(a, real=getattr(np.linalg, name), name=name):
            counts[name] += 1
            return real(a)

        monkeypatch.setattr(np.linalg, name, counted)
    lattice = tuple(tuple(1.001 * x for x in row) for row in quartz.lattice)
    first = dataclasses.replace(quartz, lattice=lattice)
    second = dataclasses.replace(first, sites=first.sites[:3])
    assert counts == {"inv": 0, "det": 2}   # __post_init__'s check
    for crystal in (first, second):
        crystal.d_spacing((1, 1, 0))
        cr.reciprocal_vector(crystal, (1, 0, 0))
        for kind in (dp.BRAGG, dp.LAUE):
            dp.make_geometry(crystal, (1, 1, 0), 2.0, kind, 1e6)
        assert crystal.cell_volume_A3 > 0 and cr.mean_potential_meV(crystal) > 0
        assert set(vars(crystal)) <= {*vars(quartz), "_hash"}
    assert counts == {"inv": 1, "det": 3}


def test_derived_lattice_values_survive_pickle_and_replace():
    """A crystal restored from a pickle and one made by
    dataclasses.replace give the reciprocal matrix and the volume of the
    original, bit for bit, and those of the uncached formulas; a lattice
    that differs only in the sign of a zero is a lattice of its own."""
    a = cr.reference_quartz()
    matrix, volume = a.reciprocal_matrix, a.cell_volume_A3
    restored = pickle.loads(pickle.dumps(a))
    for other in (restored, dataclasses.replace(a, schwinger_scale=0.5),
                  a.without_schwinger()):
        assert other.reciprocal_matrix.tobytes() == matrix.tobytes()
        assert other.cell_volume_A3 == volume
    fresh = 2.0 * np.pi * np.linalg.inv(a.lattice_matrix).T
    assert fresh.tobytes() == matrix.tobytes()
    assert volume == abs(float(np.linalg.det(a.lattice_matrix)))
    plus = simple_cubic(a=3.0)
    minus = dataclasses.replace(plus, lattice=((3.0, -0.0, 0.0),)
                                + plus.lattice[1:])
    assert plus == minus
    assert cr._lattice_bits(plus.lattice) != cr._lattice_bits(minus.lattice)
    for c in (plus, minus):
        fresh = 2.0 * np.pi * np.linalg.inv(c.lattice_matrix).T
        assert c.reciprocal_matrix.tobytes() == fresh.tobytes()


def test_reciprocal_vector_cached_per_lattice_and_hkl(quartz):
    """H and |H| of a (lattice, hkl) are computed once, in a bounded cache
    keyed on the lattice's bits: d_spacing, reciprocal_vector,
    make_geometry of both kinds and the reflection of two crystals on one
    new lattice (other sites, as a fit over random crystals makes) miss it
    once per hkl.  They equal hkl @ reciprocal_matrix and its np.linalg.norm
    bit for bit; a lattice that differs only in the sign of a zero gets
    its own entry; the cached H is read-only and cannot be made writable,
    and reciprocal_vector returns a writable copy."""
    lattice = tuple(tuple(1.003 * x for x in row) for row in quartz.lattice)
    first = dataclasses.replace(quartz, lattice=lattice)
    second = dataclasses.replace(first, sites=first.sites[:3])
    info = cr._reciprocal_entry.cache_info
    misses = info().misses
    for crystal in (first, second):
        crystal.d_spacing((1, 1, 0))
        cr.reciprocal_vector(crystal, (1, 1, 0))
        for kind in (dp.BRAGG, dp.LAUE):
            dp.make_geometry(crystal, (1, 1, 0), 2.0, kind, 1e6)
        dp._build_reflection(crystal, (1, 1, 0), None)
    assert info().misses == misses + 1
    for hkl in ((1, 1, 0), (2, -1, 3), (0, 0, 1)):
        H, h_mag = cr._reciprocal(first, hkl)
        fresh = np.asarray(hkl, float) @ first.reciprocal_matrix
        assert H.tobytes() == fresh.tobytes()
        assert h_mag == float(np.linalg.norm(fresh))
        assert cr._reciprocal(second, hkl)[0] is H
        assert first.d_spacing(hkl) == 2.0 * np.pi / h_mag
        copy = cr.reciprocal_vector(second, hkl)
        assert copy.flags.writeable and copy.tobytes() == H.tobytes()
        with pytest.raises(ValueError):
            H[0] = 1.0
        with pytest.raises(ValueError):
            H.setflags(write=True)
    plus = simple_cubic(a=3.0)
    minus = dataclasses.replace(plus, lattice=((3.0, -0.0, 0.0),)
                                + plus.lattice[1:])
    H_plus, H_minus = (cr._reciprocal(c, (1, 0, 0))[0] for c in (plus, minus))
    assert H_plus is not H_minus
    for c, H in ((plus, H_plus), (minus, H_minus)):
        assert H.tobytes() == (np.array([1.0, 0.0, 0.0])
                               @ c.reciprocal_matrix).tobytes()
    assert info().maxsize == cr._LATTICE_CACHE_SIZE
    for h in range(1, 2 * cr._LATTICE_CACHE_SIZE + 1):
        cr._reciprocal(first, (h, 0, 0))
    assert info().currsize == cr._LATTICE_CACHE_SIZE


def test_reciprocal_matrix_cannot_be_corrupted():
    """The returned matrix is a read-only view of the kept one that cannot
    be made writable, so no caller can change the next caller's value."""
    c = simple_cubic(a=3.0)
    before = c.reciprocal_matrix.copy()
    got = c.reciprocal_matrix
    with pytest.raises(ValueError):
        got[0, 0] = 1.0
    with pytest.raises(ValueError):
        got.setflags(write=True)
    with pytest.raises(ValueError):
        got *= 2.0
    assert c.reciprocal_matrix.tobytes() == before.tobytes()
    assert cr.reciprocal_vector(c, (1, 0, 0)).flags.writeable
