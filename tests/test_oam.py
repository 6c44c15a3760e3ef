import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import aft, bilinear_full_gather, lz_estimate_roll, numerical_Lz
from sodiff import oam
from sodiff import wavefield as wf


def two_component_grid(geom, up, dn, ax):
    """Hand-built pure WaveGrid whose non-flipped and flipped components
    (about u0 = (1, 0)) are up and dn, sampled on the square transverse
    axis ax in 1/A, in both beams."""
    psi = np.stack([up, dn], axis=-1)
    shape = up.shape
    return wf.WaveGrid(theta=ax / geom.k_mag, rho=ax / geom.k_mag,
                       R=np.zeros(shape), T=np.ones(shape), geometry=geom,
                       u0=np.array([1.0, 0.0], complex),
                       physical=np.ones(shape, bool), psi0=psi, psiH=psi)


def polar_field(func, n_r=128, n_phi=256, r_max=4.0):
    """AzimuthalField sampled directly on the polar grid (no resampling)."""
    r = np.linspace(0.0, r_max, n_r)
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    R, PHI = np.meshgrid(r, phi, indexing="ij")
    return oam.AzimuthalField(values=np.asarray(func(R, PHI), complex),
                              r=r, phi=phi, center=(0.0, 0.0), handedness=+1,
                              source_intensity=0.0, coverage=1.0)


def gauss_vortex(ell, width=1.0):
    return lambda R, PHI: np.exp(-R**2 / (2 * width**2)) * np.exp(1j * ell * PHI)


def cartesian_vortex(ell=1, n=301, width=1.0, extent=4.0):
    ax = np.linspace(-extent, extent, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    r = np.hypot(X, Y)
    return (np.exp(-r**2 / (2 * width**2))
            * np.exp(1j * ell * np.arctan2(Y, X))), ax


# ---------------------------------------------------------------------------
# AFT
# ---------------------------------------------------------------------------

def test_aft_pure_vortex_exact():
    pf = polar_field(gauss_vortex(1))
    g = aft(pf, 1)
    assert np.allclose(g, np.exp(-pf.r**2 / 2), atol=1e-12)
    for ell in (0, -1, 2, 5):
        assert np.max(np.abs(aft(pf, ell))) < 1e-12


def test_aft_constant_field():
    pf = polar_field(lambda R, PHI: np.ones_like(R))
    assert np.max(np.abs(aft(pf, 0) - 1.0)) < 1e-13
    assert np.max(np.abs(aft(pf, 3))) < 1e-13


def test_aft_cosine_splits_half():
    pf = polar_field(lambda R, PHI: np.exp(-R**2 / 2) * np.cos(PHI))
    g = np.exp(-pf.r**2 / 2) / 2.0
    assert np.allclose(aft(pf, 1), g, atol=1e-13)
    assert np.allclose(aft(pf, -1), g, atol=1e-13)


def test_aft_nyquist_guard():
    pf = polar_field(gauss_vortex(1), n_phi=32)
    with pytest.raises(oam.OamError):
        aft(pf, 16)


# ---------------------------------------------------------------------------
# distribution, expectation, oracle
# ---------------------------------------------------------------------------

def test_pure_vortex_distribution():
    d = oam.oam_distribution(polar_field(gauss_vortex(1)), L=8)
    assert d.p[d.ells == 1][0] == pytest.approx(1.0, abs=1e-12)
    assert d.mean == pytest.approx(1.0, abs=1e-12)
    assert abs(d.residual) < 1e-12
    assert np.all(d.p >= 0.0)


def test_pure_vortex_distribution_via_resampling():
    f, ax = cartesian_vortex(ell=1)
    d = oam.oam_distribution(oam.to_polar(f, ax, ax), L=8)
    assert d.p[d.ells == 1][0] == pytest.approx(1.0, abs=2e-3)
    assert d.mean == pytest.approx(1.0, abs=2e-3)


def test_linear_state_half_half():
    pf = polar_field(lambda R, PHI: np.exp(-R**2 / 2)
                     * (np.exp(1j * PHI) + np.exp(-1j * PHI)))
    d = oam.oam_distribution(pf, L=4)
    assert d.p[d.ells == 1][0] == pytest.approx(0.5, abs=1e-12)
    assert d.p[d.ells == -1][0] == pytest.approx(0.5, abs=1e-12)
    assert d.mean == pytest.approx(0.0, abs=1e-12)


def test_expectation_delta_at_three():
    d = oam.oam_distribution(polar_field(gauss_vortex(3)), L=8)
    assert d.mean == pytest.approx(3.0, abs=1e-12)


def test_zero_intensity_rejected():
    pf = polar_field(lambda R, PHI: np.zeros_like(R))
    with pytest.raises(oam.OamError):
        oam.oam_distribution(pf, L=4)


def test_oracle_synthetic():
    pf = polar_field(gauss_vortex(2), n_phi=1024)
    assert oam.oracle_Lz(pf) == pytest.approx(2.0, abs=2e-4)
    preal = polar_field(lambda R, PHI: np.exp(-R**2 / 2) * np.cos(PHI),
                        n_phi=512)
    assert abs(oam.oracle_Lz(preal)) < 1e-12  # real fields carry no net OAM


def test_oracle_matches_expectation_random_smooth():
    rng = np.random.default_rng(7)
    coef = rng.normal(size=7) + 1j * rng.normal(size=7)

    def field(R, PHI):
        return np.exp(-R**2 / 2) * sum(
            c * np.exp(1j * m * PHI) * R**abs(m)
            for c, m in zip(coef, range(-3, 4)))

    pf = polar_field(field, n_r=192, n_phi=4096)
    d = oam.oam_distribution(pf, L=16)
    assert abs(oam.oracle_Lz(pf) - d.mean) \
        <= 1e-5 * max(1.0, abs(d.mean))
    # and against the fully independent spectral-quadrature oracle
    assert abs(numerical_Lz(pf.values, pf.r, pf.phi) - d.mean) < 1e-9


def test_parseval_total_intensity():
    pf = polar_field(gauss_vortex(1))
    d = oam.oam_distribution(pf, L=120)
    assert d.p.sum() + d.residual == pytest.approx(1.0, abs=1e-12)


def test_intensity_conservation_resampling():
    f, ax = cartesian_vortex(ell=1, extent=5.0)
    pf = oam.to_polar(f, ax, ax, n_r=256, n_phi=512)
    assert pf.total_intensity() == pytest.approx(pf.source_intensity, rel=5e-3)


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(1, 31))
def test_shift_theorem(k_steps):
    """Rotating the field by Delta phi multiplies mode ell by e^{-i ell dphi}
    and leaves p[ell] unchanged."""
    pf = polar_field(gauss_vortex(1), n_r=64, n_phi=128)
    rolled = oam.AzimuthalField(values=np.roll(pf.values, k_steps, axis=1),
                                r=pf.r, phi=pf.phi, center=pf.center,
                                handedness=pf.handedness,
                                source_intensity=pf.source_intensity,
                                coverage=pf.coverage)
    dphi = k_steps * 2 * np.pi / pf.n_phi
    for ell in (0, 1, 2):
        a = aft(pf, ell)
        b = aft(rolled, ell)
        assert np.allclose(b, a * np.exp(-1j * ell * dphi), atol=1e-12)
    # the FFT of all modes equals the direct quadrature mode by mode
    modes = oam._aft_all(rolled)
    for ell in range(1 - pf.n_phi // 2, pf.n_phi // 2):
        assert np.max(np.abs(modes[:, ell % pf.n_phi] - aft(rolled, ell))) < 1e-12
    d0 = oam.oam_distribution(pf, L=6)
    d1 = oam.oam_distribution(rolled, L=6)
    assert np.allclose(d0.p, d1.p, atol=1e-13)


def test_translation_non_invariance(caplog):
    """Recentring a pure vortex off axis spreads p while the independent
    <L_z> estimate follows the distribution mean."""
    f, ax = cartesian_vortex(ell=1, n=601, extent=6.0)
    on = oam.to_polar(f, ax, ax, n_r=192, n_phi=512, r_max=4.0)
    off = oam.to_polar(f, ax, ax, center=(1.0, 0.0), n_r=192, n_phi=512,
                       r_max=4.0)
    d_on = oam.oam_distribution(on, L=24)
    d_off = oam.oam_distribution(off, L=24)
    spread_on = float(np.sum((d_on.ells - d_on.mean) ** 2 * d_on.p) / d_on.p.sum())
    spread_off = float(np.sum((d_off.ells - d_off.mean) ** 2 * d_off.p) / d_off.p.sum())
    assert spread_off > spread_on + 0.05
    # the oracle tracks the spread-out mean; only percent-level agreement is
    # expected here because the displaced vortex core sits inside the domain
    # and limits the finite-difference accuracy
    with caplog.at_level(logging.WARNING, logger="sodiff.oam"):
        lz_off = oam.oracle_Lz(off)
    assert [r.levelname for r in caplog.records
            if r.name == "sodiff.oam" and "under-resolved" in r.getMessage()
            ] == ["WARNING"]
    assert abs(lz_off - d_off.mean) \
        <= 1e-2 * max(1.0, abs(d_off.mean))


def test_interference_identical_fields_delta(thermal_bragg_100um):
    """Identical spin components interfere to |psi|^2, which carries no OAM;
    a unit-modulus vortex keeps the product exactly 1 under resampling
    (on a disk inside the grid, so that no node falls on its edge)."""
    f, ax = cartesian_vortex(ell=2)
    f = f / np.abs(f)
    grid = two_component_grid(thermal_bragg_100um, f, f, ax)
    d = oam.oam_distribution(oam.field_from_grid(
        grid, wf.TRANSMITTED, "interference",
        r_max=3.5 / thermal_bragg_100um.k_mag), L=6)
    assert d.p[d.ells == 0][0] == pytest.approx(1.0, abs=1e-12)


def test_edge_nodes_read_not_zeroed(thermal_bragg_100um):
    """A constant-modulus field resampled out to the domain edge.  The axes
    are given as ax / k, so k * theta is not exactly ax and the fractional
    index of an outer-ring node can round just past the last cell (at
    phi = 0 and 3 pi / 2 here); such nodes still read the field."""
    f, ax = cartesian_vortex(ell=2)
    f = f / np.abs(f)
    grid = two_component_grid(thermal_bragg_100um, f, f, ax)
    field = oam.field_from_grid(grid, wf.TRANSMITTED, "interference")
    assert np.max(np.abs(field.values[-1] - 1.0)) < 1e-12
    assert field.coverage == 1.0
    d = oam.oam_distribution(field, L=6)
    assert d.p[d.ells == 0][0] == pytest.approx(1.0, abs=1e-12)


def test_interference_common_phase_invariance(thermal_bragg_100um):
    rng = np.random.default_rng(3)
    c = rng.normal()
    up, ax = cartesian_vortex(ell=0)
    dn, _ = cartesian_vortex(ell=1)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    phase = np.exp(1j * (0.7 * X + 0.2 * Y**2 + c))
    d0, d1 = (oam.oam_distribution(oam.field_from_grid(
        two_component_grid(thermal_bragg_100um, a, b, ax), wf.TRANSMITTED,
        "interference"), L=6) for a, b in ((up, dn), (up * phase, dn * phase)))
    assert np.allclose(d0.p, d1.p, atol=1e-12)


def test_to_polar_center_outside_rejected():
    f, ax = cartesian_vortex()
    with pytest.raises(oam.OamError):
        oam.to_polar(f, ax, ax, center=(10.0, 0.0))


def test_handedness_mirrors_mean():
    f, ax = cartesian_vortex(ell=1)
    d_plus = oam.oam_distribution(oam.to_polar(f, ax, ax, handedness=+1), L=4)
    d_minus = oam.oam_distribution(oam.to_polar(f, ax, ax, handedness=-1), L=4)
    assert d_plus.mean == pytest.approx(-d_minus.mean, abs=1e-9)


@pytest.mark.parametrize("dtype", [float, complex])
def test_bilinear_equals_full_gather(dtype):
    """Gathering only the nodes inside equals the full gather with zero
    fill bit for bit: random nodes partly outside the axes, nodes on the
    last row and column, nodes up to 1e-9 of a cell past an edge (read)
    and 2e-9 past it (zeroed)."""
    rng = np.random.default_rng(7)
    x_axis = np.linspace(-1.0, 2.0, 31)
    y_axis = np.linspace(0.0, 5.0, 17)
    values = rng.normal(size=(31, 17)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=(31, 17))
    dx, dy = x_axis[1] - x_axis[0], y_axis[1] - y_axis[0]
    X = rng.uniform(-2.0, 3.0, size=(24, 40))
    Y = rng.uniform(-1.0, 6.0, size=(24, 40))
    edge_x = [x_axis[-1], x_axis[0] - 0.5e-9 * dx, x_axis[-1] + 0.5e-9 * dx,
              x_axis[0] - 2e-9 * dx, x_axis[-1] + 2e-9 * dx, 0.5]
    edge_y = [2.5, y_axis[-1], y_axis[0] - 0.5e-9 * dy,
              y_axis[-1] + 0.5e-9 * dy, y_axis[-1] + 2e-9 * dy, y_axis[-1]]
    X[0, :6], Y[0, :6] = edge_x, edge_y
    out, inside = oam._bilinear(values, x_axis, y_axis, X, Y)
    ref, ref_inside = bilinear_full_gather(values, x_axis, y_axis, X, Y)
    assert 0.0 < inside.mean() < 1.0
    assert list(inside[0, :6]) == [True, True, True, False, False, True]
    assert np.array_equal(inside, ref_inside)
    assert out.dtype == ref.dtype and np.array_equal(out, ref)


@pytest.mark.parametrize("n_r, n_phi", [(40, 4096), (5, 1 << 17)])
def test_to_polar_blocks_equal_whole_grid(n_r, n_phi):
    """Resampling in blocks of radial rows equals one full gather over all
    polar nodes bit for bit, with a last block shorter than the others
    (40 rows of 4096 nodes in blocks of 16) and one row wider than a
    block; coverage is the share of nodes inside."""
    f, ax = cartesian_vortex()
    center, r_max = (0.3, -0.2), 7.0
    field = oam.to_polar(f, ax, ax, center=center, n_r=n_r, n_phi=n_phi,
                         r_max=r_max, handedness=-1)
    r = np.linspace(0.0, r_max, n_r)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    KY = center[0] + r[:, None] * np.cos(phi)[None, :]
    KZ = center[1] + -1 * r[:, None] * np.sin(phi)[None, :]
    ref, inside = bilinear_full_gather(f, ax, ax, KY, KZ)
    assert 0.0 < field.coverage < 1.0
    assert field.coverage == inside.mean()
    assert np.array_equal(field.values, ref)


def test_lz_estimate_equals_roll():
    """The slice-wise periodic difference equals the np.roll form bit for
    bit, on the full azimuthal grid and on its half-resolution view (a
    real field has <L_z> = 0 exactly in both, so only complex is tried)."""
    rng = np.random.default_rng(8)
    values = rng.normal(size=(16, 64)) + 1j * rng.normal(size=(16, 64))
    r = np.linspace(0.0, 2.0, 16)
    phi = np.arange(64) * (2 * np.pi / 64)
    for v, p in ((values, phi), (values[:, ::2], phi[::2])):
        assert oam._lz_estimate(v, r, p) == lz_estimate_roll(v, r, p)


def test_polar_grid_wholly_outside_is_zero():
    """A polar disk that misses the axes entirely gathers nothing: all
    values zero and coverage 0, without an indexing error."""
    f, ax = cartesian_vortex()
    field = oam.to_polar(f, ax, ax, center=(10.0, 0.0), r_max=1.0,
                         n_r=16, n_phi=32)
    assert field.coverage == 0.0
    assert field.values.shape == (16, 32) and field.values.dtype == complex
    assert not np.any(field.values)
