import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import numerical_Lz
from sodiff import oam


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
    g = oam.aft(pf, 1)
    assert np.allclose(g, np.exp(-pf.r**2 / 2), atol=1e-12)
    for ell in (0, -1, 2, 5):
        assert np.max(np.abs(oam.aft(pf, ell))) < 1e-12


def test_aft_constant_field():
    pf = polar_field(lambda R, PHI: np.ones_like(R))
    assert np.max(np.abs(oam.aft(pf, 0) - 1.0)) < 1e-13
    assert np.max(np.abs(oam.aft(pf, 3))) < 1e-13


def test_aft_cosine_splits_half():
    pf = polar_field(lambda R, PHI: np.exp(-R**2 / 2) * np.cos(PHI))
    g = np.exp(-pf.r**2 / 2) / 2.0
    assert np.allclose(oam.aft(pf, 1), g, atol=1e-13)
    assert np.allclose(oam.aft(pf, -1), g, atol=1e-13)


def test_aft_nyquist_guard():
    pf = polar_field(gauss_vortex(1), n_phi=32)
    with pytest.raises(oam.OamError):
        oam.aft(pf, 16)


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
    assert oam.oam_expectation(d) == pytest.approx(0.0, abs=1e-12)


def test_expectation_delta_at_three():
    d = oam.oam_distribution(polar_field(gauss_vortex(3)), L=8)
    assert oam.oam_expectation(d) == pytest.approx(3.0, abs=1e-12)


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
    assert abs(oam.oracle_Lz(pf) - oam.oam_expectation(d)) \
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
        a = oam.aft(pf, ell)
        b = oam.aft(rolled, ell)
        assert np.allclose(b, a * np.exp(-1j * ell * dphi), atol=1e-12)
    d0 = oam.oam_distribution(pf, L=6)
    d1 = oam.oam_distribution(rolled, L=6)
    assert np.allclose(d0.p, d1.p, atol=1e-13)


def test_translation_non_invariance():
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
    with pytest.warns(UserWarning, match="under-resolved"):
        lz_off = oam.oracle_Lz(off)
    assert abs(lz_off - oam.oam_expectation(d_off)) \
        <= 1e-2 * max(1.0, abs(d_off.mean))


def test_interference_identical_fields_delta():
    pf = polar_field(gauss_vortex(2))
    d = oam.interference_distribution(pf, pf, L=6)
    assert d.p[d.ells == 0][0] == pytest.approx(1.0, abs=1e-12)


def test_interference_common_phase_invariance():
    rng = np.random.default_rng(3)
    c = rng.normal()

    def phase(R, PHI):
        X, Y = R * np.cos(PHI), R * np.sin(PHI)
        return np.exp(1j * (0.7 * X + 0.2 * Y**2 + c))

    up = polar_field(gauss_vortex(0))
    dn = polar_field(gauss_vortex(1))
    up_p = polar_field(lambda R, P: gauss_vortex(0)(R, P) * phase(R, P))
    dn_p = polar_field(lambda R, P: gauss_vortex(1)(R, P) * phase(R, P))
    d0 = oam.interference_distribution(up, dn, L=6)
    d1 = oam.interference_distribution(up_p, dn_p, L=6)
    assert np.allclose(d0.p, d1.p, atol=1e-12)


def test_interference_grid_mismatch_rejected():
    a = polar_field(gauss_vortex(1), n_r=64, n_phi=128)
    b = polar_field(gauss_vortex(1), n_r=64, n_phi=64)
    with pytest.raises(oam.OamError):
        oam.interference_distribution(a, b, L=4)


def test_to_polar_center_outside_rejected():
    f, ax = cartesian_vortex()
    with pytest.raises(oam.OamError):
        oam.to_polar(f, ax, ax, center=(10.0, 0.0))


def test_handedness_mirrors_mean():
    f, ax = cartesian_vortex(ell=1)
    d_plus = oam.oam_distribution(oam.to_polar(f, ax, ax, handedness=+1), L=4)
    d_minus = oam.oam_distribution(oam.to_polar(f, ax, ax, handedness=-1), L=4)
    assert d_plus.mean == pytest.approx(-d_minus.mean, abs=1e-9)
