import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (aft, bilinear_full_gather, lz_estimate_roll,
                     lz_estimate_whole, mode_power_whole, numerical_Lz,
                     total_intensity_whole)
from sodiff import cli, oam
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
    """(values, r, phi) of a field sampled directly on the polar grid (no
    resampling)."""
    r = np.linspace(0.0, r_max, n_r)
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    R, PHI = np.meshgrid(r, phi, indexing="ij")
    return np.asarray(func(R, PHI), complex), r, phi


def reduce_polar(values, r):
    """The oam._RowSums of values[r, phi], fed in blocks of radial rows."""
    sums = oam._RowSums(r, values.shape[1])
    for rows in oam._row_blocks(values.shape):
        sums.add(rows, values[rows])
    return sums


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
    v, r, phi = polar_field(gauss_vortex(1))
    g = aft(v, phi, 1)
    assert np.allclose(g, np.exp(-r**2 / 2), atol=1e-12)
    for ell in (0, -1, 2, 5):
        assert np.max(np.abs(aft(v, phi, ell))) < 1e-12


def test_aft_constant_field():
    v, _, phi = polar_field(lambda R, PHI: np.ones_like(R))
    assert np.max(np.abs(aft(v, phi, 0) - 1.0)) < 1e-13
    assert np.max(np.abs(aft(v, phi, 3))) < 1e-13


def test_aft_cosine_splits_half():
    v, r, phi = polar_field(lambda R, PHI: np.exp(-R**2 / 2) * np.cos(PHI))
    g = np.exp(-r**2 / 2) / 2.0
    assert np.allclose(aft(v, phi, 1), g, atol=1e-13)
    assert np.allclose(aft(v, phi, -1), g, atol=1e-13)


def test_aft_nyquist_guard():
    v, _, phi = polar_field(gauss_vortex(1), n_phi=32)
    with pytest.raises(oam.OamError):
        aft(v, phi, 16)


# ---------------------------------------------------------------------------
# distribution, expectation, oracle
# ---------------------------------------------------------------------------

def test_pure_vortex_distribution():
    v, r, _ = polar_field(gauss_vortex(1))
    d = reduce_polar(v, r).distribution(8)
    assert d.p[d.ells == 1][0] == pytest.approx(1.0, abs=1e-12)
    assert d.mean == pytest.approx(1.0, abs=1e-12)
    assert abs(d.residual) < 1e-12
    assert np.all(d.p >= 0.0)


def test_pure_vortex_distribution_via_resampling():
    f, ax = cartesian_vortex(ell=1)
    d, _, _ = oam.analyse(f, ax, ax, L=8)
    assert d.p[d.ells == 1][0] == pytest.approx(1.0, abs=2e-3)
    assert d.mean == pytest.approx(1.0, abs=2e-3)


def test_linear_state_half_half():
    v, r, _ = polar_field(lambda R, PHI: np.exp(-R**2 / 2)
                          * (np.exp(1j * PHI) + np.exp(-1j * PHI)))
    d = reduce_polar(v, r).distribution(4)
    assert d.p[d.ells == 1][0] == pytest.approx(0.5, abs=1e-12)
    assert d.p[d.ells == -1][0] == pytest.approx(0.5, abs=1e-12)
    assert d.mean == pytest.approx(0.0, abs=1e-12)


def test_expectation_delta_at_three():
    v, r, _ = polar_field(gauss_vortex(3))
    d = reduce_polar(v, r).distribution(8)
    assert d.mean == pytest.approx(3.0, abs=1e-12)


def test_zero_intensity_rejected():
    """A zero or NaN total intensity raises rather than giving NaN
    probabilities."""
    for fill in (0.0, np.nan):
        v, r, _ = polar_field(lambda R, PHI: np.full_like(R, fill))
        with pytest.raises(oam.OamError, match="zero total intensity"):
            reduce_polar(v, r).distribution(4)


def test_oracle_synthetic():
    v, r, _ = polar_field(gauss_vortex(2), n_phi=1024)
    assert reduce_polar(v, r).oracle() == pytest.approx(2.0, abs=2e-4)
    v, r, _ = polar_field(lambda R, PHI: np.exp(-R**2 / 2) * np.cos(PHI),
                          n_phi=512)
    assert abs(reduce_polar(v, r).oracle()) < 1e-12  # real: no net OAM


def test_oracle_matches_expectation_random_smooth():
    rng = np.random.default_rng(7)
    coef = rng.normal(size=7) + 1j * rng.normal(size=7)

    def field(R, PHI):
        return np.exp(-R**2 / 2) * sum(
            c * np.exp(1j * m * PHI) * R**abs(m)
            for c, m in zip(coef, range(-3, 4)))

    v, r, phi = polar_field(field, n_r=192, n_phi=4096)
    sums = reduce_polar(v, r)
    d = sums.distribution(16)
    assert abs(sums.oracle() - d.mean) <= 1e-5 * max(1.0, abs(d.mean))
    # and against the fully independent spectral-quadrature oracle
    assert abs(numerical_Lz(v, r, phi) - d.mean) < 1e-9


def test_parseval_total_intensity():
    v, r, _ = polar_field(gauss_vortex(1))
    d = reduce_polar(v, r).distribution(120)
    assert d.p.sum() + d.residual == pytest.approx(1.0, abs=1e-12)


def test_intensity_conservation_resampling():
    """The polar total intensity matches the Cartesian sum over the disk
    analysed (the largest inside the axes, radius 5)."""
    f, ax = cartesian_vortex(ell=1, extent=5.0)
    d, _, _ = oam.analyse(f, ax, ax, n_r=256, n_phi=512)
    KY, KZ = np.meshgrid(ax, ax, indexing="ij")
    disk = np.hypot(KY, KZ) <= ax[-1]
    source = float(np.sum(np.abs(f[disk]) ** 2) * (ax[1] - ax[0]) ** 2)
    assert d.total_intensity == pytest.approx(source, rel=5e-3)


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(1, 31))
def test_shift_theorem(k_steps):
    """Rotating the field by Delta phi multiplies mode ell by e^{-i ell dphi}
    and leaves p[ell] unchanged."""
    v, r, phi = polar_field(gauss_vortex(1), n_r=64, n_phi=128)
    rolled = np.roll(v, k_steps, axis=1)
    n_phi = phi.size
    dphi = k_steps * 2 * np.pi / n_phi
    for ell in (0, 1, 2):
        a = aft(v, phi, ell)
        b = aft(rolled, phi, ell)
        assert np.allclose(b, a * np.exp(-1j * ell * dphi), atol=1e-12)
    # the FFT of all modes equals the direct quadrature mode by mode
    modes = oam._modes(rolled)
    for ell in range(1 - n_phi // 2, n_phi // 2):
        assert np.max(np.abs(modes[:, ell % n_phi]
                             - aft(rolled, phi, ell))) < 1e-12
    d0 = reduce_polar(v, r).distribution(6)
    d1 = reduce_polar(rolled, r).distribution(6)
    assert np.allclose(d0.p, d1.p, atol=1e-13)


def test_translation_non_invariance(caplog):
    """Recentring a pure vortex off axis spreads p while the independent
    <L_z> estimate follows the distribution mean."""
    f, ax = cartesian_vortex(ell=1, n=601, extent=6.0)
    kw = dict(n_r=192, n_phi=512, r_max=4.0, L=24)
    d_on, _, _ = oam.analyse(f, ax, ax, **kw)
    with caplog.at_level(logging.WARNING, logger="sodiff.oam"):
        d_off, lz_off, _ = oam.analyse(f, ax, ax, center=(1.0, 0.0), **kw)
    spread_on = float(np.sum((d_on.ells - d_on.mean) ** 2 * d_on.p) / d_on.p.sum())
    spread_off = float(np.sum((d_off.ells - d_off.mean) ** 2 * d_off.p) / d_off.p.sum())
    assert spread_off > spread_on + 0.05
    # the oracle tracks the spread-out mean; only percent-level agreement is
    # expected here because the displaced vortex core sits inside the domain
    # and limits the finite-difference accuracy
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
    d, _, _ = oam.analyse_grid(grid, wf.TRANSMITTED, "interference", L=6,
                               r_max=3.5 / thermal_bragg_100um.k_mag)
    assert d.p[d.ells == 0][0] == pytest.approx(1.0, abs=1e-12)


def test_edge_nodes_read_not_zeroed(thermal_bragg_100um):
    """A constant-modulus field resampled out to the domain edge.  The axes
    are given as ax / k, so k * theta is not exactly ax and the fractional
    index of an outer-ring node can round just past the last cell (at
    phi = 0 and 3 pi / 2 here); such nodes still read the field."""
    f, ax = cartesian_vortex(ell=2)
    f = f / np.abs(f)
    grid = two_component_grid(thermal_bragg_100um, f, f, ax)
    d, _, coverage = oam.analyse_grid(grid, wf.TRANSMITTED, "interference",
                                      L=6)
    assert coverage == 1.0
    assert d.p[d.ells == 0][0] == pytest.approx(1.0, abs=1e-12)
    # the nodes analyse_grid resamples: axes in 1/A, azimuth about H
    k, h = thermal_bragg_100um.k_mag, np.sign(thermal_bragg_100um.H[0])
    nodes = oam._PolarNodes(grid.spin_field(wf.TRANSMITTED, "interference"),
                            k * grid.theta, k * grid.rho, (0.0, 0.0), 128,
                            256, None, int(h))
    [(_, block, inside)] = nodes.blocks()
    assert inside == block.size
    assert np.max(np.abs(block[-1] - 1.0)) < 1e-12


def test_interference_common_phase_invariance(thermal_bragg_100um):
    rng = np.random.default_rng(3)
    c = rng.normal()
    up, ax = cartesian_vortex(ell=0)
    dn, _ = cartesian_vortex(ell=1)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    phase = np.exp(1j * (0.7 * X + 0.2 * Y**2 + c))
    d0, d1 = (oam.analyse_grid(
        two_component_grid(thermal_bragg_100um, a, b, ax), wf.TRANSMITTED,
        "interference", L=6)[0]
        for a, b in ((up, dn), (up * phase, dn * phase)))
    assert np.allclose(d0.p, d1.p, atol=1e-12)


def test_to_polar_center_outside_rejected():
    f, ax = cartesian_vortex()
    with pytest.raises(oam.OamError):
        oam.analyse(f, ax, ax, center=(10.0, 0.0))


@pytest.mark.parametrize("r_max", [-1.0, 0.0, np.nan, np.inf])
def test_bad_r_max_rejected(r_max):
    """A radius that is not positive and finite is an error, not a disk
    turned by pi (negative) or an all-NaN analysis."""
    f, ax = cartesian_vortex()
    with pytest.raises(oam.OamError, match="r_max must be positive"):
        oam.analyse(f, ax, ax, r_max=r_max)


@pytest.mark.parametrize("L", [-1, -32, 128])
def test_truncation_outside_range_rejected(L):
    """A negative truncation is an error, as one at or beyond Nyquist is,
    not an empty distribution with residual 1."""
    f, ax = cartesian_vortex()
    with pytest.raises(oam.OamError,
                       match=f"= 127 \\(below Nyquist\\), got {L}$"):
        oam.analyse(f, ax, ax, L=L)


def test_handedness_mirrors_mean():
    f, ax = cartesian_vortex(ell=1)
    d_plus, _, _ = oam.analyse(f, ax, ax, handedness=+1, L=4)
    d_minus, _, _ = oam.analyse(f, ax, ax, handedness=-1, L=4)
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
    """Resampling to polar nodes in blocks of radial rows equals one full
    gather over all of them bit for bit, with a last block shorter than
    the others (40 rows of 4096 nodes in blocks of 16) and one row wider
    than a block; each block counts the nodes inside."""
    f, ax = cartesian_vortex()
    center, r_max = (0.3, -0.2), 7.0
    nodes = oam._PolarNodes(f, ax, ax, center, n_r, n_phi, r_max, -1)
    rows, blocks, counts = zip(*nodes.blocks())
    r = np.linspace(0.0, r_max, n_r)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    KY = center[0] + r[:, None] * np.cos(phi)[None, :]
    KZ = center[1] + -1 * r[:, None] * np.sin(phi)[None, :]
    ref, inside = bilinear_full_gather(f, ax, ax, KY, KZ)
    assert list(rows) == oam._row_blocks((n_r, n_phi))
    assert 0.0 < inside.mean() < 1.0
    assert list(counts) == [np.count_nonzero(inside[s]) for s in rows]
    assert np.array_equal(np.concatenate(blocks), ref)


def test_lz_estimate_equals_roll():
    """The slice-wise periodic difference equals the np.roll form bit for
    bit, on the full azimuthal grid and on its half-resolution view (a
    real field has <L_z> = 0 exactly in both, so only complex is tried)."""
    values, r, phi = random_polar_field(complex, 16, 64, seed=8)
    sums = reduce_polar(values, r)
    for half, v, p in ((False, values, phi), (True, values[:, ::2], phi[::2])):
        assert sums.lz(half) == lz_estimate_roll(v, r, p)


def random_polar_field(dtype, n_r, n_phi, seed=9):
    """(values, r, phi) of random values with no symmetry, on r in
    [0, 2]."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_r, n_phi)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=(n_r, n_phi))
    return (values, np.linspace(0.0, 2.0, n_r),
            np.arange(n_phi) * (2 * np.pi / n_phi))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n_r, n_phi", [(40, 4096), (3, 1 << 17)])
def test_reductions_blocks_equal_whole_grid(dtype, n_r, n_phi):
    """Total intensity, mode power and the <L_z> estimate taken in blocks of
    radial rows equal their whole-grid forms bit for bit: 40 rows of 4096
    nodes in blocks of 16 (a short last block) and rows wider than a
    block, on real and complex fields; <L_z> also on the half-resolution
    view the oracle re-estimates on."""
    values, r, phi = random_polar_field(dtype, n_r, n_phi)
    assert len(oam._row_blocks(values.shape)) == 3
    sums = reduce_polar(values, r)
    total = total_intensity_whole(values, r, phi)
    assert sums.total() == total
    power = sums.mode_power()
    assert np.array_equal(power, mode_power_whole(values, r, phi))
    d = sums.distribution(16)
    ells = np.arange(-16, 17)
    assert np.array_equal(d.p, power[ells % n_phi] / total)
    for half, v, p in ((False, values, phi), (True, values[:, ::2], phi[::2])):
        assert sums.lz(half) == lz_estimate_whole(v, r, p)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n_r, n_phi", [(40, 4096), (3, 1 << 17)])
def test_one_pass_equals_whole_grid(dtype, n_r, n_phi):
    """analyse, which resamples and reduces one block of radial rows at a
    time and never holds the polar field, gives the bits of the whole-grid
    oracles on the fully gathered polar field: random real and complex
    Cartesian fields on a disk partly outside the axes, 40 rows of 4096
    nodes in blocks of 16 (a short last block) and rows wider than a
    block."""
    rng = np.random.default_rng(12)
    ky, kz = np.linspace(-1.0, 2.0, 31), np.linspace(0.0, 5.0, 17)
    values = rng.normal(size=(31, 17)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=(31, 17))
    center, r_max = (0.4, 2.2), 2.0
    dist, lz, coverage = oam.analyse(values, ky, kz, center=center, n_r=n_r,
                                     n_phi=n_phi, r_max=r_max, handedness=-1,
                                     L=16)
    r = np.linspace(0.0, r_max, n_r)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    polar, inside = bilinear_full_gather(
        values, ky, kz, center[0] + r[:, None] * np.cos(phi)[None, :],
        center[1] + -1 * r[:, None] * np.sin(phi)[None, :])
    assert 0.0 < coverage < 1.0 and coverage == inside.mean()

    total = total_intensity_whole(polar, r, phi)
    power = mode_power_whole(polar, r, phi)
    assert dist.total_intensity == total
    assert np.array_equal(dist.ells, np.arange(-16, 17))
    assert np.array_equal(dist.p, power[dist.ells % n_phi] / total)
    assert dist.residual == float(power.sum() / total - dist.p.sum())
    assert dist.mean == float(np.sum(dist.ells * dist.p) / np.sum(dist.p))
    assert lz == lz_estimate_whole(polar, r, phi)


def test_oam_analysis_memory_bounded(tmp_path):
    """The reducer fed a 64 x 8192 field (8 blocks) allocates at most four
    blocks of complex nodes beyond the field, and a two-component OAM
    analysis of a 33^2 grid on 128 x 8192 polar nodes (16 MiB as one
    field) peaks below twelve blocks plus a few Cartesian fields: the polar
    field is never held, and resampling one block peaks near nine."""
    values, r, _ = random_polar_field(complex, 64, 8192)
    tracemalloc.start()
    try:
        sums = reduce_polar(values, r)
        sums.distribution(16)
        sums.oracle()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * oam._POLAR_BLOCK_NODES

    cfg = cli.parse_config(f"""
[crystal]
builtin = quartz110
[geometry]
kind = bragg
hkl = 1 1 0
wavelength_A = 2.0
thickness_mm = 0.3
[scan]
theta_points = 33
theta_half_widths = 1
rho_points = 33
[analysis]
mode = oam
beams = transmitted
n_r = 128
n_phi = 8192
[output]
directory = {tmp_path}
""")
    tracemalloc.start()
    try:
        assert cli.run_config(cfg, tmp_path, tmp_path) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 16 * oam._POLAR_BLOCK_NODES + 8 * 16 * 33 * 33


@pytest.mark.parametrize("n_phi", [255, 257])
def test_oracle_rejects_odd_n_phi(n_phi):
    """For odd n_phi every second azimuth wraps with a one-step gap, which
    biases the half-resolution re-estimate, so analyse refuses it."""
    f, ax = cartesian_vortex()
    with pytest.raises(oam.OamError, match="even n_phi"):
        oam.analyse(f, ax, ax, n_r=64, n_phi=n_phi)


def test_polar_grid_wholly_outside_is_zero():
    """A polar disk that misses the axes entirely gathers nothing, without
    an indexing error: one block, all zero, no node inside.  Its analysis
    has no intensity to normalise by, so analyse raises."""
    f, ax = cartesian_vortex()
    nodes = oam._PolarNodes(f, ax, ax, (10.0, 0.0), 16, 32, 1.0, +1)
    [(_, block, inside)] = nodes.blocks()
    assert inside == 0
    assert block.shape == (16, 32) and block.dtype == complex
    assert not np.any(block)
    with pytest.raises(oam.OamError, match="zero total intensity"):
        oam.analyse(f, ax, ax, center=(10.0, 0.0), r_max=1.0, n_r=16,
                    n_phi=32, L=8)
