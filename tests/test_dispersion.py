import dataclasses
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (assemble_coherences_full, brute_force_potential,
                     channel_diagnostics, channel_entries, channel_projector,
                     darwin_reflectivity, laue_coherence_all_beats,
                     pendelloesung_length, potential_fourier, two_beam_point)
from sodiff import crystal as cr
from sodiff import dispersion as dp
from sodiff import wavefield as wf


def one_point(crystal, geom, theta, u0=(1.0, 0.0)):
    """Engine result at a single (theta, rho = 0)."""
    return dp.exit_amplitude_maps(geom, crystal, np.asarray(u0, complex),
                                  theta, 0.0)


def empty_slot():
    """Forget the one-point channel slot's key and entry."""
    dp._CHANNEL_SLOT = (None, None)


def with_diagnostics(geom, crystal, theta, rho, u0=(1.0, 0.0)):
    """Engine result at broadcast (theta, rho) with the channel_diagnostics
    of the same points."""
    return {**dp.exit_amplitude_maps(geom, crystal, np.asarray(u0, complex),
                                     theta, rho),
            **channel_diagnostics(geom, crystal, theta, rho)}


def reference_channel_potentials(crystal, w, hkl=(1, 1, 0)):
    """[(vH, vmH) for s = +1, -1] from the full 2x2 V(+-H, K), for a K
    whose spin-orbit strength |K x H|/|H|^2 is w."""
    H = cr.reciprocal_vector(crystal, hkl)
    e = np.cross(H, [0.0, 0.0, 1.0])
    K = float(w) * np.linalg.norm(H) * e / np.linalg.norm(e)
    u = np.cross(K, H)
    u /= np.linalg.norm(u)
    vH = channel_entries(potential_fourier(crystal, H, K), u)
    vmH = channel_entries(potential_fourier(crystal, -H, K), u)
    return list(zip(vH, vmH))


# ---------------------------------------------------------------------------
# branch roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u0", [
    (1.0, 0.0), (0.0, 1.0), (2.0**-0.5, 2.0**-0.5), (2.0**-0.5, 2.0**-0.5 * 1j),
    (0.6 - 0.3j, -0.2 + 0.7j)], ids=["up", "down", "along", "circular", "random"])
def test_channel_projections_equal_matmul(u0):
    """The written-out projector equals 1/2 (1 + s sigma.u) @ u0 by einsum and
    matmul bit for bit in both channels, on random axes, the parallel
    axis (0, 0, 1) and one axis without leading dimensions."""
    rng = np.random.default_rng(5)
    u_hat = rng.normal(size=(64, 33, 3))
    u_hat /= np.linalg.norm(u_hat, axis=-1, keepdims=True)
    u_hat[0, 0] = (0.0, 0.0, 1.0)
    for u in (u_hat, u_hat[3, 4]):
        amp0 = dp._channel_projections(u, np.asarray(u0, complex))
        assert amp0.shape == (2,) + u.shape[:-1] + (2,)
        for ci, s in enumerate((+1.0, -1.0)):
            assert np.array_equal(amp0[ci], channel_projector(u, u0, s))


def test_secular_residual_and_eq10(quartz, thermal_bragg_100um):
    g = thermal_bragg_100um
    res = channel_diagnostics(g, quartz, 3e-6, 0.0)
    E, v0 = res["energy_meV"], res["v0"]
    alpha0, beta = float(res["alpha0"]), float(res["beta"])
    channels = reference_channel_potentials(quartz, res["w"])
    for ci, (vH, vmH) in enumerate(channels):
        for y, X in zip(res["y"][ci], res["X"][ci]):
            eps = (y - v0) / (2 * E)
            # X from the printed amplitude-ratio relation
            assert abs(X + (2 * E * eps + v0) / vH) < 1e-12 * abs(X)
            # second two-beam equation residual
            alphaH = alpha0 - 2 * E * beta * eps
            res2 = -vmH + (alphaH - v0) * X
            scale = abs(vmH) + abs((alphaH - v0) * X)
            assert abs(res2) / scale < 1e-12


def test_branch_ordering_deterministic(quartz, thermal_bragg_100um):
    res = channel_diagnostics(thermal_bragg_100um, quartz, -4e-6, 0.0)
    for y1, y2 in res["y"]:
        assert (y1.real, y1.imag) <= (y2.real, y2.imag)


def test_total_reflection_conjugate_branches(quartz, thermal_bragg_100um):
    center = dp.darwin_center_theta(quartz, thermal_bragg_100um)
    res = channel_diagnostics(thermal_bragg_100um, quartz, center, 0.0)
    b_asym = float(res["g0"] / res["gH"])   # asymmetry factor at the centre
    for (y1, y2), (X1, X2) in zip(res["y"], res["X"]):
        # opposite signs inside the zone (Im eps = Im y / 2E)
        assert y1.imag * y2.imag < 0
        # conjugate pair: equal moduli, and |X|^2 weighted by the asymmetry
        # factor gives total reflection
        assert abs(X1) == pytest.approx(abs(X2), rel=1e-10)
        assert abs(X1) ** 2 * abs(b_asym) ** -1 == pytest.approx(1.0, rel=1e-9)


def test_forbidden_reflection_rejected():
    with pytest.raises(dp.DispersionError, match="forbidden"):
        dp._solve_channel(-1.0, 1e-6, 0.0, 0.0)


def test_weak_coupling_limit_mean_refraction(quartz, thermal_bragg_100um):
    """vH -> 0 off the Bragg condition: one branch tends to the mean
    optical-potential refraction eps = -v0/2E and carries no reflection."""
    res = channel_diagnostics(thermal_bragg_100um, quartz, 5e-4, 0.0)
    E, v0 = res["energy_meV"], res["v0"]
    vH, vmH = reference_channel_potentials(quartz, res["w"])[0]
    beta = res["beta"]
    b = (1.0 - beta) * v0 - res["alpha0"]
    (y1, y2), (X1, X2) = dp._solve_channel(beta, b, vH * vmH * 1e-12,
                                           vH * 1e-6)
    eps1, eps2 = (y1 - v0) / (2 * E), (y2 - v0) / (2 * E)
    eps_fwd = min((eps1, eps2), key=lambda e: abs(e + v0 / (2 * E)))
    assert abs(eps_fwd + v0 / (2 * E)) < 1e-6 * abs(v0 / (2 * E))
    X_fwd = X1 if eps_fwd == eps1 else X2
    assert abs(X_fwd) < 1e-4


def test_schwinger_branch_splitting_continuity(quartz, thermal_bragg_100um):
    """Spin splitting is nonzero with the spin-orbit term on and vanishes
    continuously, linearly to first order, as the gammas are scaled to
    zero."""
    g = thermal_bragg_100um
    center = dp.darwin_center_theta(quartz, g)
    splits = []
    for scale in (1.0, 0.1, 0.0):
        c = dataclasses.replace(quartz, schwinger_scale=scale)
        res = channel_diagnostics(g, c, center, 0.0)
        y = res["y"]
        splits.append(abs(y[0, 0] - y[1, 0]) / (2 * res["energy_meV"]))
    assert splits[1] > 0
    assert splits[1] == pytest.approx(0.1 * splits[0], rel=1e-5)
    assert splits[2] == 0.0


def test_branch_labels_follow_root_separation(quartz, thermal_bragg_100um):
    """Branches are ordered along the roots' separation: by Re(eps) where
    the roots differ more in their real parts, else by Im(eps).  Inside the
    total-reflection zone the real parts of the conjugate pair agree but
    for round-off, which must not pick the labels: there each branch of one
    spin channel lies next to the same branch of the other (measured: at
    most 0.07 of the distance to the other branch, near the zone edges; a
    label picked by round-off gives about 1400)."""
    g = thermal_bragg_100um
    th = dp.darwin_center_theta(quartz, g) + np.linspace(-1e-5, 1e-5, 2001)
    res = channel_diagnostics(g, quartz, th, 0.0)
    y = res["y"]                                   # (theta, channel, branch)
    d = y[..., 1] - y[..., 0]
    by_real = np.abs(d.real) >= np.abs(d.imag)
    assert np.all(np.where(by_real, d.real, d.imag) >= 0.0)
    inside = ~by_real.any(axis=-1)
    assert inside.sum() > 400 and by_real.all(axis=-1).sum() > 1000
    same = np.abs(y[..., 0, :] - y[..., 1, :]).max(axis=-1)
    crossed = np.abs(y[..., 0, :] - y[..., 1, ::-1]).min(axis=-1)
    assert np.all(same[inside] < 0.25 * crossed[inside])


# ---------------------------------------------------------------------------
# boundary-condition amplitudes against a from-scratch per-point solve
# ---------------------------------------------------------------------------

def assert_matches_point_solve(crystal, g, theta):
    res = channel_diagnostics(g, crystal, theta, 0.0)
    kappa_scale = g.k_mag**2 / res["g0"]
    channels = reference_channel_potentials(crystal, res["w"])
    for ci, (vH, vmH) in enumerate(channels):
        t, r = two_beam_point(res["alpha0"], res["beta"], res["v0"], vH, vmH,
                              res["energy_meV"], kappa_scale, g.thickness_A,
                              bragg=g.kind == dp.BRAGG)
        scale = max(abs(t), abs(r))
        assert abs(res["t"][ci] - t) <= 1e-12 * scale
        assert abs(res["r"][ci] - r) <= 1e-12 * scale


def test_bragg_amplitudes_boundary_identities(quartz, thermal_bragg_100um):
    center = dp.darwin_center_theta(quartz, thermal_bragg_100um)
    for theta in (2e-6, center, center + 2e-5):
        assert_matches_point_solve(quartz, thermal_bragg_100um, theta)


def test_bragg_zero_input(quartz, thermal_bragg_100um):
    res = one_point(quartz, thermal_bragg_100um, 0.0, u0=(0.0, 0.0))
    assert not res["psi0"].any() and not res["psiH"].any()


def test_laue_amplitudes_boundary_identities(quartz):
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    for theta in (0.0, 3e-6, -2e-5):
        assert_matches_point_solve(quartz, g, theta)


def test_laue_zero_thickness_no_crystal(quartz, u0_along_beam):
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 0.0)
    res = one_point(quartz, g, 0.0, u0=u0_along_beam)
    assert np.allclose(res["psi0"], u0_along_beam, atol=1e-14)
    assert np.allclose(res["psiH"], 0.0, atol=1e-14)
    assert res["T"] == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# exit fields and conservation
# ---------------------------------------------------------------------------

def test_flux_conservation_scan(quartz, thermal_bragg_100um, u0_along_beam):
    th = np.linspace(-4e-5, 4e-5, 501)
    res = dp.exit_amplitude_maps(thermal_bragg_100um, quartz, u0_along_beam,
                                 th, np.zeros_like(th))
    assert np.max(np.abs(res["R"] + res["T"] - 1.0)) < 1e-10


ENGINE_KEYS = {"amplitudes": {"psi0", "psiH", "R", "T"},
               "coherences": {"rho0", "rhoH", "R", "T", "g0"}}


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
@pytest.mark.parametrize("u0", [(1.0, 1.0), (0.6 - 0.3j, -0.2 + 0.7j)],
                         ids=["along-beam", "complex"])
def test_one_point_equals_grid_point(quartz, kind, u0):
    """With either engine, a one-point call, with 0-d offsets or with
    1-element arrays, equals the same point of a 64^2 grid call bit for bit
    (the bytes, so the sign of a zero counts too), and a 0-d call equals
    the point of a theta line.  Twelve points, across the Darwin zone and
    off it.  Every result, grid, line or point, holds exactly the engine's
    ENGINE_KEYS."""
    u0 = np.asarray(u0, complex) / np.linalg.norm(u0)
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    th = dp.darwin_center_theta(quartz, g) + np.linspace(-3e-5, 3e-5, 64)
    rh = np.linspace(-3e-5, 3e-5, 64)
    points = np.random.default_rng(3).integers(0, 64, size=(12, 2))
    for name, call in engine_calls(quartz, u0):
        keys = ENGINE_KEYS[name]
        grid = call(g, th[:, None], rh[None, :])
        line = call(g, th, 0.0)
        assert grid.keys() == line.keys() == keys, name
        for i, j in points:
            scalar = call(g, th[i], rh[j])
            array = call(g, th[i:i + 1], rh[j:j + 1])
            on_line = call(g, float(th[i]), 0.0)
            assert scalar.keys() == array.keys() == on_line.keys() == keys
            for key in keys:
                assert np.shape(scalar[key]) == grid[key].shape[2:]
                assert array[key].shape == (1,) + grid[key].shape[2:]
                point = grid[key][i, j].tobytes()
                assert np.asarray(scalar[key]).tobytes() == point, key
                assert array[key].tobytes() == point, key
                assert np.asarray(on_line[key]).tobytes() == \
                    line[key][i].tobytes(), key


POINT_SETUP_OFFSETS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                       (3e-6, 0.0), (-0.0, -2e-5), (1e-3, -2e-3)] + [
    tuple(v) for v in np.random.default_rng(11).normal(scale=3e-4,
                                                       size=(6, 2))]


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
@pytest.mark.parametrize("wavelength", ["thermal", "backscattering"])
@pytest.mark.parametrize("spin_orbit", [True, False], ids=["so", "scalar"])
def test_point_setup_equals_kinematics_and_axis(quartz, kind, wavelength,
                                                spin_orbit):
    """_point_setup forms the set-up of one point in floats, with the bits
    that kinematics() and schwinger_axis() give that point's two copies:
    g0, gH, alpha0, beta, u_hat and w, in the thermal frame and in both
    backscattering frames (H on the x axis; n = +x for Bragg, where
    theta = rho = 0 puts K || H, and n = -y for Laue, where theta = 0 is
    grazing and both refuse it), at offsets of either zero sign and at
    random ones."""
    crystal = quartz if spin_orbit else quartz.without_schwinger()
    lam = (2.0 if wavelength == "thermal"
           else dp.backscattering_wavelength(crystal, (1, 1, 0), kind))
    g = dp.make_geometry(crystal, (1, 1, 0), lam, kind, 1e6)
    parallel = 0
    for theta, rho in POINT_SETUP_OFFSETS:
        k, g0, gH, alpha0 = g.kinematics(np.full(2, theta), np.asarray(rho))
        if not (g0.all() and gH.all()):
            with pytest.raises(dp.DispersionError, match="grazing"):
                dp._point_setup(g, theta, rho)
            continue
        ref = (g0, gH, alpha0, gH / g0, *cr.schwinger_axis(k, g.H))
        got = dp._point_setup(g, theta, rho)
        for name, a, b in zip(("g0", "gH", "alpha0", "beta", "u_hat", "w"),
                              got, ref):
            assert (a.shape, a.dtype, a.tobytes()) == \
                (b.shape, b.dtype, b.tobytes()), (name, theta, rho)
        parallel += not got[-1].any()
    # K || H at theta = rho = 0 of Bragg backscattering, and only there
    assert parallel == (4 if (kind, wavelength) == (dp.BRAGG,
                                                    "backscattering") else 0)


@settings(max_examples=80, deadline=None)
@given(
    crystal_kind=st.sampled_from(["random", "quartz"]),
    b=st.tuples(st.floats(1.0, 9.0), st.floats(1.0, 9.0)),
    frac=st.tuples(*[st.floats(0.05, 0.95)] * 3),
    lam_frac=st.floats(0.15, 0.999), kind=st.sampled_from([dp.BRAGG, dp.LAUE]),
    logD=st.floats(4.0, 7.5), engine=st.sampled_from(["amplitudes",
                                                      "coherences"]),
    shape=st.sampled_from([(), (1,), (1, 1)]),
    offsets=st.tuples(*[st.floats(-1e-3, 1e-3)] * 4),
)
def test_one_point_call_equals_two_point_call(crystal_kind, b, frac,
                                              lam_frac, kind, logD, engine,
                                              shape, offsets):
    """For random two-site crystals and for quartz with its spin-orbit
    term, with either kind and either engine, a one-point call (0-d, (1,)
    or (1, 1) offsets) gives the bytes of its point in a two-point call,
    three times: for the amplitude engine the miss that marks the point,
    the miss that stores it and the hit.  Near grazing incidence the
    fields overflow; that changes no byte either, so the overflow warnings
    are silenced."""
    from hypothesis import assume

    if crystal_kind == "quartz":
        crystal = cr.reference_quartz()
    else:
        crystal = cr.CrystalModel(
            "random", ((4.2, 0, 0), (0.3, 5.1, 0), (0, 0, 6.3)),
            (cr.AtomSite("A", (0.0, 0.0, 0.0), b[0], 12),
             cr.AtomSite("B", frac, b[1], 24)))
    lam = lam_frac * 2.0 * crystal.d_spacing((1, 1, 0))
    g = dp.make_geometry(crystal, (1, 1, 0), lam, kind, 10.0**logD)
    theta, rho, theta2, rho2 = offsets
    _, g0, gH, _ = g.kinematics(np.array([theta, theta2]),
                                np.array([rho, rho2]))
    assume(g0.all() and gH.all())
    u0 = np.array([0.6 - 0.3j, -0.2 + 0.7j]) / np.sqrt(0.98)
    ((_, call),) = [c for c in engine_calls(crystal, u0) if c[0] == engine]
    with np.errstate(all="ignore"):
        pair = call(g, np.array([theta, theta2]), np.array([rho, rho2]))
        empty_slot()
        for _ in range(3):
            one = call(g, np.full(shape, theta), np.full(shape, rho))
            assert_same_bits(one, {key: v[0].reshape(shape + v.shape[1:])
                                   for key, v in pair.items()})


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(1.0, 8.0), b2=st.floats(1.0, 8.0),
    fx=st.floats(0.05, 0.95), fy=st.floats(0.05, 0.95),
    lam_frac=st.floats(0.15, 0.95), kind=st.sampled_from([dp.BRAGG, dp.LAUE]),
    logD=st.floats(4.0, 7.5), theta_off=st.floats(-3e-5, 3e-5),
)
def test_flux_conservation_random_geometries(b1, b2, fx, fy, lam_frac, kind,
                                             logD, theta_off):
    """R + T = 1 for random two-site crystals, wavelengths, kinds and
    thicknesses (real potentials).

    The measure-zero neighbourhood of exact branch degeneracy (a zone edge
    hit to ~1e-7 relative) is assumed away: there the boundary system is
    near singular and flux closure degrades to eps/|X1 - X2| by ordinary
    conditioning, which is what the documented nudge handling is for.
    """
    from hypothesis import assume

    sites = (cr.AtomSite("A", (0, 0, 0), b1, 10),
             cr.AtomSite("B", (fx, fy, 0.31), b2, 20))
    c = cr.CrystalModel("rand", ((4.1, 0, 0), (0, 5.3, 0), (0, 0, 6.2)), sites)
    lam = lam_frac * 2.0 * c.d_spacing((1, 1, 0))
    g = dp.make_geometry(c, (1, 1, 0), lam, kind, 10.0**logD)
    th = np.array([theta_off])
    res = with_diagnostics(g, c, th, np.zeros(1))
    y = res["y"][0, 0]
    assume(abs(y[0] - y[1]) > 1e-6 * (abs(y[0]) + abs(y[1])))
    assert abs(res["R"][0] + res["T"][0] - 1.0) < 1e-10


def test_darwin_oracle_agreement(quartz, u0_along_beam):
    """Scalar thick-crystal reflectivity against the closed-form Darwin
    curve across the total-reflection region."""
    scal = quartz.without_schwinger()
    g = dp.make_geometry(scal, (1, 1, 0), 2.0, dp.BRAGG, 2e7)  # 2 mm >> ext
    vh = dp.scalar_reflection_scale(scal, g)
    v0 = cr.mean_potential_meV(scal)
    center = dp.darwin_center_theta(scal, g)
    slope = dp.deviation_slope(g)
    # eta in [-0.95, 0.95]: strictly inside the total-reflection region
    eta = np.linspace(-0.95, 0.95, 101)
    alpha = 2 * v0 - 2 * vh * eta      # b_asym = -1: centre alpha = 2 v0
    th = center + (alpha - 2 * v0) / slope
    res = dp.exit_amplitude_maps(g, scal, np.array([1.0, 0.0]), th,
                                 np.zeros_like(th))
    R_oracle = darwin_reflectivity(eta)
    assert np.max(np.abs(res["R"] - R_oracle)) < 1e-8


def test_reflectivity_continuous_across_zone_boundary(quartz, u0_along_beam):
    """No branch-ordering jumps: the max grid step of R(theta) shrinks
    under refinement (thin crystal), and stays tiny on a micro-window
    straddling the total-reflection edge of a thick crystal."""
    scal = quartz.without_schwinger()
    g = dp.make_geometry(scal, (1, 1, 0), 2.0, dp.BRAGG, 3e5)  # 30 um
    center = dp.darwin_center_theta(scal, g)
    w = dp.darwin_fwhm_rad(scal, g)
    steps = {}
    for n in (2001, 4001):
        th = center + np.linspace(-1.2 * w, 1.2 * w, n)
        res = dp.exit_amplitude_maps(g, scal, np.array([1.0, 0.0]), th,
                                     np.zeros_like(th))
        steps[n] = np.max(np.abs(np.diff(res["R"])))
    assert steps[4001] < 0.75 * steps[2001] + 1e-9

    thick = dp.make_geometry(scal, (1, 1, 0), 2.0, dp.BRAGG, 2e7)
    vh = dp.scalar_reflection_scale(scal, thick)
    slope = dp.deviation_slope(thick)
    edge = center + 2.0 * vh / abs(slope)   # eta = -1 zone edge
    th = edge + np.linspace(-1e-10, 1e-10, 2001)
    res = dp.exit_amplitude_maps(thick, scal, np.array([1.0, 0.0]), th,
                                 np.zeros_like(th))
    assert np.max(np.abs(np.diff(res["R"]))) < 1e-3


def test_schwinger_off_no_spin_flip(quartz, thermal_bragg_100um, u0_along_beam):
    scal = quartz.without_schwinger()
    th = np.linspace(-3e-5, 3e-5, 257)
    res = dp.exit_amplitude_maps(thermal_bragg_100um.__class__(
        **{**dataclasses.asdict(thermal_bragg_100um)}), scal, u0_along_beam,
        th, np.zeros_like(th))
    orth = np.array([-1.0, 1.0]) / np.sqrt(2)
    flip0 = np.abs(res["psi0"] @ np.conj(orth))
    flipH = np.abs(res["psiH"] @ np.conj(orth))
    assert flip0.max() <= 1e-14
    assert flipH.max() <= 1e-14


def test_backscattering_wavelengths(quartz):
    lamL = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.LAUE)
    lamB = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    assert lamL == pytest.approx(2 * quartz.d_spacing((1, 1, 0)), rel=1e-12)
    assert lamB < lamL
    g = dp.make_geometry(quartz, (1, 1, 0), lamB, dp.BRAGG, 1e7)
    th = np.linspace(-1e-5, 1e-5, 41)
    res = dp.exit_amplitude_maps(g, quartz, np.array([1.0, 0.0]), th,
                                 np.zeros_like(th))
    assert res["R"].max() > 0.999  # resonance reachable at the shifted lambda


def test_unreachable_bragg_rejected(quartz):
    with pytest.raises(dp.DispersionError, match="unreachable"):
        dp.make_geometry(quartz, (1, 1, 0), 5.2, dp.BRAGG, 1e6)


@pytest.mark.parametrize("wavelength", [0.0, -2.0, np.nan, np.inf])
def test_impossible_wavelength_rejected(quartz, wavelength):
    with pytest.raises(dp.DispersionError, match="wavelength"):
        dp.make_geometry(quartz, (1, 1, 0), wavelength, dp.BRAGG, 1e6)


def test_non_integer_miller_indices_rejected(quartz):
    """make_geometry used to build H from (1.5, 1, 0) and store hkl
    (1, 1, 0), whose lattice sums belong to another H."""
    with pytest.raises(dp.DispersionError, match="hkl"):
        dp.make_geometry(quartz, (1.5, 1, 0), 2.0, dp.BRAGG, 1e6)
    g = dp.make_geometry(quartz, np.array([1, 1, 0]), 2.0, dp.BRAGG, 1e6)
    assert g == dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e6)


@pytest.mark.parametrize("thickness", [np.nan, np.inf, -1.0])
def test_impossible_thickness_rejected(thermal_bragg_100um, thickness):
    """A slab of negative or non-finite thickness cannot exist; one of
    zero thickness can."""
    with pytest.raises(dp.DispersionError, match="thickness"):
        dataclasses.replace(thermal_bragg_100um, thickness_A=thickness)
    assert dataclasses.replace(thermal_bragg_100um,
                               thickness_A=0.0).thickness_A == 0.0


def test_geometry_fields_normalised(thermal_bragg_100um):
    """Vectors given as lists or arrays are stored as 3-tuples of floats
    and Miller indices as a 3-tuple of ints, so the geometry equals and
    hashes like the tuple-built one; a wrong length or a non-integer Miller
    index is a DispersionError."""
    g = thermal_bragg_100um
    from_arrays = dp.DiffractionGeometry(
        k0=np.array(g.k0), H=list(g.H), n=np.array(g.n), kind=g.kind,
        thickness_A=np.float64(g.thickness_A), hkl=np.array(g.hkl))
    assert from_arrays == g and hash(from_arrays) == hash(g)
    for name in ("k0", "H", "n"):
        assert all(type(x) is float for x in getattr(from_arrays, name))
    assert all(type(i) is int for i in from_arrays.hkl)
    assert type(from_arrays.thickness_A) is float
    for change in ({"k0": (1.0, 0.0)}, {"H": [1.0, 2.0, 3.0, 4.0]},
                   {"n": np.ones((3, 1))}, {"hkl": (1, 1)},
                   {"hkl": (1.5, 1.0, 0.0)}):
        with pytest.raises(dp.DispersionError):
            dataclasses.replace(g, **change)


def test_k_mag_computed_once(thermal_bragg_100um, monkeypatch):
    """|k0| has np.linalg.norm's bits and is computed on first use only."""
    g = dataclasses.replace(thermal_bragg_100um, thickness_A=3e5)
    expected = float(np.linalg.norm(np.array(g.k0)))
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    for _ in range(3):
        assert g.k_mag == expected
        g.kinematics(0.0, 0.0)
        assert g.wavelength_A == 2.0 * np.pi / expected
    assert len(calls) == 1


def test_geometry_kind_asymmetry_signs(quartz):
    """Bragg: diffracted beam exits the entry face (b_asym < 0); Laue: both
    beams move inward (b_asym > 0).  Grazing backscattering Laue is the
    documented exception where the nominal beam runs in the surface."""
    for lam in (1.2, 2.0, 4.0):
        assert dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 1e6).b_asym < 0
        assert dp.make_geometry(quartz, (1, 1, 0), lam, dp.LAUE, 1e6).b_asym > 0
    lamB = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    assert dp.make_geometry(quartz, (1, 1, 0), lamB, dp.BRAGG, 1e6).b_asym < 0


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
def test_frame_switches_at_sin_bragg_099(quartz, kind):
    """Above sin(theta_B) = 0.99 the nominal beam lies on the
    backscattering axis (H along -x); up to it, on the kinematic Bragg
    condition, H = |H| (-sin, cos, 0)."""
    d = quartz.d_spacing((1, 1, 0))
    h_mag = 2 * np.pi / d
    above = dp.make_geometry(quartz, (1, 1, 0), 2 * d * (0.99 + 1e-6), kind, 1e6)
    assert above.H == (-h_mag, 0.0, 0.0)
    assert above.n == ((1.0, 0.0, 0.0) if kind == dp.BRAGG else (0.0, -1.0, 0.0))
    below = dp.make_geometry(quartz, (1, 1, 0), 2 * d * (0.99 - 1e-6), kind, 1e6)
    s = h_mag / (2 * below.k_mag)
    assert s == pytest.approx(0.99 - 1e-6, rel=1e-12)
    c = np.sqrt(1 - s * s)
    assert np.allclose(below.H, h_mag * np.array([-s, c, 0.0]),
                       rtol=1e-14, atol=0)
    expected_n = (s, -c, 0.0) if kind == dp.BRAGG else (c, s, 0.0)
    assert np.allclose(below.n, expected_n, rtol=1e-14, atol=0)


def test_darwin_width_thermal(quartz):
    g = dp.make_geometry(quartz, (1, 1, 0), 1.8, dp.BRAGG, 1e6)
    w = dp.darwin_fwhm_rad(quartz, g)
    asec = w / (np.pi / 180.0 / 3600.0)
    assert 0.5 < asec < 2.0


def test_pendelloesung_formula_matches_engine(quartz):
    scal = quartz.without_schwinger()
    g = dp.make_geometry(scal, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    res = channel_diagnostics(g, scal, 0.0, 0.0)
    y1, y2 = res["y"][0]
    lam_engine = 2 * np.pi * g.cos_gamma / (
        g.k_mag * abs(y1 - y2) / (2 * res["energy_meV"]))
    sites = [(s.frac, s.b_fm, s.Z, s.form_factor) for s in scal.sites]
    vH = brute_force_potential(sites, scal.lattice_matrix, (1, 1, 0),
                               g.k0, scal.cell_volume_A3, schwinger=False)[0, 0]
    lam = pendelloesung_length(g.k_mag, g.cos_gamma, vH)
    assert lam_engine == pytest.approx(lam, rel=1e-10)


# ---------------------------------------------------------------------------
# per-reflection cache
# ---------------------------------------------------------------------------

def counting_structure_sums(monkeypatch):
    """Route dispersion's structure_sums through a counter; returns the
    list that gains one entry per call."""
    calls = []
    real = dp.structure_sums

    def counted(crystal, H, *h_mag):
        calls.append(crystal)
        return real(crystal, H, *h_mag)

    monkeypatch.setattr(dp, "structure_sums", counted)
    return calls


def test_reflection_built_once_per_crystal_and_hkl(quartz, monkeypatch):
    # a crystal value no other test uses, so its first call must build
    crystal = dataclasses.replace(quartz, material_id="cache-once")
    g = dp.make_geometry(crystal, (1, 1, 0), 2.0, dp.BRAGG, 1e6)
    calls = counting_structure_sums(monkeypatch)
    for th in np.linspace(-2e-5, 2e-5, 50):
        one_point(crystal, g, th)
    assert len(calls) == 1


def test_equal_crystal_parsed_again_hits_cache(monkeypatch):
    first, second = cr.reference_quartz(), cr.reference_quartz()
    assert first is not second and first == second
    g = dp.make_geometry(first, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    one_point(first, g, 1e-6)
    empty_slot()
    calls = counting_structure_sums(monkeypatch)
    one_point(second, g, 1e-6)
    assert calls == []


def test_without_schwinger_gets_its_own_reflection(quartz):
    g = dp.make_geometry(quartz, (1, 1, 0), 1.8, dp.BRAGG, 1e6)
    scal = quartz.without_schwinger()
    dp._build_reflection.cache_clear()
    width_cold = dp.darwin_fwhm_rad(quartz, g)

    # spin up, off the scattering plane: the spin-orbit term flips it
    up = np.array([1.0, 0.0])
    full = dp.exit_amplitude_maps(g, quartz, up, 2e-6, 1e-3)  # fills the entry
    bare = dp.exit_amplitude_maps(g, scal, up, 2e-6, 1e-3)
    assert dp._reflection(g, quartz).B != 0
    assert dp._reflection(g, scal).B == 0
    assert dp._reflection(g, scal).A == dp._reflection(g, quartz).A
    assert np.all(bare["psi0"][..., 1] == 0) and np.all(bare["psiH"][..., 1] == 0)
    assert np.abs(full["psiH"][..., 1]).max() > 0
    assert dp.darwin_fwhm_rad(quartz, g) == width_cold


def test_hand_built_geometry_keyed_on_H(quartz):
    """Without hkl the geometry's H is the crystal-frame vector: the record
    holds exactly the lattice sums at that H, and an integer-valued H does
    not share an entry with the equal Miller indices."""
    H = cr.reciprocal_vector(quartz, (1, 1, 0))
    hand = dp.DiffractionGeometry(k0=(3.0, 0.0, 0.0), H=tuple(H),
                                  n=(1.0, 0.0, 0.0), kind=dp.LAUE,
                                  thickness_A=1e6)
    A, B, h_mag = cr.structure_sums(quartz, H)
    refl = dp._reflection(hand, quartz)
    assert (refl.A, refl.B, refl.h_mag) == (A, B, h_mag)
    assert refl.v0 == cr.mean_potential_meV(quartz)

    integer_H = dataclasses.replace(hand, H=(1.0, 1.0, 0.0))
    miller = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    assert dp._reflection(integer_H, quartz).A == \
        cr.structure_sums(quartz, np.array([1.0, 1.0, 0.0]))[0]
    assert dp._reflection(miller, quartz).H == tuple(H)

    res = with_diagnostics(hand, quartz, 0.05, -0.02)
    dp._build_reflection.cache_clear()
    empty_slot()
    cold = with_diagnostics(hand, quartz, 0.05, -0.02)
    for key in ("psi0", "psiH", "R", "T", "y", "X"):
        assert np.array_equal(res[key], cold[key])


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
def test_cached_results_equal_uncached(quartz, u0_along_beam, monkeypatch,
                                       kind):
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    th = np.linspace(-3e-5, 3e-5, 7)[:, None]
    rh = np.linspace(-1e-3, 1e-3, 5)[None, :]
    dp.exit_amplitude_maps(g, quartz, u0_along_beam, th, rh)
    cached = with_diagnostics(g, quartz, th, rh, u0_along_beam)
    cached_ens = dp.exit_coherence_maps(g, quartz, u0_along_beam, th, rh)
    cached_scale = dp.scalar_reflection_scale(quartz, g)
    monkeypatch.setattr(dp, "_build_reflection",
                        dp._build_reflection.__wrapped__)
    uncached = with_diagnostics(g, quartz, th, rh, u0_along_beam)
    uncached_ens = dp.exit_coherence_maps(g, quartz, u0_along_beam, th, rh)
    for key in ("psi0", "psiH", "R", "T", "t", "r", "y", "X", "v0"):
        assert np.array_equal(cached[key], uncached[key])
    for key in ("rho0", "rhoH", "R", "T"):
        assert np.array_equal(cached_ens[key], uncached_ens[key])
    assert dp.scalar_reflection_scale(quartz, g) == cached_scale


# ---------------------------------------------------------------------------
# the one-point channel slot
# ---------------------------------------------------------------------------

CACHE_THETA_SHAPES = pytest.mark.parametrize("shape", [(), (1,), (1, 1)],
                                             ids=["0d", "1", "1x1"])


def engine_calls(crystal, u0):
    """(name, call(geom, theta, rho)) of both public engines."""
    return [("amplitudes", lambda g, t, r: dp.exit_amplitude_maps(
                 g, crystal, u0, t, r)),
            ("coherences", lambda g, t, r: dp.exit_coherence_maps(
                 g, crystal, u0, t, r))]


def assert_same_bits(a, b):
    assert a.keys() == b.keys()
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype,
                                                    y.tobytes()), key


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
@CACHE_THETA_SHAPES
def test_channel_cache_hit_equals_miss_and_grid_point(quartz, u0_along_beam,
                                                      kind, shape):
    """A one-point call that hits the channel slot gives the bytes of the
    miss that marked its key, of the miss that stored it, of a miss at a
    new thickness after the slot is emptied, and of that point of a
    two-point grid, for every key of the amplitude engine's results and
    of the channel_diagnostics; also after the thickness changes between
    the call that stored the entry and the hit.  The coherence engine
    gives those bytes on every call and leaves the slot as it is.
    theta = +0.0 and -0.0 are two keys."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    thinner = dataclasses.replace(g, thickness_A=7.5e5)
    rh = np.zeros(shape)
    calls = engine_calls(quartz, u0_along_beam) + [
        ("diagnostics", lambda g, t, r: channel_diagnostics(g, quartz, t, r))]
    for theta in (1.5e-6, 0.0, -0.0):
        th = np.full(shape, theta)
        for name, call in calls:
            cached = name != "coherences"
            empty_slot()
            marked = call(g, th, rh)
            assert (dp._CHANNEL_SLOT[0] is not None) == cached, name
            assert dp._CHANNEL_SLOT[1] is None, name
            stored = call(g, th, rh)
            entry = dp._CHANNEL_SLOT[1]
            assert isinstance(entry, dict) == cached, name
            hit = call(g, th, rh)
            for res in (stored, hit):
                assert_same_bits(res, marked)
            after_thickness = call(thinner, th, rh)   # a hit at a new D
            assert dp._CHANNEL_SLOT[1] is entry, name
            empty_slot()
            assert_same_bits(after_thickness, call(thinner, th, rh))
            line = call(g, np.array([theta, 2e-6]), 0.0)
            assert_same_bits(marked, {key: v[0].reshape(shape + v.shape[1:])
                                      if isinstance(v, np.ndarray) else v
                                      for key, v in line.items()})
    empty_slot()
    for th in (np.zeros(shape),) * 2 + (np.full(shape, -0.0),):
        dp.exit_amplitude_maps(g, quartz, u0_along_beam, th, rh)
    assert dp._CHANNEL_SLOT[1] is None   # -0.0 marked, not read


def counting(monkeypatch, *names):
    """A dict that counts the calls of the named dispersion functions."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, real=getattr(dp, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(dp, name, counted)
    return counts


def test_thickness_sweep_solves_twice(quartz, monkeypatch):
    """A key is stored on its second miss: a 50-thickness sweep at one
    point solves its channel problem twice, and a point called once keeps
    only a mark, no arrays."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    counts = counting(monkeypatch, "_channels")
    empty_slot()
    for D in np.linspace(1e5, 2e6, 50):
        one_point(quartz, dataclasses.replace(g, thickness_A=D), 0.0)
    assert counts["_channels"] == 2
    one_point(quartz, g, 1e-6)
    assert dp._CHANNEL_SLOT[1] is None


def test_sweep_fresh_points_sweep_solves_2_20_2(quartz, monkeypatch):
    """A 50-thickness sweep at one point, then 20 points called once each,
    then the sweep again solve 2 + 20 + 2 times: the fresh points only
    mark the slot in turn, and the second sweep stores its point again."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e6)
    counts = counting(monkeypatch, "_channels")
    sweep = [dataclasses.replace(g, thickness_A=D)
             for D in np.linspace(1e5, 2e6, 50)]
    empty_slot()
    solved = []
    for points in ([(geom, 1e-6) for geom in sweep],
                   [(g, th) for th in np.linspace(2e-6, 4e-6, 20)],
                   [(geom, 1e-6) for geom in sweep]):
        counts["_channels"] = 0
        for geom, th in points:
            one_point(quartz, geom, th)
        solved.append(counts["_channels"])
    assert solved == [2, 20, 2]


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
def test_thickness_sweep_hit_runs_thickness_work_only(quartz, u0_along_beam,
                                                      monkeypatch, kind):
    """A 50-thickness sweep of the amplitude engine at one point solves
    its channels, sets up their transfer factors and projects the
    incident spinor twice each (on the miss that marks the point and on
    the miss that stores it): a hit reads all three from the slot's
    entry.  The coherence engine does all three on every call."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    names = ("_channels", "_transfer_setup", "_channel_projections")
    counts = counting(monkeypatch, *names)
    for engine, call in engine_calls(quartz, u0_along_beam):
        empty_slot()
        counts.update(dict.fromkeys(names, 0))
        for D in np.linspace(1e5, 2e6, 50):
            call(dataclasses.replace(g, thickness_A=D), 1e-6, 0.0)
        calls = 2 if engine == "amplitudes" else 50
        assert counts == dict.fromkeys(names, calls), engine


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
def test_hit_with_new_spinor_projects_again(quartz, u0_along_beam, kind):
    """The entry keeps the projections of the last spinor used at its
    point: a hit with another spinor projects that one, takes the
    projections' place and gives the bytes of a miss with it, and so does
    a hit with the first spinor after it."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    other = np.array([0.6 - 0.3j, -0.2 + 0.7j])
    other /= np.linalg.norm(other)
    empty_slot()
    miss_other = dp.exit_amplitude_maps(g, quartz, other, 1e-6, 0.0)  # marks
    miss_first = one_point(quartz, g, 1e-6, u0_along_beam)           # stores
    entry = dp._CHANNEL_SLOT[1]
    (kept,) = entry["projections"]
    hit_other = dp.exit_amplitude_maps(g, quartz, other, 1e-6, 0.0)
    (now,) = entry["projections"]
    assert now[0] != kept[0]
    assert np.array_equal(now[1], dp._channel_projections(entry["u_hat"],
                                                          other))
    assert_same_bits(hit_other, miss_other)
    hit_first = one_point(quartz, g, 1e-6, u0_along_beam)
    assert entry["projections"][0][0] == kept[0]
    assert_same_bits(hit_first, miss_first)
    assert dp._CHANNEL_SLOT[1] is entry


def entry_arrays(value):
    """Every array a slot entry holds, through its dict, the setup tuple
    and the projections list."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (tuple, list)):
        return []
    return [a for v in value for a in entry_arrays(v)]


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
@CACHE_THETA_SHAPES
def test_channel_cache_never_aliased(quartz, u0_along_beam, kind, shape):
    """The slot entry's arrays, those of the transfer setup and the kept
    projections included, are read-only and no array either engine
    returns shares memory with them: a caller that overwrites every array
    it received does not change the next call's bytes."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    th, rh = np.full(shape, 1.5e-6), np.zeros(shape)
    calls = engine_calls(quartz, u0_along_beam)
    empty_slot()
    for _ in range(2):   # the second call stores the entry
        dict(calls)["amplitudes"](g, th, rh)
    cached = dp._CHANNEL_SLOT[1]
    assert len(cached["setup"]) == 6
    assert cached["projections"][0] is not None
    stored = entry_arrays(cached)
    assert not any(v.flags.writeable for v in stored)
    for _, call in calls:
        first = call(g, th, rh)
        expected = {key: np.array(v, copy=True) for key, v in first.items()}
        for res in (first, call(g, th, rh)):
            for key, v in res.items():
                if isinstance(v, np.ndarray):
                    assert not any(np.shares_memory(v, c) for c in stored), key
                    v[...] = np.nan
        assert_same_bits(call(g, th, rh), expected)
    assert dp._CHANNEL_SLOT[1] is cached


def test_channel_cache_bounded(quartz, monkeypatch):
    """The slot holds the last one-point key only: a thickness sweep that
    interleaves two points never hits, solving on every call and keeping
    a mark, no arrays."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    counts = counting(monkeypatch, "_channels")
    empty_slot()
    for D in np.linspace(1e5, 2e6, 10):
        for th in (1e-6, 2e-6):
            one_point(quartz, dataclasses.replace(g, thickness_A=D), th)
            assert dp._CHANNEL_SLOT[1] is None
    assert counts["_channels"] == 20


def test_channel_cache_thread_safe(quartz, u0_along_beam):
    """Four threads sweeping the thickness of four geometries at once, each
    taking the slot from the others, with a thread switch every
    microsecond, give the bytes of the same sweeps run one after the
    other, and the slot holds one key and its entry or mark throughout."""
    sweeps = [(dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6), theta)
              for kind in (dp.LAUE, dp.BRAGG) for theta in (0.0, 1e-6)]
    thicknesses = np.linspace(1e5, 2e6, 100)

    def sweep(geom, theta):
        out = []
        for D in thicknesses:
            out.append(dp.exit_amplitude_maps(
                dataclasses.replace(geom, thickness_A=D), quartz,
                u0_along_beam, theta, 0.0))
            key, entry = dp._CHANNEL_SLOT
            assert isinstance(key, tuple)
            assert entry is None or isinstance(entry, dict)
        return out

    empty_slot()
    sequential = [sweep(*case) for case in sweeps]
    empty_slot()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(sweeps)) as pool:
            futures = [pool.submit(sweep, *case) for case in sweeps]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for runs, expected in zip(threaded, sequential):
        for res, exp in zip(runs, expected):
            assert_same_bits(res, exp)


def test_scans_leave_channel_cache_alone(quartz, u0_along_beam, monkeypatch):
    """grid_scan and coherence_scan neither read nor replace the slot, on
    row tiles and on theta <-> rho fold bands of two or more points, and
    nor does a 1 x 1 coherence_scan; a 1 x 1 grid_scan is a one-point
    call of the amplitude engine and marks its point."""
    laue = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    back = dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 1e6)
    monkeypatch.setattr(wf, "_cpus", lambda: 2)
    monkeypatch.setattr(wf, "_TILE_POINTS", 4)
    channels, sizes = dp._channels, []

    def counted(geom, crystal, theta, rho):
        sizes.append(np.broadcast(theta, rho).size)
        return channels(geom, crystal, theta, rho)

    monkeypatch.setattr(dp, "_channels", counted)
    empty_slot()
    for _ in range(2):   # the second call stores the entry
        one_point(quartz, laue, 3e-6, u0_along_beam)
    before = dp._CHANNEL_SLOT
    sizes.clear()
    for scan in (wf.grid_scan, wf.coherence_scan):
        # row tiles of 2 x 2 and 1 x 2 points
        scan(laue, quartz, u0_along_beam, np.linspace(-2e-5, 2e-5, 3),
             np.array([0.0, 1e-3]))
        # two fold bands of three representatives each
        ax = np.deg2rad(0.45) * np.linspace(-1.0, 1.0, 3)
        scan(back, quartz, u0_along_beam, ax, ax)
    assert sorted(set(sizes)) == [2, 3, 4]
    wf.coherence_scan(laue, quartz, u0_along_beam, [1e-6], [0.0])
    assert dp._CHANNEL_SLOT is before
    wf.grid_scan(laue, quartz, u0_along_beam, [1e-6], [0.0])
    assert dp._CHANNEL_SLOT[0] != before[0]
    assert dp._CHANNEL_SLOT[1] is None


# ---------------------------------------------------------------------------
# thickness ensembles against explicit averages of pure exit spinors
# ---------------------------------------------------------------------------

def weighted_outer_products(crystal, geom, u0, th, rh, thicknesses, weights):
    """sum_k w_k psi psi^dag of each exit beam (psi0, psiH) at thicknesses
    D_k."""
    sums = {"psi0": 0.0, "psiH": 0.0}
    for D, w in zip(thicknesses, weights):
        res = dp.exit_amplitude_maps(dataclasses.replace(geom, thickness_A=D),
                                     crystal, u0, th, rh)
        for beam, total in sums.items():
            psi = res[beam]
            sums[beam] = total + w * (psi[..., :, None]
                                      * np.conj(psi[..., None, :]))
    return sums["psi0"], sums["psiH"]


ENSEMBLE_TH = np.linspace(-3e-5, 3e-5, 7)[:, None]
ENSEMBLE_RH = np.linspace(-1e-3, 1e-3, 5)[None, :]


def test_laue_ensemble_equals_gauss_hermite_average(quartz, u0_along_beam):
    """The Laue closed form is the average over D' ~ N(D, span_A^2): a
    64-node Gauss-Hermite quadrature of the pure outer products gives it to
    1e-12 on a 100 um, 2 A crystal, where the 1 um spread moves the
    coherences by about 4e-4 from the pure ones."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    span = 1e4
    ens = dp.exit_coherence_maps(g, quartz, u0_along_beam, ENSEMBLE_TH,
                                 ENSEMBLE_RH, span_A=span)
    x, w = np.polynomial.hermite_e.hermegauss(64)
    rho0, rhoH = weighted_outer_products(
        quartz, g, u0_along_beam, ENSEMBLE_TH, ENSEMBLE_RH,
        g.thickness_A + span * x, w / np.sqrt(2.0 * np.pi))
    assert np.max(np.abs(ens["rho0"] - rho0)) <= 1e-12
    assert np.max(np.abs(ens["rhoH"] - rhoH)) <= 1e-12
    pure0, _ = weighted_outer_products(quartz, g, u0_along_beam, ENSEMBLE_TH,
                                       ENSEMBLE_RH, [g.thickness_A], [1.0])
    assert np.max(np.abs(ens["rho0"] - pure0)) > 1e-5


def test_ensemble_nodes_are_gauss_hermite():
    """The Bragg ensemble's written-out nodes and weights are the positive
    half of numpy's probabilists' Gauss-Hermite rule, normalised to N(0, 1),
    and the pairs' weights sum to 1."""
    x, w = np.polynomial.hermite_e.hermegauss(dp._ENSEMBLE_NODES)
    half = dp._ENSEMBLE_NODES // 2
    assert dp._NODE_X.size == half
    np.testing.assert_allclose(dp._NODE_X, x[half:], rtol=1e-15)
    np.testing.assert_allclose(dp._NODE_ROOT_W ** 2,
                               w[half:] / np.sqrt(2.0 * np.pi), rtol=1e-15)
    assert abs(2.0 * np.sum(dp._NODE_ROOT_W ** 2) - 1.0) <= 1e-15


def rule_mean(f):
    """<f(x)> by the 3-node rule: x = 0 once, the other node as a +-x
    pair."""
    (w0, w1), x1 = dp._SHORT_NODE_ROOT_W ** 2, dp._SHORT_NODE_X[1]
    return w0 * f(0.0) + w1 * (f(x1) + f(-x1))


def test_short_rule_nodes_are_gauss_hermite():
    """The 3-node rule's nodes and weights are the non-negative half of
    numpy's probabilists' Gauss-Hermite rule of 3 nodes, normalised to
    N(0, 1), and its weights sum to 1."""
    x, w = np.polynomial.hermite_e.hermegauss(3)
    np.testing.assert_allclose(dp._SHORT_NODE_X, x[1:], rtol=1e-15,
                               atol=1e-15)
    np.testing.assert_allclose(dp._SHORT_NODE_ROOT_W ** 2,
                               w[1:] / np.sqrt(2.0 * np.pi), rtol=1e-15)
    assert abs(rule_mean(lambda x: 1.0) - 1.0) <= 1e-15


def test_short_rule_error_bound():
    """The constants of the 3-node rule's error bound (see _SHORT_NODE_X):
    its error on <e^{i b x}> = e^{-b^2/2} is b^6/120 to leading order, and
    the Eulerian polynomial gives sum_j (j+1)^6 rho^j."""
    for b in (0.05, 0.1):
        error = abs(rule_mean(lambda x: np.cos(b * x)) - np.exp(-0.5 * b * b))
        assert error == pytest.approx(b ** 6 / 120.0, rel=0.05)
    for rho in (0.0, 0.3, 0.9):
        series = sum((j + 1.0) ** 6 * rho ** j for j in range(2000))
        closed = (np.polyval(dp._SHORT_EULERIAN[::-1], rho)
                  / (1.0 - rho) ** 7)
        assert closed == pytest.approx(series, rel=1e-12)


BACK_TH = 3e-3 * np.linspace(-1.0, 1.0, 7)[:, None]
BACK_RH = 3e-3 * np.linspace(-1.0, 1.0, 5)[None, :]


@pytest.mark.parametrize("case, bound", [
    pytest.param("100um", 1e-13, id="100um"),
    pytest.param("10mm", 1e-11, id="10mm"),
    pytest.param("35mm-back", 1e-11, id="35mm-back")])
def test_bragg_ensemble_equals_mean_of_outer_products(quartz, u0_along_beam,
                                                      case, bound):
    """The Bragg ensemble is the average of the pure outer products over
    D' ~ N(D, span_A^2), as the Laue one is: a 128-node Gauss-Hermite
    quadrature of them gives it at 100 um and 10 mm (2 A) and at 35 mm
    (backscattering, +-3 mrad).  The two sides differ by the rounding of
    phases g D of up to 2e4 rad at 10 mm, formed once per node by the
    reference and once per pair by the ensemble."""
    if case == "35mm-back":
        lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
        g = dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 3.5e8)
        th, rh = BACK_TH, BACK_RH
    else:
        g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG,
                             {"100um": 1e6, "10mm": 1e8}[case])
        th, rh = ENSEMBLE_TH, ENSEMBLE_RH
    span = 1e-5 * g.thickness_A   # the default
    ens = dp.exit_coherence_maps(g, quartz, u0_along_beam, th, rh)
    x, w = np.polynomial.hermite_e.hermegauss(128)
    rho0, rhoH = weighted_outer_products(quartz, g, u0_along_beam, th, rh,
                                         g.thickness_A + span * x,
                                         w / np.sqrt(2.0 * np.pi))
    assert np.max(np.abs(ens["rho0"] - rho0)) <= bound
    assert np.max(np.abs(ens["rhoH"] - rhoH)) <= bound
    # one point given as scalars
    point = dp.exit_coherence_maps(g, quartz, u0_along_beam, th[3, 0],
                                   rh[0, 2])
    assert np.max(np.abs(point["rho0"] - rho0[3, 2])) <= bound
    assert np.max(np.abs(point["rhoH"] - rhoH[3, 2])) <= bound


def spy_rules(monkeypatch):
    """A list that gathers the node count of every Bragg node sum."""
    rules, sums = [], dp._bragg_node_sums

    def spy(*args):
        node_x = args[-2]
        rules.append(int(2 * node_x.size - (node_x[0] == 0.0)))
        return sums(*args)

    monkeypatch.setattr(dp, "_bragg_node_sums", spy)
    return rules


@pytest.mark.parametrize("thickness, used", [
    pytest.param(2e6, [3], id="200um"),
    pytest.param(1e8, [3, 8], id="10mm")])
def test_bragg_short_rule_agrees_with_full_rule(quartz, u0_along_beam,
                                                monkeypatch, thickness, used):
    """The points that take the 3-node rule get the coherences of the
    8-node rule to round-off, within 2e-15 of the point's exit flux (4.4e-16
    and 3.4e-16 measured) on a 61^2 backscattering grid over +-0.45 deg.
    At 200 um every point takes the 3-node rule; at 10 mm the call mixes
    both rules."""
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    g = dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, thickness)
    ax = np.deg2rad(0.45) * np.linspace(-1.0, 1.0, 61)
    rules = spy_rules(monkeypatch)
    tiered = dp.exit_coherence_maps(g, quartz, u0_along_beam, ax[:, None],
                                    ax[None, :])
    assert rules == used
    monkeypatch.setattr(dp, "_SHORT_TOL", -1.0)
    full = dp.exit_coherence_maps(g, quartz, u0_along_beam, ax[:, None],
                                  ax[None, :])
    assert rules == used + [8]
    flux = sum(np.real(np.trace(full[key], axis1=-2, axis2=-1))
               for key in ("rho0", "rhoH"))
    for key in ("rho0", "rhoH"):
        assert np.all(np.abs(tiered[key] - full[key])
                      <= 2e-15 * flux[..., None, None])


def test_bragg_mixed_rules_equal_one_point_calls(quartz, u0_along_beam,
                                                 monkeypatch):
    """A call whose points take different rules gathers the points of each
    (a lone one twice, as _channels does) and equals one-point calls bit
    for bit, whichever rule has the lone point.  On the 10 mm
    backscattering line rho = 0, theta at 25 points over +-0.45 deg, the
    3-node rule takes the eighth point from each end and the 8-node rule
    all others."""
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    g = dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 1e8)
    ax = np.deg2rad(0.45) * np.linspace(-1.0, 1.0, 25)
    rules = spy_rules(monkeypatch)
    for pick, used in (([0, 7, 12], [8, 3, 8]), ([7, 12, 17], [3, 8, 3])):
        th = ax[pick]
        rules.clear()
        res = dp.exit_coherence_maps(g, quartz, u0_along_beam, th, 0.0)
        assert sorted(rules) == [3, 8]
        for k, t in enumerate(th):
            rules.clear()
            one = dp.exit_coherence_maps(g, quartz, u0_along_beam, t, 0.0)
            assert rules == [used[k]]
            for key in ("rho0", "rhoH", "R", "T"):
                assert res[key][k].tobytes() == one[key].tobytes(), key


def assert_exactly_hermitian(res):
    """Ensemble coherences equal their conjugate transpose bit for bit,
    with a real diagonal.  The diagonal is non-negative up to round-off: a
    spin component that the channels cancel (spin down for a spin-up beam)
    comes out as a difference of nearly equal terms."""
    for m in (res["rho0"], res["rhoH"]):
        assert np.array_equal(m, np.conj(np.swapaxes(m, -1, -2)))
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        assert np.all(diag.imag == 0.0)
        trace = np.sum(diag.real, axis=-1, keepdims=True)
        assert np.all(diag.real >= -1e-15 * trace)


HERMITIAN_U0 = pytest.mark.parametrize(
    "u0", [(1.0, 1.0), (1.0, 0.0), (1.0, 1.0j)],
    ids=["along-beam", "spin-up", "circular"])


@HERMITIAN_U0
def test_bragg_ensemble_exactly_hermitian(quartz, u0):
    """Bragg ensemble coherences are exactly Hermitian (see
    assert_exactly_hermitian)."""
    u0 = np.asarray(u0, complex) / np.linalg.norm(u0)
    half = np.deg2rad(0.45)
    ax = np.linspace(-half, half, 61)
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    for g in (dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e8),
              dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 2e6)):
        res = dp.exit_coherence_maps(g, quartz, u0, 1e-4 * ax[:, None],
                                     ax[None, :])
        assert_exactly_hermitian(res)


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
def test_zero_span_gives_pure_outer_products(quartz, u0_along_beam, kind):
    """span_A = 0 puts every thickness of the ensemble at D: both geometries
    give the pure outer products psi psi^dag within 1e-15 of the trace of
    both beams' products at the point (measured 2.8e-16 Bragg, 7.3e-16
    Laue; the Bragg node weights sum to 1 up to round-off).  The scale is
    the exit flux, not each beam's own trace, since a beam may vanish: at
    a Pendelloesung zero of the Laue reflection rhoH is 1e-10 of its
    trace off."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    ens = dp.exit_coherence_maps(g, quartz, u0_along_beam, ENSEMBLE_TH,
                                 ENSEMBLE_RH, span_A=0.0)
    pure = weighted_outer_products(quartz, g, u0_along_beam, ENSEMBLE_TH,
                                   ENSEMBLE_RH, [g.thickness_A], [1.0])
    trace = sum(np.real(np.trace(ref, axis1=-2, axis2=-1)) for ref in pure)
    for rho, ref in zip((ens["rho0"], ens["rhoH"]), pure):
        assert np.all(np.abs(rho - ref) <= 1e-15 * trace[..., None, None])


@pytest.mark.parametrize("n", [2, 8192, 40000])
@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
@HERMITIAN_U0
def test_coherence_assembly_equals_full_matrices(quartz, u0, kind, n):
    """The assembly sums only the independent entries [0,0], [0,1] and
    [1,1], on 1-D point arrays, and equals the full-matrix assembly of
    every outer product bit for bit, sign bits included: for arrays below
    and above 256 KiB, where numpy evaluates a product with a temporary
    right operand in place (see dispersion._transfer_factors)."""
    u0 = np.asarray(u0, complex) / np.linalg.norm(u0)
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    sol = dp._solve_coherences(g, quartz, np.linspace(-3e-5, 3e-5, n),
                               np.linspace(1e-3, -1e-3, n), None)
    amp0 = dp._channel_projections(sol["u_hat"], u0)
    res = dp._assemble_coherences(sol, amp0)
    for name, full in zip(("rho0", "rhoH"),
                          assemble_coherences_full(sol, amp0)):
        assert res[name].tobytes() == full.tobytes(), name


def test_bragg_ensemble_guard(quartz, u0_along_beam, monkeypatch, caplog):
    """The reach of the Bragg rule, the largest |g1| span_A, is checked
    once per call and once per scan, over all of the scan's tiles.  A
    10 mm crystal at 2 A reads 0.19 over +-5 Darwin widths and is silent;
    over +-10 mrad it reads 59 (Re(g1), the phase), and on the Darwin
    plateau with span_A = 1 mm it reads 134 (Im(g1), the decay across the
    ensemble, Re(g1) being 0 there); each such call and scan logs one
    warning."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e8)
    centre = dp.darwin_center_theta(quartz, g)
    width = dp.darwin_fwhm_rad(quartz, g)
    narrow = centre + 5.0 * width * np.linspace(-1.0, 1.0, 401)
    wide = centre + 1e-2 * np.linspace(-1.0, 1.0, 2001)
    plateau = centre + 0.3 * width * np.linspace(-1.0, 1.0, 401)
    monkeypatch.setattr(wf, "_TILE_POINTS", 64)
    for th, span, phase in ((narrow, None, 0.188), (wide, None, 58.9),
                            (plateau, 1e7, 134.0)):
        sol = dp._solve_coherences(g, quartz, th, 0.0, span)
        assert sol["ensemble_phase"] == pytest.approx(phase, rel=0.01)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sodiff"):
            dp.exit_coherence_maps(g, quartz, u0_along_beam, th, 0.0,
                                   span_A=span)
            wf.coherence_scan(g, quartz, u0_along_beam, th, np.zeros(1),
                              span_A=span)
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "sodiff.dispersion"]
        if phase < dp._ENSEMBLE_PHASE_LIMIT:
            assert logged == []
        else:
            assert [m.split(":")[0] for m in logged] == [
                "exit_coherence_maps", "coherence_scan"]
            assert all(f"reaches {sol['ensemble_phase']:.3g}," in m
                       for m in logged)


def laue_back_beats(quartz, thickness):
    """The Laue backscattering geometry of fig5 at the given thickness, a
    48^2 grid over its +-0.3 deg window, and the smallest |Re(dk)| span_A
    of the cross-branch beats of the three channel entries summed."""
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.LAUE)
    g = dp.make_geometry(quartz, (1, 1, 0), lam, dp.LAUE, thickness)
    ax = np.deg2rad(np.linspace(-0.3, 0.3, 48))
    ch = dp._channels(g, quartz, ax[:, None], ax[None, :])
    ig = dp._transfer_setup(dp.LAUE, ch)[:2]   # [branch][channel]
    x = min(np.min(np.abs(ig[i][a].imag - ig[1 - i][b].imag))
            for a, b in ((0, 0), (1, 1), (0, 1)) for i in range(2))
    return g, ax, x * 1e-5 * thickness


LAUE_BACK = pytest.mark.parametrize("thickness", [
    pytest.param(3.5e8, id="35mm"), pytest.param(2e7, id="2mm")])


@LAUE_BACK
@HERMITIAN_U0
def test_laue_ensemble_exactly_hermitian(quartz, u0, thickness):
    """Laue ensemble coherences are exactly Hermitian too (see
    assert_exactly_hermitian), both where every cross-branch beat is
    dropped (35 mm) and where those beats are summed (2 mm)."""
    u0 = np.asarray(u0, complex) / np.linalg.norm(u0)
    g, ax, _ = laue_back_beats(quartz, thickness)
    res = dp.exit_coherence_maps(g, quartz, u0, ax[:, None], ax[None, :])
    assert_exactly_hermitian(res)


@LAUE_BACK
def test_laue_dropped_beats_negligible(quartz, thickness):
    """Dropping the Laue cross-branch beats whose window factor is below
    exp(-_NEGLIGIBLE_BEAT^2/2) = 5.4e-32, and summing C[0,1] alone, leaves
    the coherences within round-off (1e-15) of the sum of all 16 beats.  At
    35 mm every such beat of the grid is dropped (|Re(dk)| span_A >= 20); at
    2 mm their windows reach 0.5 (|Re(dk)| span_A down to 1.16), so
    dropping one there would show."""
    g, ax, x_min = laue_back_beats(quartz, thickness)
    assert (x_min > dp._NEGLIGIBLE_BEAT) == (thickness == 3.5e8)
    assert x_min > 20.0 or x_min < 1.2
    u0 = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    res = dp.exit_coherence_maps(g, quartz, u0, ax[:, None], ax[None, :])
    every = laue_coherence_all_beats(g, quartz, u0, ax[:, None], ax[None, :],
                                     1e-5 * thickness)
    for key, ref in zip(("rho0", "rhoH"), every):
        assert np.max(np.abs(res[key] - ref)) <= 1e-15


@pytest.mark.parametrize("kind", [dp.BRAGG, dp.LAUE])
@pytest.mark.parametrize("span", [np.nan, np.inf, -1.0])
def test_bad_span_rejected(quartz, u0_along_beam, kind, span):
    """A thickness spread must be finite and non-negative, for the engine
    and the scan alike: a NaN spread would otherwise make every point NaN."""
    g = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, 1e6)
    with pytest.raises(dp.DispersionError, match="span_A"):
        dp.exit_coherence_maps(g, quartz, u0_along_beam, ENSEMBLE_TH,
                               ENSEMBLE_RH, span_A=span)
    with pytest.raises(dp.DispersionError, match="span_A"):
        wf.coherence_scan(g, quartz, u0_along_beam, ENSEMBLE_TH[:, 0],
                          ENSEMBLE_RH[0], span_A=span)
