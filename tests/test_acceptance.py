"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are
fixed here, not calibrated anywhere else.
"""

import dataclasses
import time

import numpy as np
import pytest

from oracles import (brute_force_potential, darwin_reflectivity,
                     pendelloesung_length, secular_residuals)
from sodiff import crystal as cr
from sodiff import dispersion as dp
from sodiff import instrument as ins
from sodiff import oam
from sodiff import wavefield as wf
from sodiff.constants import ARCSEC_TO_RAD, DEG_TO_RAD


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS - {text}")


@pytest.fixture(scope="module")
def laue_raw_grid(quartz, backscatter_laue_35mm, u0_along_beam):
    half = np.deg2rad(0.3)
    ax = np.linspace(-half, half, 384)
    return wf.grid_scan(backscatter_laue_35mm, quartz, u0_along_beam, ax, ax)


# ---------------------------------------------------------------------------
# 1. Backscattering Bragg vortex
# ---------------------------------------------------------------------------

def test_criterion_1_backscattering_vortex(quartz, u0_along_beam):
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    geom = dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 2e6)
    half = np.deg2rad(0.45)
    ax = np.linspace(-half, half, 256)
    t0 = time.perf_counter()
    grid = wf.grid_scan(geom, quartz, u0_along_beam, ax, ax)
    windings = {}
    for beam in (wf.REFLECTED, wf.TRANSMITTED):
        for comp in ("flipped", "non-flipped"):
            pm = wf.phase_map(grid, comp, beam, frame="beam")
            windings[beam, comp] = [
                wf.winding_number(pm["phase"],
                                  wf.rectangle_loop(pm["phase"].shape, m),
                                  pm["mask"])
                for m in (20, 60, 100)]
    elapsed = time.perf_counter() - t0

    w_r = windings[wf.REFLECTED, "flipped"]
    w_t = windings[wf.TRANSMITTED, "flipped"]
    assert len(set(w_r)) == 1 and abs(w_r[0]) == 1
    assert len(set(w_t)) == 1 and abs(w_t[0]) == 1
    assert w_r[0] == -w_t[0]
    assert windings[wf.REFLECTED, "non-flipped"] == [0, 0, 0]
    assert windings[wf.TRANSMITTED, "non-flipped"] == [0, 0, 0]
    assert elapsed < 60.0
    _report(1, f"flipped windings R={w_r[0]:+d} T={w_t[0]:+d} on 3 nested "
               f"loops, non-flipped 0; {elapsed:.1f}s at 256^2")


# ---------------------------------------------------------------------------
# 2. Bragg spin-flip efficiency
# ---------------------------------------------------------------------------

def test_criterion_2_flip_efficiency(quartz, u0_along_beam):
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    geom = dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 1e8)  # 10 mm
    half = np.deg2rad(0.45)
    ax = np.linspace(-half, half, 1024)
    grid = wf.grid_scan(geom, quartz, u0_along_beam, ax, ax)
    flip = np.abs(grid.spin_component(wf.REFLECTED, True)) ** 2
    nonf = np.abs(grid.spin_component(wf.REFLECTED, False)) ** 2
    ratio_back = float(flip.sum() / nonf.sum())
    assert 1e-7 <= ratio_back <= 1e-5

    geom2 = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e8)
    center = dp.darwin_center_theta(quartz, geom2)
    width = dp.darwin_fwhm_rad(quartz, geom2)
    th = center + np.linspace(-60 * width, 60 * width, 240001)
    grid2 = wf.grid_scan(geom2, quartz, u0_along_beam, th, np.zeros(1))
    flip2 = np.abs(grid2.spin_component(wf.REFLECTED, True)) ** 2
    nonf2 = np.abs(grid2.spin_component(wf.REFLECTED, False)) ** 2
    ratio_2A = float(flip2.sum() / nonf2.sum())
    assert 0.03 <= ratio_2A <= 0.12
    _report(2, f"integrated flip/non-flip: backscattering 10 mm "
               f"{ratio_back:.2e} in [1e-7, 1e-5]; 2 A {ratio_2A:.3f} "
               f"in [0.03, 0.12]")


# ---------------------------------------------------------------------------
# 3. Laue pi/2 pulse
# ---------------------------------------------------------------------------

def test_criterion_3_laue_pi_half_pulse(quartz, backscatter_laue_35mm,
                                        laue_raw_grid):
    grid = laue_raw_grid
    vh = dp.scalar_reflection_scale(quartz, backscatter_laue_35mm)
    alpha0 = backscatter_laue_35mm.kinematics(grid.theta[:, None],
                                              grid.rho[None, :])[3]
    active = (np.abs(alpha0) < 2 * vh) & grid.physical
    flip = np.abs(grid.spin_component(wf.TRANSMITTED, True)) ** 2
    nonf = np.abs(grid.spin_component(wf.TRANSMITTED, False)) ** 2
    frac = float(flip[active].sum() / (flip[active] + nonf[active]).sum())
    assert 0.4 <= frac <= 0.6
    _report(3, f"transmitted spin-flipped fraction over the reachable "
               f"diffraction-active region: {frac:.3f} (target 0.5 +- 0.1)")


# ---------------------------------------------------------------------------
# 4. Interference OAM
# ---------------------------------------------------------------------------

def test_criterion_4_interference_oam(laue_coherence_grid):
    dists = {}
    for beam in (wf.TRANSMITTED, wf.REFLECTED):
        field = oam.field_from_grid(laue_coherence_grid, beam,
                                    "interference", n_phi=2048, n_r=128,
                                    physical_only=True)
        dists[beam] = oam.oam_distribution(field, L=900)
    for beam, d in dists.items():
        assert abs(d.mean + 1.0) <= 0.1, beam
    p_t = float(dists[wf.TRANSMITTED].p[dists[wf.TRANSMITTED].ells == -1][0])
    p_r = float(dists[wf.REFLECTED].p[dists[wf.REFLECTED].ells == -1][0])
    assert p_t > p_r
    _report(4, f"interference mean l: transmitted "
               f"{dists[wf.TRANSMITTED].mean:+.3f}, reflected "
               f"{dists[wf.REFLECTED].mean:+.3f}; p[-1] {p_t:.3f} > {p_r:.3f}")


# ---------------------------------------------------------------------------
# 5. Spin-flipped OAM shift
# ---------------------------------------------------------------------------

def test_criterion_5_flipped_oam_shift(laue_coherence_grid):
    flip = oam.field_from_grid(laue_coherence_grid, wf.TRANSMITTED,
                               "flipped", n_phi=2048, n_r=128,
                               physical_only=True)
    nonf = oam.field_from_grid(laue_coherence_grid, wf.TRANSMITTED,
                               "non-flipped", n_phi=2048, n_r=128,
                               physical_only=True)
    d_f = oam.oam_distribution(flip, L=900)
    d_n = oam.oam_distribution(nonf, L=900)
    shift = d_f.mean - d_n.mean
    assert abs(shift + 1.0) <= 0.1
    worst = 0.0
    for m in (1, 2, 3, 4, 5):
        lo = float(d_f.p[d_f.ells == -1 - m][0])
        hi = float(d_f.p[d_f.ells == -1 + m][0])
        rel = abs(lo - hi) / max(lo, hi, 1e-300)
        worst = max(worst, rel)
    assert worst <= 0.05
    _report(5, f"mean-l shift flipped vs non-flipped: {shift:+.3f} "
               f"(target -1 +- 0.1); worst sideband pair asymmetry "
               f"{worst:.2%} <= 5%")


# ---------------------------------------------------------------------------
# 6. Thermal Bragg polarization and OAM parity
# ---------------------------------------------------------------------------

def test_criterion_6_thermal_polarization_and_parity(quartz, u0_along_beam):
    geom = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e6)
    center = dp.darwin_center_theta(quartz, geom)
    width = dp.darwin_fwhm_rad(quartz, geom)
    th = center + np.linspace(-5 * width, 5 * width, 1601)
    grid = wf.grid_scan(geom, quartz, u0_along_beam, th, np.zeros(1))
    curve = wf.polarization_curve(grid, wf.TRANSMITTED, "theta")
    resid = float(np.max(np.abs(curve.Py + curve.Py[::-1]))
                  / np.max(np.abs(curve.Py)))
    assert resid <= 1e-3
    # reflected beam: antisymmetric lobe structure (sign flips across the
    # centre; a small symmetric pedestal from the non-centrosymmetric
    # structure-factor phase is physical, see decisions ledger)
    refl = wf.polarization_curve(grid, wf.REFLECTED, "theta")
    i_peak = int(np.argmax(np.abs(refl.Py)))
    assert refl.Py[i_peak] * refl.Py[len(th) - 1 - i_peak] < 0

    geom3 = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 3e6)
    c3 = dp.darwin_center_theta(quartz, geom3)
    w3 = dp.darwin_fwhm_rad(quartz, geom3)
    th3 = c3 + np.linspace(-w3, w3, 257)
    rho3 = np.linspace(-0.5 * DEG_TO_RAD, 0.5 * DEG_TO_RAD, 257)
    grid3 = wf.grid_scan(geom3, quartz, u0_along_beam, th3, rho3)
    k = geom3.k_mag
    r_max = k * 0.4995 * DEG_TO_RAD
    worst = 0.0
    for flipped in (False, True):
        amp = grid3.spin_component(wf.REFLECTED, flipped)
        field = oam.to_polar(amp, k * (grid3.theta - c3), k * grid3.rho,
                             n_r=256, n_phi=8192, r_max=r_max, handedness=-1)
        d = oam.oam_distribution(field, L=8)
        ps = {int(l): float(p) for l, p in zip(d.ells, d.p)}
        for l in (-5, -3, -1, 1, 3, 5):
            rel = ps[l] / max(0.5 * (ps[l - 1] + ps[l + 1]), 1e-300)
            worst = max(worst, rel)
    assert worst < 0.2
    _report(6, f"transmitted P_y antisymmetry residual {resid:.1e} <= 1e-3; "
               f"300 um odd-mode suppression worst ratio {worst:.3f} < 0.2")


# ---------------------------------------------------------------------------
# 7. Rocking width
# ---------------------------------------------------------------------------

def test_criterion_7_rocking_width(quartz):
    geom = dp.make_geometry(quartz, (1, 1, 0), 1.8, dp.BRAGG, 1e7)
    fwhm = dp.darwin_fwhm_rad(quartz, geom)
    asec = fwhm / ARCSEC_TO_RAD
    assert 0.5 <= asec <= 2.0
    _report(7, f"Darwin FWHM at 1.8 A: {asec:.2f} asec (within factor 2 of 1)")


# ---------------------------------------------------------------------------
# 8. Coil model
# ---------------------------------------------------------------------------

def test_criterion_8_coil_model():
    alpha = DEG_TO_RAD
    no_guide = ins.CoilModel(tilt_rad=5 * DEG_TO_RAD)
    with_guide = ins.CoilModel(tilt_rad=5 * DEG_TO_RAD, guide_field_T=1e-3)
    s0 = abs(ins.coil_divergence_spread(no_guide, alpha))
    s1 = abs(ins.coil_divergence_spread(with_guide, alpha))
    assert abs(s0 - 5e-4) / 5e-4 <= 0.2
    assert abs(s1 - 1.5e-2) / 1.5e-2 <= 0.3
    assert ins.coil_tilt_phase(no_guide, 0.0) == 0.0
    _report(8, f"divergence phase spread: {s0:.2e} (5e-4 +- 20%), with 1 mT "
               f"guide {s1:.2e} (1.5e-2 +- 30%)")


# ---------------------------------------------------------------------------
# 9. Property suites
# ---------------------------------------------------------------------------

def test_criterion_9_property_suites(quartz, u0_along_beam,
                                     laue_coherence_grid):
    # flux conservation over 1000 random geometries (real potentials)
    rng = np.random.default_rng(2024)
    worst_flux = 0.0
    for _ in range(1000):
        b = rng.uniform(1.0, 9.0, size=2)
        frac = rng.uniform(0.05, 0.95, size=3)
        sites = (cr.AtomSite("A", (0.0, 0.0, 0.0), float(b[0]), 12),
                 cr.AtomSite("B", tuple(frac), float(b[1]), 24))
        crys = cr.CrystalModel("r", ((4.2, 0, 0), (0.3, 5.1, 0), (0, 0, 6.3)),
                               sites)
        kind = dp.BRAGG if rng.random() < 0.5 else dp.LAUE
        lam = float(rng.uniform(0.2, 0.95)) * 2 * crys.d_spacing((1, 1, 0))
        geom = dp.make_geometry(crys, (1, 1, 0), lam, kind,
                                float(10 ** rng.uniform(4, 7.5)))
        th = np.array([float(rng.normal(scale=1e-5))])
        res = dp.exit_amplitude_maps(geom, crys, np.array([1.0, 0.0]), th,
                                     np.zeros(1))
        worst_flux = max(worst_flux, float(abs(res["R"][0] + res["T"][0] - 1)))
    assert worst_flux <= 1e-10

    # boundary-condition and secular residuals over a dense thermal grid
    geom = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e6)
    th = np.linspace(-4e-5, 4e-5, 301)
    rh = np.linspace(-3e-3, 3e-3, 31)
    res = dp.exit_amplitude_maps(geom, quartz, u0_along_beam, th[:, None],
                                 rh[None, :])
    sec = float(np.nanmax(secular_residuals(res)))
    assert sec <= 1e-12
    E = res["energy_meV"]
    kappa = (geom.k_mag**2 / res["g0"])[..., None, None] \
        * (res["y"] - res["v0"]) / (2 * E)
    worst_bc = 0.0
    for ci in range(2):
        X1 = res["X"][..., ci, 0]
        X2 = res["X"][..., ci, 1]
        k1 = kappa[..., ci, 0]
        k2 = kappa[..., ci, 1]
        swap = k1.imag > k2.imag
        Xa = np.where(swap, X2, X1)
        Xb = np.where(swap, X1, X2)
        ka = np.where(swap, k2, k1)
        kb = np.where(swap, k1, k2)
        q = np.exp(1j * (kb - ka) * geom.thickness_A)
        den = Xa - q * Xb
        u_a = -q * Xb / den
        u_b = Xa / den
        worst_bc = max(worst_bc, float(np.max(np.abs(u_a + u_b - 1.0))))
        rear = (Xa * u_a + Xb * u_b * q)      # psi_H(D)/E_a gauge
        scale = np.abs(Xa * u_a) + np.abs(Xb * u_b * q) + 1e-300
        worst_bc = max(worst_bc, float(np.max(np.abs(rear) / scale)))
    assert worst_bc <= 1e-12

    # Schwinger off: no flipped amplitude anywhere
    scal = quartz.without_schwinger()
    res0 = dp.exit_amplitude_maps(geom, scal, u0_along_beam, th, np.zeros(1))
    orth = np.array([-1.0, 1.0]) / np.sqrt(2)
    flip_amp = max(float(np.max(np.abs(res0["psi0"] @ np.conj(orth)))),
                   float(np.max(np.abs(res0["psiH"] @ np.conj(orth)))))
    assert flip_amp <= 1e-14

    # AFT/oracle <L_z> equivalence on the figure-preset fields, evaluated
    # at azimuthal sampling fine enough for the finite-difference oracle
    checks = []
    for beam in (wf.TRANSMITTED, wf.REFLECTED):
        f = oam.field_from_grid(laue_coherence_grid, beam,
                                "interference", n_phi=65536, n_r=96,
                                physical_only=True)
        d = oam.oam_distribution(f, L=30000)
        checks.append((f"fig6 {beam}", oam.oracle_Lz(f),
                       d.mean, d))
    f7 = oam.field_from_grid(laue_coherence_grid, wf.TRANSMITTED,
                             "flipped", n_phi=65536, n_r=96,
                             physical_only=True)
    d7 = oam.oam_distribution(f7, L=30000)
    checks.append(("fig7 flipped", oam.oracle_Lz(f7),
                   d7.mean, d7))
    # fig3 fields on the default inscribed-disk polar analysis, where the
    # stripe is fully resolved (the zero-filled extended-radius analysis of
    # criterion 6 exceeds any finite-difference oracle's azimuthal band)
    geom3 = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 3e6)
    c3 = dp.darwin_center_theta(quartz, geom3)
    w3 = dp.darwin_fwhm_rad(quartz, geom3)
    grid3 = wf.grid_scan(geom3, quartz, u0_along_beam,
                         c3 + np.linspace(-w3, w3, 257),
                         np.linspace(-0.5 * DEG_TO_RAD, 0.5 * DEG_TO_RAD, 257))
    import warnings as _warnings
    for comp, label in (("non-flipped", "fig3 non-flipped"),
                        ("flipped", "fig3 flipped")):
        f3 = oam.field_from_grid(grid3, wf.REFLECTED, comp, center=(c3, 0.0),
                                 n_r=128, n_phi=256)
        d3 = oam.oam_distribution(f3, L=64)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            orc3 = oam.oracle_Lz(f3)
        checks.append((label, orc3, d3.mean, d3))
    worst_or = 0.0
    for label, orc, mean, dist in checks:
        rel = abs(orc - mean) / max(abs(mean), 1.0)
        worst_or = max(worst_or, rel)
        assert rel <= 1e-4, label
        # mode probabilities account for all intensity up to the residual
        assert dist.p.sum() + dist.residual == pytest.approx(1.0, abs=1e-9)

    # Darwin-oracle agreement of scalar R(theta) inside total reflection
    g_thick = dp.make_geometry(scal, (1, 1, 0), 2.0, dp.BRAGG, 2e7)
    vh = dp.scalar_reflection_scale(scal, g_thick)
    v0 = cr.mean_potential_meV(scal)
    centre = dp.darwin_center_theta(scal, g_thick)
    slope = dp.deviation_slope(g_thick)
    eta = np.linspace(-0.95, 0.95, 101)
    th_d = centre + (-2 * vh * eta) / slope
    resd = dp.exit_amplitude_maps(g_thick, scal, np.array([1.0, 0.0]), th_d,
                                  np.zeros_like(th_d))
    darwin_err = float(np.max(np.abs(resd["R"] - darwin_reflectivity(eta))))
    assert darwin_err <= 1e-8

    _report(9, f"flux |R+T-1| max {worst_flux:.1e}; residuals secular "
               f"{sec:.1e}, boundary {worst_bc:.1e}; Schwinger-off flip "
               f"{flip_amp:.1e}; oracle/AFT worst rel {worst_or:.1e}; "
               f"Darwin oracle max |dR| {darwin_err:.1e}")


# ---------------------------------------------------------------------------
# 10. Pendelloesung period
# ---------------------------------------------------------------------------

def test_criterion_10_pendelloesung(quartz):
    scal = quartz.without_schwinger()
    geom = dp.make_geometry(scal, (1, 1, 0), 2.0, dp.LAUE, 1e6)
    sites = [(s.frac, s.b_fm, s.Z, s.form_factor) for s in scal.sites]
    vH = brute_force_potential(sites, scal.lattice_matrix, (1, 1, 0),
                               geom.k0, scal.cell_volume_A3, schwinger=False)
    lam_pred = pendelloesung_length(geom.k_mag, geom.cos_gamma, vH[0, 0])

    n = 8192
    D0 = 4e5
    Ds = D0 + np.arange(n) * (24 * lam_pred / n)
    T = np.empty(n)
    for i, D in enumerate(Ds):
        g = dataclasses.replace(geom, thickness_A=float(D))
        T[i] = float(dp.exit_amplitude_maps(g, scal, np.array([1.0, 0.0]),
                                            np.array(0.0), np.array(0.0))["T"])
    x = (T - T.mean()) * np.hanning(n)
    spec = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(n, d=Ds[1] - Ds[0])
    i0 = int(np.argmax(spec[1:]) + 1)
    la, lb, lc = np.log(spec[i0 - 1]), np.log(spec[i0]), np.log(spec[i0 + 1])
    di = 0.5 * (la - lc) / (la - 2 * lb + lc)
    f_peak = freqs[i0] + di * (freqs[1] - freqs[0])
    lam_fft = 1.0 / f_peak
    rel = abs(lam_fft - lam_pred) / lam_pred
    assert rel <= 1e-3
    _report(10, f"Pendelloesung period: FFT {lam_fft/1e4:.4f} um vs formula "
                f"{lam_pred/1e4:.4f} um (rel {rel:.2e} <= 1e-3)")
