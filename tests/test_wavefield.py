import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodiff import dispersion as dp
from sodiff import oam
from sodiff import wavefield as wf


def small_grid(quartz, geom, u0, n=33, half=2e-5):
    th = np.linspace(-half, half, n)
    rh = np.linspace(-half, half, n)
    return wf.grid_scan(geom, quartz, u0, th, rh)


def test_one_by_one_grid_equals_exit_field(quartz, thermal_bragg_100um,
                                           u0_along_beam):
    grid = wf.grid_scan(thermal_bragg_100um, quartz, u0_along_beam,
                        np.array([1.3e-6]), np.array([0.0]))
    single = dp.exit_amplitude_maps(thermal_bragg_100um, quartz,
                                    u0_along_beam, 1.3e-6, 0.0)
    assert np.allclose(grid.psi0[0, 0], single["psi0"])
    assert np.allclose(grid.psiH[0, 0], single["psiH"])
    assert grid.R[0, 0] == pytest.approx(single["R"], rel=1e-14)


def test_grid_scan_deterministic(quartz, thermal_bragg_100um, u0_along_beam):
    g1 = small_grid(quartz, thermal_bragg_100um, u0_along_beam)
    g2 = small_grid(quartz, thermal_bragg_100um, u0_along_beam)
    assert np.array_equal(g1.psi0, g2.psi0)
    assert np.array_equal(g1.psiH, g2.psiH)
    assert np.array_equal(g1.R, g2.R)


def test_grid_matches_pointwise_evaluation(quartz, thermal_bragg_100um,
                                           u0_along_beam):
    """Grid values are independent of evaluation order/batching: the dense
    vectorised build equals independent single-point solves."""
    grid = small_grid(quartz, thermal_bragg_100um, u0_along_beam, n=5)
    for i in (0, 2, 4):
        for j in (1, 3):
            f = dp.exit_amplitude_maps(thermal_bragg_100um, quartz,
                                       u0_along_beam, float(grid.theta[i]),
                                       float(grid.rho[j]))
            assert np.allclose(grid.psi0[i, j], f["psi0"], rtol=1e-13)
            assert np.allclose(grid.psiH[i, j], f["psiH"], rtol=1e-13)


def test_wide_window_scan_accepted(quartz, thermal_bragg_100um,
                                   u0_along_beam):
    """+-10 mrad about the 2 A Darwin centre (far outside the Darwin
    width) passes the root check, with flux conserved."""
    center = dp.darwin_center_theta(quartz, thermal_bragg_100um)
    th = center + np.linspace(-1e-2, 1e-2, 20001)
    grid = wf.grid_scan(thermal_bragg_100um, quartz, u0_along_beam, th,
                        np.zeros(1))
    assert np.max(np.abs(grid.R + grid.T - 1.0)) <= 1e-10


def test_perturbed_root_rejected(quartz, thermal_bragg_100um, u0_along_beam,
                                 monkeypatch):
    solve = dp._solve_channel

    def perturbed(*args):
        y1, y2, X1, X2 = solve(*args)
        return y1 * (1.0 + 1e-9), y2, X1, X2

    monkeypatch.setattr(dp, "_solve_channel", perturbed)
    with pytest.raises(wf.WaveGridError, match="backward error"):
        small_grid(quartz, thermal_bragg_100um, u0_along_beam, n=5)


def test_grid_requires_uniform_axes(quartz, thermal_bragg_100um, u0_along_beam):
    with pytest.raises(wf.WaveGridError):
        wf.grid_scan(thermal_bragg_100um, quartz, u0_along_beam,
                     np.array([0.0, 1e-6, 3e-6]), np.array([0.0]))


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------

def test_polarization_bounded(quartz, thermal_bragg_100um, u0_along_beam):
    grid = small_grid(quartz, thermal_bragg_100um, u0_along_beam)
    for beam in (wf.REFLECTED, wf.TRANSMITTED):
        pm = wf.polarization_map(grid, beam)
        mag = np.sqrt(pm["Px"]**2 + pm["Py"]**2 + pm["Pz"]**2)
        assert np.nanmax(mag) <= 1.0 + 1e-12
        curve = wf.polarization_curve(grid, beam, "theta")
        cm = np.sqrt(curve.Px**2 + curve.Py**2 + curve.Pz**2)
        assert np.nanmax(cm) <= 1.0 + 1e-12


def test_polarization_schwinger_off_is_x(quartz, thermal_bragg_100um,
                                         u0_along_beam):
    grid = small_grid(quartz.without_schwinger(), thermal_bragg_100um,
                      u0_along_beam)
    for beam in (wf.REFLECTED, wf.TRANSMITTED):
        pm = wf.polarization_map(grid, beam)
        ok = pm["mask"]
        assert np.allclose(pm["Px"][ok], 1.0, atol=1e-12)
        assert np.allclose(pm["Py"][ok], 0.0, atol=1e-12)
        assert np.allclose(pm["Pz"][ok], 0.0, atol=1e-12)


def test_polarization_curve_axis_choice(quartz, thermal_bragg_100um,
                                        u0_along_beam):
    grid = small_grid(quartz, thermal_bragg_100um, u0_along_beam, n=17)
    ct = wf.polarization_curve(grid, wf.REFLECTED, "theta")
    cr_ = wf.polarization_curve(grid, wf.REFLECTED, "rho")
    assert ct.abscissa.size == 17 and cr_.abscissa.size == 17
    assert ct.axis_label == "theta_rad" and cr_.axis_label == "rho_rad"
    with pytest.raises(wf.WaveGridError):
        wf.polarization_curve(grid, wf.REFLECTED, "phi")


# ---------------------------------------------------------------------------
# phase maps and winding numbers
# ---------------------------------------------------------------------------

def synthetic_phase(ell, n=101):
    x = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    field = (X + 1j * Y) ** abs(ell)
    if ell < 0:
        field = np.conj(field)
    return np.angle(field), np.abs(field) > 1e-12


def test_winding_synthetic_vortex():
    phase, mask = synthetic_phase(+1)
    loop = wf.rectangle_loop(phase.shape, 10)
    assert wf.winding_number(phase, loop, mask) == 1
    phase2, _ = synthetic_phase(-2)
    assert wf.winding_number(phase2, loop) == -2


def test_winding_constant_zero():
    phase = np.zeros((41, 41))
    loop = wf.rectangle_loop(phase.shape, 5)
    assert wf.winding_number(phase, loop) == 0


def test_winding_loop_deformation_invariance():
    phase, mask = synthetic_phase(+1, n=201)
    values = [wf.winding_number(phase, wf.rectangle_loop(phase.shape, m), mask)
              for m in (10, 40, 80)]
    assert values == [1, 1, 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(-3, 3), st.integers(5, 60))
def test_winding_hypothesis_loops(ell, margin):
    phase, mask = synthetic_phase(ell, n=151)
    loop = wf.rectangle_loop(phase.shape, margin)
    assert wf.winding_number(phase, loop, mask) == ell


def test_winding_masked_region_error():
    phase, _ = synthetic_phase(1, n=51)
    mask = np.ones_like(phase, bool)
    mask[25, :] = False
    loop = wf.rectangle_loop(phase.shape, 5)
    with pytest.raises(wf.WaveGridError, match="masked"):
        wf.winding_number(phase, loop, mask)


def test_winding_open_loop_rejected():
    phase, _ = synthetic_phase(1)
    with pytest.raises(wf.WaveGridError, match="closed"):
        wf.winding_number(phase, [(0, 0), (0, 1)])


def test_phase_map_two_ramps():
    """A synthetic exp(2 i phi) spinor component yields a phase map whose
    circulation is 2 (two 2 pi ramps around the loop)."""
    x = np.linspace(-1, 1, 81)
    X, Y = np.meshgrid(x, x, indexing="ij")
    field = np.exp(2j * np.arctan2(Y, X))
    phase = np.angle(field)
    loop = wf.rectangle_loop(phase.shape, 8)
    assert wf.winding_number(phase, loop) == 2
    vals = phase[tuple(np.array(loop).T)]
    d = np.diff(vals)
    jumps = np.sum(np.abs(d) > np.pi)
    assert jumps == 2  # wrapped plot shows exactly two +-pi crossings


def test_phase_map_masks_empty_amplitude(quartz, thermal_bragg_100um,
                                         u0_along_beam):
    grid = small_grid(quartz, thermal_bragg_100um, u0_along_beam, n=9)
    grid.psiH[2:5, 3:6] = 0.0  # kill a block: phase undefined there
    pm = wf.phase_map(grid, "flipped", wf.REFLECTED)
    assert not pm["mask"][2:5, 3:6].any()
    assert np.isnan(pm["phase"][2:5, 3:6]).all()
    assert pm["mask"][0, 0]
    with pytest.raises(wf.WaveGridError):
        wf.phase_map(grid, "sideways", wf.REFLECTED)


def test_beam_frame_mirror_backscattering(quartz, u0_along_beam):
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    g = dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, 2e6)
    half = np.deg2rad(0.45)
    ax = np.linspace(-half, half, 64)
    grid = wf.grid_scan(g, quartz, u0_along_beam, ax, ax)
    pmr = wf.phase_map(grid, "flipped", wf.REFLECTED, frame="beam")
    pmt = wf.phase_map(grid, "flipped", wf.TRANSMITTED, frame="beam")
    assert pmr["mirrored"] and not pmt["mirrored"]
    lab = wf.phase_map(grid, "flipped", wf.REFLECTED, frame="lab")
    assert np.allclose(pmr["phase"], lab["phase"][:, ::-1], equal_nan=True)


# ---------------------------------------------------------------------------
# thickness-averaged coherence grids
# ---------------------------------------------------------------------------

def test_coherence_matches_outer_products_for_thin_crystal(quartz,
                                                           u0_along_beam):
    """With a vanishing ensemble spread the coherence matrices are exactly
    the outer products of the raw exit spinors."""
    geom = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.LAUE, 2e5)
    th = np.linspace(-2e-5, 2e-5, 21)
    rh = np.linspace(-1e-3, 1e-3, 7)
    raw = wf.grid_scan(geom, quartz, u0_along_beam, th, rh)
    coh = wf.coherence_scan(geom, quartz, u0_along_beam, th, rh, span_A=1e-9)
    for m, psi in ((coh.rho0, raw.psi0), (coh.rhoH, raw.psiH)):
        outer = psi[..., :, None] * np.conj(psi[..., None, :])
        assert np.allclose(m, outer, rtol=1e-8, atol=1e-12)
    assert np.allclose(coh.R, raw.R, rtol=1e-8)
    assert np.allclose(coh.T, raw.T, rtol=1e-8)
    # flip coherence equals conj(non-flipped) * flipped of the raw spinors
    fc = coh.flip_coherence(wf.TRANSMITTED)
    direct = (np.conj(raw.spin_component(wf.TRANSMITTED, False))
              * raw.spin_component(wf.TRANSMITTED, True))
    assert np.allclose(fc, direct, rtol=1e-8, atol=1e-15)
    # so every analysis gives the same answer on either kind of grid
    for beam in (wf.TRANSMITTED, wf.REFLECTED):
        pm_raw = wf.polarization_map(raw, beam)
        pm_coh = wf.polarization_map(coh, beam)
        assert np.array_equal(pm_raw["mask"], pm_coh["mask"])
        for key in ("Px", "Py", "Pz", "intensity"):
            assert np.allclose(pm_coh[key], pm_raw[key], rtol=1e-8,
                               atol=1e-12, equal_nan=True), (beam, key)
        f_raw = oam.field_from_grid(raw, beam, "interference", n_r=16,
                                    n_phi=32)
        f_coh = oam.field_from_grid(coh, beam, "interference", n_r=16,
                                    n_phi=32)
        assert np.allclose(f_coh.values, f_raw.values, rtol=1e-8,
                           atol=1e-15)
    # an ensemble has no common phase: no spin amplitude, no phase map
    with pytest.raises(wf.WaveGridError, match="ensemble"):
        coh.spin_component(wf.TRANSMITTED, flipped=True)
    with pytest.raises(wf.WaveGridError, match="ensemble"):
        wf.phase_map(coh, "flipped", wf.TRANSMITTED)


def test_grazing_row_nudged_in_both_scans(quartz, u0_along_beam):
    """An axis through exactly grazing incidence (theta = 0 in Laue
    backscattering) is accepted by both scans, which nudge the same row."""
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.LAUE)
    geom = dp.make_geometry(quartz, (1, 1, 0), lam, dp.LAUE, 2e6)
    ax = np.linspace(-np.deg2rad(0.3), np.deg2rad(0.3), 9)
    raw = wf.grid_scan(geom, quartz, u0_along_beam, ax, ax)
    coh = wf.coherence_scan(geom, quartz, u0_along_beam, ax, ax)
    assert np.nonzero(raw.theta != ax)[0].tolist() == [4]
    assert np.array_equal(coh.theta, raw.theta)
    assert np.array_equal(coh.physical, raw.physical)
    assert np.isfinite(coh.R).all() and np.isfinite(coh.T).all()


def test_averaged_reflected_transverse_polarization_weak(laue_coherence_grid):
    """Backscattering 35 mm: the averaged reflected beam's transverse
    polarization is orders of magnitude below the transmitted one."""
    pt = wf.polarization_map(laue_coherence_grid, wf.TRANSMITTED)
    pr = wf.polarization_map(laue_coherence_grid, wf.REFLECTED)
    phys = laue_coherence_grid.physical
    max_t = np.nanmax(np.abs(pt["Pz"][phys]))
    max_r = np.nanmax(np.abs(pr["Pz"][phys]))
    assert max_t > 0.5
    assert max_r < 1e-3 * max_t


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def test_binary_roundtrip(tmp_path, quartz, thermal_bragg_100um, u0_along_beam):
    grid = small_grid(quartz, thermal_bragg_100um, u0_along_beam, n=9)
    path = tmp_path / "grid.sgrid"
    wf.write_binary(grid, path)
    back = wf.read_binary(path)
    assert np.array_equal(back["psi0"], grid.psi0)
    assert np.array_equal(back["psiH"], grid.psiH)
    assert np.array_equal(back["R"], grid.R)
    assert np.allclose(back["theta"], grid.theta)
    assert path.stat().st_size == 64 + grid.psi0.nbytes * 2 + grid.R.nbytes * 2


def test_binary_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00" * 200)
    with pytest.raises(wf.WaveGridError):
        wf.read_binary(path)


def test_long_csv_export(tmp_path, quartz, thermal_bragg_100um, u0_along_beam):
    grid = small_grid(quartz, thermal_bragg_100um, u0_along_beam, n=5)
    path = tmp_path / "grid.csv"
    wf.write_long_csv(grid, path, header_lines=("demo",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1].startswith("theta_rad,rho_rad,re_psi0_up")
    assert len(lines) == 2 + 25
