import logging
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (channel_diagnostics, polarization_map_whole,
                     root_backward_error, scan_whole)
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
    assert np.array_equal(grid.psi0[0, 0], single["psi0"])
    assert np.array_equal(grid.psiH[0, 0], single["psiH"])
    assert grid.R[0, 0] == single["R"]


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
            assert np.array_equal(grid.psi0[i, j], f["psi0"])
            assert np.array_equal(grid.psiH[i, j], f["psiH"])


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
    """A secular root off by 1e-9 relative is rejected by either scan once
    the grid is done: the check lives in their shared tiling."""
    solve = dp._solve_channel

    def perturbed(*args):
        y, X = solve(*args)
        y[0] *= 1.0 + 1e-9
        return y, X

    monkeypatch.setattr(dp, "_solve_channel", perturbed)
    ax = np.linspace(-2e-5, 2e-5, 5)
    for scan in (wf.grid_scan, wf.coherence_scan):
        with pytest.raises(wf.WaveGridError, match="backward error"):
            scan(thermal_bragg_100um, quartz, u0_along_beam, ax, ax)


def test_grid_requires_uniform_axes(quartz, thermal_bragg_100um, u0_along_beam):
    with pytest.raises(wf.WaveGridError):
        wf.grid_scan(thermal_bragg_100um, quartz, u0_along_beam,
                     np.array([0.0, 1e-6, 3e-6]), np.array([0.0]))


def tiling_case(quartz, case):
    """(geometry, theta axis, rho axis) of a 131 x 127 grid: 2 A Bragg or
    Laue over +-20 urad, or Laue backscattering over +-0.3 deg with theta
    row 65 exactly grazing (theta = 0)."""
    if case == "laue-back":
        lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.LAUE)
        geom = dp.make_geometry(quartz, (1, 1, 0), lam, dp.LAUE, 2e6)
        half = np.deg2rad(0.3)
    else:
        kind, thick = {"bragg": (dp.BRAGG, 1e6), "laue": (dp.LAUE, 2e5)}[case]
        geom = dp.make_geometry(quartz, (1, 1, 0), 2.0, kind, thick)
        half = 2e-5
    return geom, half * np.arange(-65, 66) / 65, np.linspace(-half, half, 127)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scan", ["grid", "coherence"])
@pytest.mark.parametrize("case", ["bragg", "laue", "laue-back"])
def test_tiling_invisible(quartz, u0_along_beam, monkeypatch, case, scan,
                          workers):
    """A scan split into theta-row tiles of 40 rows (the last one partial),
    on one or two threads, equals one whole-grid engine call bit for bit.
    The whole grid's (channel, ...) complex arrays (520 KiB) exceed
    256 KiB, where numpy evaluates a product with a temporary right operand
    in place with its operands swapped, while the tiles' stay below
    (159 KiB; their (branch, channel, ...) root arrays, 318 KiB, do not);
    so this also checks that the engine's values do not depend on the
    array size."""
    geom, th, rh = tiling_case(quartz, case)
    monkeypatch.setattr(wf, "_TILE_POINTS", 40 * rh.size)
    monkeypatch.setattr(wf, "_cpus", lambda: workers)
    if scan == "grid":
        grid = wf.grid_scan(geom, quartz, u0_along_beam, th, rh)
        fields = ("psi0", "psiH")
        T, R = grid.theta[:, None], rh[None, :]
        whole = {**dp.exit_amplitude_maps(geom, quartz, u0_along_beam, T, R),
                 "g0": channel_diagnostics(geom, quartz, T, R)["g0"]}
    else:
        grid = wf.coherence_scan(geom, quartz, u0_along_beam, th, rh)
        fields = ("rho0", "rhoH")
        whole = dp.exit_coherence_maps(geom, quartz, u0_along_beam,
                                       grid.theta[:, None], rh[None, :])
    nudged = th.copy()
    if case == "laue-back":
        nudged[65] += 1e-12
    assert np.array_equal(grid.theta, nudged)
    assert np.array_equal(grid.rho, rh)
    for name in fields + ("R", "T"):
        assert np.array_equal(getattr(grid, name), whole[name]), name
    assert np.array_equal(grid.physical, whole["g0"] > 0.0)


def test_tiling_stress_many_threads(quartz, u0_along_beam, monkeypatch):
    """One-row tiles on eight threads (more than the cores) with a short
    thread switch interval: every row, the nudged grazing one included,
    still equals the whole-grid engine call.  The same holds for a folded
    scan in bands of 40 representatives, whose threads write mirror images
    into each other's rows."""
    geom, th, rh = tiling_case(quartz, "laue-back")
    back, ax = back_bragg(quartz), np.deg2rad(0.45) * np.linspace(-1, 1, 61)
    monkeypatch.setattr(wf, "_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(wf, "_TILE_POINTS", rh.size)
        grid = wf.grid_scan(geom, quartz, u0_along_beam, th, rh)
        monkeypatch.setattr(wf, "_TILE_POINTS", 40)
        folded = wf.grid_scan(back, quartz, u0_along_beam, ax, ax)
    finally:
        sys.setswitchinterval(interval)
    whole = dp.exit_amplitude_maps(geom, quartz, u0_along_beam,
                                   grid.theta[:, None], rh[None, :])
    assert np.nonzero(grid.theta != th)[0].tolist() == [65]
    for name in ("psi0", "psiH", "R", "T"):
        assert np.array_equal(getattr(grid, name), whole[name]), name
    assert_equals_whole(folded, scan_whole(back, quartz, u0_along_beam, ax,
                                           ax), "grid")


@pytest.mark.parametrize("case", ["thermal", "back"])
def test_bragg_coherence_scan_above_one_tile_equals_whole(
        quartz, thermal_bragg_100um, u0_along_beam, case):
    """A Bragg coherence_scan of 97 x 97 = 9409 points, more than one tile
    (in theta rows, or in fold bands for backscattering), equals the
    whole-grid scan bit for bit, though the whole grid's arrays exceed
    256 KiB: the ensemble's node loop writes into buffers, so no value
    depends on the array size."""
    if case == "thermal":
        geom, ax = thermal_bragg_100um, np.linspace(-3e-5, 3e-5, 97)
    else:
        geom, ax = back_bragg(quartz), np.deg2rad(0.45) * np.linspace(-1, 1, 97)
    assert ax.size ** 2 > wf._TILE_POINTS
    grid = wf.coherence_scan(geom, quartz, u0_along_beam, ax, ax)
    assert_equals_whole(grid, scan_whole(geom, quartz, u0_along_beam, ax, ax,
                                         ensemble=True), "coherence")


def test_grid_scan_memory_bounded_by_kept_fields(quartz, thermal_bragg_100um,
                                                 u0_along_beam, monkeypatch):
    """A 512^2 scan on two threads allocates at most its kept arrays plus
    1 KiB per point of the two tiles in flight (about 0.6 KiB measured);
    the per-point diagnostics of the whole grid never exist at once.  The
    same bound holds for a folded scan (Bragg backscattering, one axis),
    which keeps no representatives beyond its tiles."""
    monkeypatch.setattr(wf, "_cpus", lambda: 2)
    for geom, half in ((thermal_bragg_100um, 2e-5),
                       (back_bragg(quartz), np.deg2rad(0.45))):
        ax = np.linspace(-half, half, 512)
        assert wf._folds(geom, ax, ax) == (geom is not thermal_bragg_100um)
        tracemalloc.start()
        try:
            grid = wf.grid_scan(geom, quartz, u0_along_beam, ax, ax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (grid.psi0, grid.psiH, grid.R, grid.T,
                                      grid.physical))
        assert peak <= kept + 2 * 1024 * wf._TILE_POINTS
        del grid


# ---------------------------------------------------------------------------
# the theta <-> rho fold of Bragg backscattering scans
# ---------------------------------------------------------------------------

SCANS = {"grid": (wf.grid_scan, dp._solve_amplitudes, ("psi0", "psiH")),
         "coherence": (wf.coherence_scan, dp._solve_coherences,
                       ("rho0", "rhoH"))}
FOLD_U0 = pytest.mark.parametrize("u0", [
    (1.0, 1.0), (1.0, 0.0), (0.6 - 0.3j, -0.2 + 0.7j)],
    ids=["along-beam", "spin-up", "complex"])


def back_bragg(quartz, thickness=1e8):
    """Bragg backscattering from quartz (110): H and n on the lab x axis."""
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.BRAGG)
    return dp.make_geometry(quartz, (1, 1, 0), lam, dp.BRAGG, thickness)


def count_solved(monkeypatch, scan):
    """A list that gathers the number of points of every channel solve of
    the named scan's engine."""
    name = SCANS[scan][1].__name__
    solve, sizes = getattr(dp, name), []

    def counted(geom, crystal, theta, rho, *args):
        sizes.append(np.broadcast(theta, rho).size)
        return solve(geom, crystal, theta, rho, *args)

    monkeypatch.setattr(dp, name, counted)
    return sizes


def assert_equals_whole(grid, whole, scan):
    for name in SCANS[scan][2] + ("R", "T", "physical", "theta"):
        assert getattr(grid, name).tobytes() == whole[name].tobytes(), name
    assert grid.root_error == whole["root_error"]


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("n", [24, 25])
@FOLD_U0
@pytest.mark.parametrize("scan", ["grid", "coherence"])
def test_fold_equals_unfolded(quartz, monkeypatch, scan, u0, n, workers):
    """Bragg backscattering on one axis for theta and rho: a scan solves
    each theta <-> rho pair once, n (n + 1)/2 points, and equals the
    unfolded whole-grid scan byte for byte, in bands of about 40
    representatives (rows split between bands, and blocks of one row
    beside triangles), for even and odd n on 1, 2 and 8 threads."""
    u0 = np.asarray(u0, complex) / np.linalg.norm(u0)
    geom, ax = back_bragg(quartz), np.deg2rad(0.45) * np.linspace(-1, 1, n)
    monkeypatch.setattr(wf, "_TILE_POINTS", 40)
    monkeypatch.setattr(wf, "_cpus", lambda: workers)
    sizes = count_solved(monkeypatch, scan)
    grid = SCANS[scan][0](geom, quartz, u0, ax, ax)
    assert sum(sizes) == n * (n + 1) // 2
    assert_equals_whole(grid, scan_whole(geom, quartz, u0, ax, ax,
                                         ensemble=scan == "coherence"), scan)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("scan", ["grid", "coherence"])
def test_fold_tiny_grids(quartz, u0_along_beam, monkeypatch, scan, n):
    """A folded 1 x 1, 2 x 2 or 3 x 3 grid (one representative computed
    as two copies; one image) equals the unfolded whole-grid scan."""
    geom, ax = back_bragg(quartz), 1e-3 * np.arange(n)
    sizes = count_solved(monkeypatch, scan)
    grid = SCANS[scan][0](geom, quartz, u0_along_beam, ax, ax)
    assert sum(sizes) == n * (n + 1) // 2
    assert_equals_whole(grid, scan_whole(geom, quartz, u0_along_beam, ax, ax,
                                         ensemble=scan == "coherence"), scan)


@pytest.mark.parametrize("scan", ["grid", "coherence"])
def test_fold_singular_points_as_unfolded(quartz, monkeypatch, caplog, scan):
    """A channel solve made NaN on theta row y and rho column y (a set
    mirrored onto itself): the folded scan stores, retries one image at a
    time and logs as the unfolded whole-grid scan does.  Of the 2n - 1
    singular points, the row's recover at their own nudged theta off the
    diagonal, and the column's n stay NaN."""
    geom, n = back_bragg(quartz), 25
    ax = np.deg2rad(0.45) * np.linspace(-1, 1, n)
    y = ax[7]
    name = SCANS[scan][1].__name__
    solve = getattr(dp, name)

    def singular(geom, crystal, theta, rho, *args):
        sol = solve(geom, crystal, theta, rho, *args)
        bad = np.broadcast_to((theta == y) | (rho == y), sol["g0"].shape)
        if "t" in sol:
            sol["t"][:, bad] = sol["r"][:, bad] = np.nan
        else:
            sol["C0"][bad] = sol["CH"][bad] = np.nan
        return sol

    monkeypatch.setattr(dp, name, singular)
    monkeypatch.setattr(wf, "_TILE_POINTS", 40)
    monkeypatch.setattr(wf, "_cpus", lambda: 2)
    u0 = np.array([0.6 - 0.3j, -0.2 + 0.7j]) / np.sqrt(0.98)
    results, logs = [], []
    for run in (lambda: SCANS[scan][0](geom, quartz, u0, ax, ax),
                lambda: scan_whole(geom, quartz, u0, ax, ax,
                                   ensemble=scan == "coherence")):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sodiff.wavefield"):
            results.append(run())
        logs.append([(r.name, r.levelname, r.getMessage())
                     for r in caplog.records])
    assert_equals_whole(*results, scan)
    assert logs[0] == logs[1]
    message = ("grid_scan: 49 singular points retried with a nudged theta, "
               "25 remain NaN" if scan == "grid"
               else "coherence_scan: 49 points are NaN")
    assert logs[0] == [("sodiff.wavefield", "WARNING", message)]


@pytest.mark.parametrize("scan", ["grid", "coherence"])
def test_fold_raises_as_unfolded(quartz, u0_along_beam, monkeypatch, scan):
    """A perturbed root fails a folded scan with the unfolded scan's
    message: the largest backward error is the same number."""
    solve = dp._solve_channel

    def perturbed(*args):
        y, X = solve(*args)
        y[0] *= 1.0 + 1e-9
        return y, X

    monkeypatch.setattr(dp, "_solve_channel", perturbed)
    geom, ax = back_bragg(quartz), np.deg2rad(0.45) * np.linspace(-1, 1, 9)
    messages = []
    for run in (lambda: SCANS[scan][0](geom, quartz, u0_along_beam, ax, ax),
                lambda: scan_whole(geom, quartz, u0_along_beam, ax, ax,
                                   ensemble=scan == "coherence")):
        with pytest.raises(wf.WaveGridError, match="backward error") as err:
            run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("case", ["folded", "unfolded", "1x1"])
@pytest.mark.parametrize("scan", ["grid", "coherence"])
def test_one_corrupted_root_rejected(quartz, thermal_bragg_100um,
                                    u0_along_beam, monkeypatch, scan, case):
    """One secular root off by 1e-9 relative, at the last point of the
    second tile (a theta <-> rho fold band, or a tile of theta rows),
    fails the scan: every tile checks the roots of its own solve.  The
    one point of a 1 x 1 grid is first stored in the channel cache by two
    one-point calls, which check nothing; its tile then reads the
    corrupted root from the cache entry without solving again."""
    monkeypatch.setattr(wf, "_TILE_POINTS", 40)
    monkeypatch.setattr(wf, "_cpus", lambda: 1)
    solve, solved = dp._solve_channel, []

    def corrupted(*args):
        y, X = solve(*args)
        solved.append(y.shape)
        if len(solved) == 2:
            flat = y.reshape(2, 2, -1)
            assert np.shares_memory(flat, y)
            flat[0, 0, -1] *= 1.0 + 1e-9
        return y, X

    monkeypatch.setattr(dp, "_solve_channel", corrupted)
    if case == "folded":
        geom = back_bragg(quartz)
        th = rh = np.deg2rad(0.45) * np.linspace(-1, 1, 9)
    elif case == "unfolded":
        geom, th = thermal_bragg_100um, np.linspace(-2e-5, 2e-5, 9)
        rh = th
    else:
        geom, th, rh = thermal_bragg_100um, np.array([1.3e-6]), np.zeros(1)
        dp._CHANNEL_CACHE.clear()
        one_point = {"grid": dp.exit_amplitude_maps,
                     "coherence": dp.exit_coherence_maps}[scan]
        for _ in range(2):   # the first marks the point, the second stores
            one_point(geom, quartz, u0_along_beam, th[:, None], rh[None, :])
        assert isinstance(next(iter(dp._CHANNEL_CACHE.values())), dict)
    assert wf._folds(geom, th, rh) == (case == "folded")
    with pytest.raises(wf.WaveGridError, match="backward error"):
        SCANS[scan][0](geom, quartz, u0_along_beam, th, rh)
    assert len(solved) == {"folded": 2, "unfolded": 3, "1x1": 2}[case]


def test_root_check_runs_in_scans_only(quartz, thermal_bragg_100um,
                                       u0_along_beam, monkeypatch):
    """One-point calls of both engines evaluate no backward error, on a
    miss that marks a point, one that stores it, a hit and a new point.
    A scan evaluates it once per tile, over all four roots of every point
    the tile solves: each point of a row tile, each representative of a
    fold band.  The grid keeps the largest as root_error, the value
    channel_diagnostics gives over the whole grid."""
    real, sizes = dp._backward_error, []

    def counted(beta, b, p, y):
        sizes.append(y.size)
        return real(beta, b, p, y)

    monkeypatch.setattr(dp, "_backward_error", counted)
    dp._CHANNEL_CACHE.clear()
    for call in (dp.exit_amplitude_maps, dp.exit_coherence_maps):
        for th in (1e-6, 1e-6, 1e-6, 2e-6):
            call(thermal_bragg_100um, quartz, u0_along_beam, th, 0.0)
    assert sizes == []
    monkeypatch.setattr(wf, "_TILE_POINTS", 40)
    monkeypatch.setattr(wf, "_cpus", lambda: 2)
    back, ax = back_bragg(quartz), np.deg2rad(0.45) * np.linspace(-1, 1, 9)
    th = np.linspace(-2e-5, 2e-5, 9)
    for scan in SCANS:
        solved = count_solved(monkeypatch, scan)
        for geom, axis in ((thermal_bragg_100um, th), (back, ax)):
            sizes.clear()
            solved.clear()
            grid = SCANS[scan][0](geom, quartz, u0_along_beam, axis, axis)
            assert sorted(sizes) == sorted(4 * n for n in solved)
            assert sum(solved) == (45 if geom is back else 81)
            whole = channel_diagnostics(geom, quartz, grid.theta[:, None],
                                        axis[None, :])["backward_error"]
            assert grid.root_error == float(np.max(whole))
            assert 0.0 < grid.root_error <= wf._ROOT_TOL


@pytest.mark.parametrize("ulp", [False, True], ids=["equal", "one-ulp"])
@pytest.mark.parametrize("case", ["back-bragg", "bragg", "laue-back"])
@pytest.mark.parametrize("scan", ["grid", "coherence"])
def test_fold_only_where_exact(quartz, u0_along_beam, monkeypatch, scan, case,
                               ulp):
    """Only Bragg backscattering with bitwise-equal axes folds.  With one
    rho value one ulp up, or in 2 A Bragg or Laue backscattering (whose
    theta = 0 row is grazing and nudged), every point is solved; each
    scan equals the unfolded whole-grid scan byte for byte."""
    n = 21
    if case == "back-bragg":
        geom, half = back_bragg(quartz), np.deg2rad(0.45)
    elif case == "bragg":
        geom, half = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG,
                                      1e6), 2e-5
    else:
        lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.LAUE)
        geom = dp.make_geometry(quartz, (1, 1, 0), lam, dp.LAUE, 2e7)
        half = np.deg2rad(0.3)
    th = half * np.arange(-10, 11) / 10
    rh = th.copy()
    if ulp:
        rh[4] = np.nextafter(rh[4], np.inf)
    sizes = count_solved(monkeypatch, scan)
    grid = SCANS[scan][0](geom, quartz, u0_along_beam, th, rh)
    folded = case == "back-bragg" and not ulp
    assert sum(sizes) == (n * (n + 1) // 2 if folded else n * n)
    assert_equals_whole(grid, scan_whole(geom, quartz, u0_along_beam, th, rh,
                                         ensemble=scan == "coherence"), scan)
    assert np.array_equal(grid.rho, rh)


ANGLE = st.floats(-0.02, 0.02)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ANGLE, ANGLE), min_size=1, max_size=12))
@example([(-0.01640369933700032, 0.01964931278715237)])
def test_mirror_symmetry_bitwise(quartz, points):
    """In Bragg backscattering (H and n on the lab x axis), swapping theta
    and rho swaps k_y and k_z and leaves the kinematics and every channel
    scalar bitwise unchanged, from single points to small arrays,
    signed zeros and subnormals included.  The example is a point where
    1 + theta^2 + rho^2 and 1 + rho^2 + theta^2 round apart (about 6 in
    10^5 random points do), which sqrt(1 + (theta^2 + rho^2)) avoids."""
    geom = back_bragg(quartz, 2e6)
    th, rh = np.array(points).T
    k, *kin = geom.kinematics(th, rh)
    k_m, *kin_m = geom.kinematics(rh, th)
    assert k_m[..., (0, 2, 1)].tobytes() == k.tobytes()
    for a, b in zip(kin, kin_m):
        assert a.tobytes() == b.tobytes()
    sol = dp._solve_coherences(geom, quartz, th, rh, None)
    sol.update(dp._solve_amplitudes(geom, quartz, th, rh))
    mirror = dp._solve_coherences(geom, quartz, rh, th, None)
    mirror.update(dp._solve_amplitudes(geom, quartz, rh, th))
    for s in (sol, mirror):
        s["backward_error"] = root_backward_error(s)
    for key in ("alpha0", "beta", "g0", "gH", "w", "kappa_scale", "y", "X",
                "backward_error", "t", "r", "C0", "CH"):
        assert sol[key].tobytes() == mirror[key].tobytes(), key


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

def random_state_grid(n_t, n_r, ensemble, seed=11):
    """Hand-built WaveGrid of random exit states in both beams: spinors, or
    for an ensemble equal mixtures of two random spinors.  Point (0, 0) and
    the last point are zero, (2, 0) is below the 1e-300 intensity floor
    and (1, 1) is NaN."""
    rng = np.random.default_rng(seed)
    shape = (n_t, n_r)
    states = []
    for _ in range(2):
        a, b = (rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
                for _ in range(2))
        state = a
        if ensemble:
            state = 0.5 * (a[..., :, None] * np.conj(a[..., None, :])
                           + b[..., :, None] * np.conj(b[..., None, :]))
        state[0, 0] = state[-1, -1] = 0.0
        state[2, 0] = 1e-310 if ensemble else 1e-160
        state[1, 1] = np.nan
        states.append(state)
    kept = dict(zip(("rho0", "rhoH") if ensemble else ("psi0", "psiH"),
                    states))
    axis = np.linspace(-1e-3, 1e-3, max(shape))
    return wf.WaveGrid(theta=axis[:n_t], rho=axis[:n_r], R=np.zeros(shape),
                       T=np.ones(shape), geometry=None,
                       u0=np.array([1.0, 0.0], complex),
                       physical=np.ones(shape, bool), **kept)


@pytest.mark.parametrize("ensemble", [False, True])
@pytest.mark.parametrize("n_t, n_r", [(40, 600), (3, 9000)])
def test_polarization_map_tiles_equal_whole_grid(ensemble, n_t, n_r):
    """The map formed in theta-row tiles has the bytes of the whole-grid
    form, on pure and ensemble grids with empty and NaN points: 40 rows of
    600 points in tiles of 13 rows (a short last tile) and rows wider than
    a tile."""
    grid = random_state_grid(n_t, n_r, ensemble)
    for beam in (wf.TRANSMITTED, wf.REFLECTED):
        pm = wf.polarization_map(grid, beam)
        ref = polarization_map_whole(grid, beam)
        assert [pm["mask"][i, j] for i, j in ((0, 0), (2, 0), (1, 1))] == \
            [False] * 3
        assert 0.9 < pm["mask"].mean() < 1.0
        for key in ("Px", "Py", "Pz", "intensity", "mask"):
            assert pm[key].dtype == ref[key].dtype
            assert pm[key].tobytes() == ref[key].tobytes(), key


@pytest.mark.parametrize("ensemble", [False, True])
def test_polarization_map_memory_bounded(ensemble):
    """Beyond its outputs (P, the intensity and the mask: 33 B a point),
    the map of a 512 x 256 grid (16 tiles) allocates at most 256 B for each
    point of a tile; the whole-grid form took about 70 B a point."""
    grid = random_state_grid(512, 256, ensemble)
    tracemalloc.start()
    try:
        wf.polarization_map(grid, wf.TRANSMITTED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 33 * 512 * 256 + 256 * wf._TILE_POINTS


def test_nonfinite_flags_any_entry():
    """A point is flagged when any entry of a named field is NaN or
    infinite, in its real or imaginary part."""
    res = {"R": np.zeros((2, 3)), "psi0": np.ones((2, 3, 2), complex),
           "rho0": np.ones((2, 3, 2, 2), complex)}
    res["psi0"][0, 1, 1] = complex(0.0, np.inf)
    res["rho0"][1, 2, 1, 0] = complex(np.nan, 0.0)
    assert wf._nonfinite(res, ("psi0",)).tolist() == [[False, True, False],
                                                      [False, False, False]]
    assert wf._nonfinite(res, ("psi0", "rho0")).tolist() == \
        [[False, True, False], [False, False, True]]


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


def test_rectangle_loop_rejects_negative_margin():
    with pytest.raises(wf.WaveGridError, match="negative"):
        wf.rectangle_loop((11, 11), -3)


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
        assert np.allclose(coh.spin_field(beam, "interference"),
                           raw.spin_field(beam, "interference"), rtol=1e-8,
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


@pytest.fixture(scope="module")
def laue_2mm_pure_and_ensemble(quartz, u0_along_beam):
    """grid_scan and zero-spread coherence_scan of 2 mm Laue
    backscattering over a 129^2 grid of +-0.3 deg."""
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.LAUE)
    geom = dp.make_geometry(quartz, (1, 1, 0), lam, dp.LAUE, 2e7)
    ax = np.linspace(-np.deg2rad(0.3), np.deg2rad(0.3), 129)
    return (wf.grid_scan(geom, quartz, u0_along_beam, ax, ax),
            wf.coherence_scan(geom, quartz, u0_along_beam, ax, ax, span_A=1e-9))


def test_ensemble_non_flipped_field_finite(laue_2mm_pure_and_ensemble):
    """A near-zero span leaves the closed-form Laue ensemble slightly
    negative (about -1e-3) on the nudged grazing row of a 129^2 grid; the
    non-flipped field floors it at zero instead of taking sqrt of it."""
    _, coh = laue_2mm_pure_and_ensemble
    assert coh.component_intensity(wf.TRANSMITTED, flipped=False).min() < 0
    assert np.isfinite(coh.spin_field(wf.TRANSMITTED, "non-flipped")).all()
    d, lz, _ = oam.analyse_grid(coh, wf.TRANSMITTED, "non-flipped")
    assert np.isfinite(d.p).all() and np.isfinite(lz)


def test_flipped_field_same_for_pure_and_ensemble(laue_2mm_pure_and_ensemble):
    """The flipped and non-flipped OAM fields are referenced to the
    non-flipped phase on both kinds of grid, so a pure grid and its
    zero-spread ensemble give the same mean l."""
    for beam in (wf.TRANSMITTED, wf.REFLECTED):
        for what in ("flipped", "non-flipped"):
            means = [oam.analyse_grid(grid, beam, what,
                                      physical_only=True)[0].mean
                     for grid in laue_2mm_pure_and_ensemble]
            assert abs(means[0] - means[1]) <= 1e-6, (beam, what, means)


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
# CSV export
# ---------------------------------------------------------------------------

def per_row_csv(columns, precision, header_lines):
    """The CSV text formatted one value at a time, row by row."""
    fmt = f"%.{precision}g"
    arrays = [np.asarray(col).reshape(-1) for col in columns.values()]
    text = "".join(f"# {line}\n" for line in header_lines)
    text += ",".join(columns) + "\n"
    for row in zip(*arrays):
        text += ",".join(fmt % v for v in row) + "\n"
    return text


def csv_columns(n_rows):
    rng = np.random.default_rng(7)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-310,
                        1.7976931348623157e308, 1 / 3, -1e-300])
    mixed = rng.normal(scale=1e3, size=n_rows)
    mixed[:special.size] = special
    return {
        "float": mixed,
        "tiny": rng.normal(size=n_rows) * 1e-310,      # subnormals
        "int": rng.integers(-2**62, 2**62, size=n_rows),
        "bool": rng.random(n_rows) < 0.5,
        "f32": rng.normal(size=n_rows).astype(np.float32),
    }


def csv_grid_columns(n_t, n_r):
    """A grid as the CLI writes it: theta (n_t, 1), rho (1, n_r) and full
    (n_t, n_r) fields, all holding NaN, +-inf, -0.0 and subnormals; one
    field comes first, so the axes' cells sit between full ones, and a
    second per-theta column and a scalar follow."""
    rng = np.random.default_rng(11)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                        -2.2e-310, 1 / 3])

    def spiked(a):
        a.reshape(-1)[:special.size] = special[:a.size]
        return a

    return {"P": spiked(rng.normal(scale=1e3, size=(n_t, n_r))),
            "theta_rad": spiked(np.linspace(-1e-3, 1e-3, n_t))[:, None],
            "rho_rad": spiked(np.linspace(-2e-3, 2e-3, n_r))[None, :],
            "tiny": spiked(rng.normal(size=(n_t, n_r)) * 1e-310),
            "count": rng.integers(-50, 50, size=(n_t, n_r)),
            "theta_index": np.arange(n_t)[:, None],
            "scale": np.float64(2.5)}


@pytest.mark.parametrize("precision", [1, 9, 17])
@pytest.mark.parametrize("chunk", [7, None])
def test_write_csv_bytes_equal_per_row_formatting(tmp_path, monkeypatch,
                                                  precision, chunk):
    """1-D columns, and grids whose axes broadcast against full fields,
    print exactly as formatting each value of the broadcast columns,
    flattened in C order, one at a time."""
    if chunk is not None:
        monkeypatch.setattr(wf, "_CSV_CHUNK_ROWS", chunk)
    c = wf._CSV_CHUNK_ROWS
    n_rows = 2 * c + 5                        # last chunk partial
    header = ("demo", "config_hash 0123")
    cases = {"all": csv_columns(n_rows),
             "int-bool": {k: v for k, v in csv_columns(n_rows).items()
                          if k in ("int", "bool")},
             "bool": {"bool": csv_columns(n_rows)["bool"]},
             # blocks of c // 3 theta rows, the last one partial
             "grid": csv_grid_columns(2 * (c // 3) + 1, 3),
             "wide-rows": csv_grid_columns(3, c + 3),   # rows longer than c
             "one-theta": csv_grid_columns(1, c + 5),
             "one-rho": csv_grid_columns(2 * c + 5, 1)}
    for name, columns in cases.items():
        path = wf.write_csv(tmp_path / f"{name}.csv", columns, precision, header)
        flat = dict(zip(columns, np.broadcast_arrays(*columns.values())))
        assert path.read_bytes() == \
            per_row_csv(flat, precision, header).encode(), name


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(wf.WaveGridError, match="equal sizes"):
        wf.write_csv(tmp_path / "bad.csv", {"a": np.zeros(3), "b": np.zeros(4)})
    with pytest.raises(wf.WaveGridError, match="equal sizes"):
        wf.write_csv(tmp_path / "bad.csv",
                     {"a": np.zeros((3, 2)), "b": np.zeros(3)})
