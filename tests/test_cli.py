import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sodiff
from sodiff import __version__, cli
from sodiff import crystal as cr
from sodiff import dispersion as dp
from sodiff import wavefield as wf


MINIMAL = """
[crystal]
builtin = quartz110

[geometry]
kind = bragg
hkl = 1 1 0
wavelength_A = 2.0
thickness_mm = 0.05

[scan]
theta_points = 11
theta_half_widths = 2
rho_points = 1

[analysis]
mode = polarization
beams = reflected

[output]
directory = .
precision = 9
"""


def run_cli(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("old, new, key", [
    ("theta_points = 11", "theta_pointz = 11", "theta_pointz"),
    ("beams = reflected", "beams = reflected\naxis = rho", "axis"),
    ("kind = bragg", "kind = bragg\nframe = axis", "frame"),
], ids=["theta_pointz", "analysis-axis", "geometry-frame"])
def test_unknown_key_rejected_with_pointer(old, new, key):
    bad = MINIMAL.replace(old, new)
    with pytest.raises(cli.ConfigError, match=f"unknown key '{key}'"):
        cli.parse_config(bad)


def test_unknown_section_rejected():
    with pytest.raises(cli.ConfigError, match="plotting"):
        cli.parse_config(MINIMAL + "\n[plotting]\nstyle = fancy\n")


def test_duplicate_key_rejected():
    bad = MINIMAL.replace("theta_points = 11",
                          "theta_points = 11\ntheta_points = 12")
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(bad)


def test_missing_analysis_rejected():
    bad = "\n".join(line for line in MINIMAL.splitlines()
                    if "analysis" not in line and "mode" not in line
                    and "beams" not in line)
    with pytest.raises(cli.ConfigError, match="analysis"):
        cli.parse_config(bad)


def test_bad_mode_rejected():
    bad = MINIMAL.replace("mode = polarization", "mode = painting")
    with pytest.raises(cli.ConfigError, match="painting"):
        cli.parse_config(bad)


def test_empty_theta_range_exit_code(tmp_path, capsys):
    bad = MINIMAL.replace("theta_half_widths = 2", "theta_half_widths = 0")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bad)
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "theta" in err["detail"]


@pytest.mark.parametrize("old, new, key", [
    ("precision = 9", "precision = nine", "precision"),
    ("theta_points = 11", "theta_points = inf", "theta_points"),
    ("mode = polarization", "mode = phase-map\nloop_margins = 20 6x",
     "loop_margins"),
    ("precision = 9", "precision = 9\nformat = binray", "format"),
    ("rho_points = 1\n\n[analysis]\nmode = polarization",
     "rho_points = 11\n\n[analysis]\nmode = phase-map\nloop_margins = -3",
     "loop_margins"),
], ids=["precision", "theta_points-inf", "loop_margins", "format",
        "loop_margins-negative"])
def test_unparsable_value_exits_config(tmp_path, capsys, old, new, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL.replace(old, new))
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert key in err["detail"]


def test_log_warning_reaches_stderr_as_json(tmp_path, capsys, monkeypatch):
    """A warning the scans log during a run is one JSON line on stderr,
    like the error lines; the handler is gone once main returns."""
    def warn_and_succeed(cfg, out_dir, config_dir):
        logging.getLogger("sodiff.wavefield").warning(
            "grid_scan: %d singular points retried with a nudged theta, "
            "%d remain NaN", 3, 1)
        return 0

    monkeypatch.setattr(cli, "run_config", warn_and_succeed)
    handlers = list(logging.getLogger("sodiff").handlers)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [{
        "log": "warning", "source": "sodiff.wavefield",
        "detail": "grid_scan: 3 singular points retried with a nudged "
                  "theta, 1 remain NaN"}]
    assert logging.getLogger("sodiff").handlers == handlers


def test_missing_config_file_io_exit(tmp_path, capsys):
    code = run_cli(["run", str(tmp_path / "nope.cfg")])
    assert code == cli.EXIT_IO


def test_physics_error_exit(tmp_path, capsys):
    bad = MINIMAL.replace("wavelength_A = 2.0", "wavelength_A = 5.2")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bad)
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_PHYSICS
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "physics"


# ---------------------------------------------------------------------------
# runs and artifacts
# ---------------------------------------------------------------------------

def test_run_writes_artifacts_with_provenance(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
    csv = out / "run1_polarization_reflected.csv"
    lines = csv.read_text().splitlines()
    config_hash = cli.parse_config(MINIMAL).config_hash
    units = "angles rad unless suffixed, energies meV, lengths A"
    assert lines[:3] == [f"# sodiff {__version__}",
                         f"# config_hash {config_hash}", f"# units: {units}"]
    assert lines[3].split(",")[0] == "theta_rad"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "run1_polarization_reflected.csv" in manifest["artifacts"]
    assert manifest["provenance"] == {"version": __version__,
                                      "config_hash": config_hash,
                                      "units": units}


def test_run_twice_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["run", str(cfg), "--out", str(out2)]) == 0
    for name in ("run1_polarization_reflected.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def binary_dump(tmp_path, text):
    """Run text with format = binary; return wavegrid.npz's arrays and the
    geometry and axes it records, as scan arguments."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("precision = 9", "format = binary\nprecision = 9"))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
    assert "wavegrid.npz" in json.loads(
        (out / "manifest.json").read_text())["artifacts"]
    with np.load(out / "wavegrid.npz") as npz:
        dump = dict(npz)
    geom = dp.DiffractionGeometry(
        k0=dump["k0"], H=dump["H"], n=dump["n"], kind=dump["kind"],
        thickness_A=dump["thickness_A"], hkl=dump["hkl"])
    return dump, (geom, cr.reference_quartz(), dump["u0"], dump["theta"],
                  dump["rho"])


def test_binary_grid_written_without_pure_grid_analysis(tmp_path,
                                                        monkeypatch):
    """format = binary dumps the grids the analyses built: a config whose
    analyses all use the ensemble runs coherence_scan once and no
    grid_scan, and the dump holds that grid with its full axes."""
    def no_scan(*args, **kwargs):
        raise AssertionError("grid_scan ran for the dump")

    monkeypatch.setattr(wf, "grid_scan", no_scan)
    scans = []
    coherence_scan = wf.coherence_scan

    def counted(*args, **kwargs):
        scans.append(args)
        return coherence_scan(*args, **kwargs)

    monkeypatch.setattr(wf, "coherence_scan", counted)
    dump, args = binary_dump(tmp_path, MINIMAL.replace(
        "beams = reflected", "beams = reflected\nensemble = true"))
    assert len(scans) == 1
    assert {"psi0", "psiH", "R", "T"}.isdisjoint(dump)
    assert dump["theta"].shape == (11,) and dump["rho"].shape == (1,)
    grid = coherence_scan(*args)
    for name in ("rho0", "rhoH", "physical"):
        assert np.array_equal(dump[name], getattr(grid, name)), name
    assert np.array_equal(dump["R_ensemble"], grid.R)
    assert np.array_equal(dump["T_ensemble"], grid.T)


def test_binary_dump_holds_the_built_grids(tmp_path):
    """A run with a pure and an ensemble analysis dumps both grids, bit for
    bit, with the geometry, incident spinor and full axes to rebuild them:
    here a 9 x 9 Bragg backscattering grid (a folded scan)."""
    dump, args = binary_dump(tmp_path, backscattering_config(
        "bragg", "[analysis]\nmode = polarization-map\nbeams = reflected\n\n"
        "[analysis]\nmode = polarization-map\nbeams = transmitted\n"
        "ensemble = true\n"))
    assert np.array_equal(dump["u0"], np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert dump["theta"].shape == dump["rho"].shape == (9,)
    for grid, names in ((wf.grid_scan(*args), ("psi0", "psiH", "R", "T")),
                        (wf.coherence_scan(*args), ("rho0", "rhoH"))):
        for name in names + ("physical",):
            assert np.array_equal(dump[name], getattr(grid, name)), name
    assert np.array_equal(dump["R_ensemble"], wf.coherence_scan(*args).R)


def test_geometry_from_dump_arrays_equals_made(tmp_path):
    """A geometry built straight from wavegrid.npz's arrays (no tuple or
    float conversions) stores the fields make_geometry stores, with the
    same types and bits, hashes like it, and gives the engine's bytes."""
    _, (geom, quartz, u0, theta, rho) = binary_dump(tmp_path, MINIMAL)
    made = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 0.05 * 1e7)
    for field in dataclasses.fields(made):
        a, b = getattr(geom, field.name), getattr(made, field.name)
        assert repr(a) == repr(b), field.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
    assert geom == made and hash(geom) == hash(made)
    assert geom.hkl == (1, 1, 0) and type(geom.hkl[0]) is int
    for th in (theta[3], theta[3:5]):
        ours = dp.exit_amplitude_maps(geom, quartz, u0, th, rho[0])
        theirs = dp.exit_amplitude_maps(made, quartz, u0, th, rho[0])
        for key in ours:
            assert np.asarray(ours[key]).tobytes() == \
                np.asarray(theirs[key]).tobytes(), key


def test_import_loads_no_scipy():
    """The package needs numpy alone: a fresh import pulls in no scipy."""
    env = dict(os.environ)
    src = str(Path(sodiff.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, sodiff; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_list_presets_sorted_and_complete(capsys):
    assert run_cli(["list-presets"]) == 0
    names = capsys.readouterr().out.split()
    assert names == sorted(names)
    for expected in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8b",
                     "coil-model"):
        assert expected in names


def test_preset_configs_parse():
    for name in cli.list_presets():
        cfg = cli.parse_config(cli.preset_text(name))
        assert cfg.analyses


def test_unknown_preset(capsys, tmp_path):
    code = run_cli(["preset", "fig99", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_preset_coil_model(tmp_path):
    assert run_cli(["preset", "coil-model", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "run1_coil-model_coil_metrics.json").read_text())
    assert abs(doc["metrics"]["pair_sum_no_guide_rad"]) == pytest.approx(
        5e-4, rel=0.2)
    assert abs(doc["metrics"]["pair_sum_guide_rad"]) == pytest.approx(
        1.5e-2, rel=0.3)


def test_crystal_file_resolution_env(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "c.crystal").write_text(
        "material t\nlattice\n 4 0 0\n 0 4 0\n 0 0 4\n"
        "sites\n X 0 0 0 5.0 10\nend\n")
    cfg_text = MINIMAL.replace("builtin = quartz110", "file = c.crystal")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    monkeypatch.setenv("SODIFF_DATA_PATH", str(data_dir))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("site, detail", [
    (" X 0 nan 0 5.0 10", "site X: frac (0.0, nan, 0.0), b_fm 5.0 and form "
     "factor FormFactor(a=(), b=(), c=1.0) must be finite"),
    (" X 0 0 0 nan 10", "site X: frac (0.0, 0.0, 0.0), b_fm nan and form "
     "factor FormFactor(a=(), b=(), c=1.0) must be finite"),
], ids=["frac-nan", "b_fm-nan"])
def test_non_finite_crystal_file_exits_config(tmp_path, capsys, site,
                                              detail):
    """A NaN coordinate or scattering length in a crystal file is a config
    error naming the site, not an all-NaN artifact or a physics error
    about the axes or the thickness."""
    (tmp_path / "c.crystal").write_text(
        f"material t\nlattice\n 4 0 0\n 0 4 0\n 0 0 4\nsites\n{site}\nend\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.replace("builtin = quartz110", "file = c.crystal"))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": detail}
    assert not out.exists() or not any(out.iterdir())


def backscattering_config(kind: str, analyses: str, n: int = 9) -> str:
    """MINIMAL at the backscattering wavelength of a 0.2 mm crystal, on an
    n x n grid of +-0.3 deg about zero, with the given [analysis] blocks."""
    return (MINIMAL.replace("kind = bragg", f"kind = {kind}")
            .replace("wavelength_A = 2.0", "backscattering = true")
            .replace("thickness_mm = 0.05", "thickness_mm = 0.2")
            .replace("theta_points = 11\ntheta_half_widths = 2\nrho_points = 1",
                     f"theta_points = {n}\ntheta_half_deg = 0.3\n"
                     f"rho_points = {n}\nrho_half_deg = 0.3\ncenter = zero")
            .replace("[analysis]\nmode = polarization\nbeams = reflected\n",
                     analyses))


def run_blocks(tmp_path, text, names):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
    return [(out / name).read_text() for name in names]


def test_ensemble_honoured_for_bragg(tmp_path):
    """A Bragg polarization map runs on the thickness ensemble only when
    ensemble = true: the two blocks' maps differ, and an explicit false
    equals the default."""
    block = "[analysis]\nmode = polarization-map\nbeams = transmitted\n"
    text = backscattering_config("bragg", block + "\n" + block
                                 + "ensemble = false\n\n"
                                 + block + "ensemble = true\n")
    default, pure, ens = run_blocks(
        tmp_path, text, [f"run{i}_polarization-map_transmitted.csv"
                         for i in (1, 2, 3)])
    assert default == pure
    assert pure.splitlines()[:4] == ens.splitlines()[:4]
    assert pure != ens


@pytest.mark.parametrize("mode, artifact", [
    ("polarization", "reflected.csv"),
    ("instrument", "convolved_Py.csv"),
])
def test_ensemble_honoured_for_curves(tmp_path, mode, artifact):
    """polarization and instrument run on the thickness ensemble when asked:
    ensemble = true differs from the pure grid (ensemble = false)."""
    block = f"[analysis]\nmode = {mode}\nbeams = reflected\n"
    if mode == "instrument":
        block = "[analysis]\nmode = instrument\n"
    text = MINIMAL.replace("[analysis]\nmode = polarization\nbeams = reflected\n",
                           block + "ensemble = false\n\n"
                           + block + "ensemble = true\n")
    pure, ens = run_blocks(tmp_path, text, [f"run1_{mode}_{artifact}",
                                            f"run2_{mode}_{artifact}"])
    assert pure.splitlines()[:4] == ens.splitlines()[:4]
    assert pure != ens


def run_config_error(tmp_path, capsys, text) -> str:
    """Run a config that must fail with a config error; return its detail."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    return err["detail"]


@pytest.mark.parametrize("mode, n_avg", [("phase-map", 2),
                                         ("polarization", 0),
                                         ("polarization-map", 32)])
def test_bad_thickness_average_rejected(tmp_path, capsys, mode, n_avg):
    """The ensemble has no size: thickness_average is an unknown key."""
    detail = run_config_error(tmp_path, capsys, MINIMAL.replace(
        "mode = polarization", f"mode = {mode}\nthickness_average = {n_avg}"))
    assert "unknown key 'thickness_average'" in detail


@pytest.mark.parametrize("mode, value, message", [
    ("phase-map", "true", "phase-map needs ensemble = false"),
    ("polarization", "32", "expected boolean"),
])
def test_bad_ensemble_rejected(tmp_path, capsys, mode, value, message):
    """A thickness ensemble has no phase; ensemble takes a boolean."""
    detail = run_config_error(tmp_path, capsys, MINIMAL.replace(
        "mode = polarization", f"mode = {mode}\nensemble = {value}"))
    assert message in detail
    assert "ensemble" in detail


def test_physical_only_honoured_on_pure_grid(tmp_path, caplog):
    """A Laue backscattering OAM run on the pure grid zeroes the unreachable
    half-plane only when physical_only is true.  The <L_z> oracle reports
    the coarse 33 x 33 fields as under-resolved."""
    block = "[analysis]\nmode = oam\nbeams = transmitted\n"
    text = backscattering_config("laue", block + "physical_only = true\n\n"
                                 + block + "physical_only = false\n", n=33)
    with caplog.at_level(logging.WARNING, logger="sodiff.oam"):
        on, off = run_blocks(tmp_path, text, ["run1_oam_transmitted.csv",
                                              "run2_oam_transmitted.csv"])
    assert any(r.name == "sodiff.oam" and "under-resolved" in r.getMessage()
               for r in caplog.records)
    assert on.splitlines()[:4] == off.splitlines()[:4]
    assert on != off


def test_oam_summary_reports_coverage(tmp_path, capsys):
    """Each OAM field's summary states its polar coverage: 1 for the default
    disk inscribed in the grid; for a disk of twice the window's half-width,
    the share of polar nodes inside the +-0.3 deg square."""
    block = "[analysis]\nmode = oam\nbeams = transmitted\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(backscattering_config(
        "laue", block + "\n" + block + "r_max_deg = 0.6\n", n=33))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    r = np.linspace(0.0, 0.6, 128)[:, None]
    phi = np.arange(256) * (2 * np.pi / 256)
    square = np.maximum(np.abs(np.cos(phi)), np.abs(np.sin(phi)))
    share = np.mean(r * square <= 0.3)
    assert 0.5 < share < 0.7
    for tag, expected in (("run1_oam", "1"), ("run2_oam", f"{share:.4g}")):
        line = next(x for x in lines if x.startswith(f"[{tag}]"))
        for what in ("flipped", "non-flipped"):
            assert f" transmitted.{what}.coverage={expected}" in line


def test_oam_warning_is_a_json_log_line(tmp_path, capsys):
    """The oracle's under-resolved warning reaches stderr as one JSON log
    line from sodiff.oam, not as a Python warning."""
    block = "[analysis]\nmode = oam\nbeams = transmitted\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(backscattering_config("laue", block, n=33))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().err.strip().splitlines()]
    assert lines
    for line in lines:
        assert set(line) == {"log", "source", "detail"}
        assert (line["log"], line["source"]) == ("warning", "sodiff.oam")
        assert line["detail"].startswith(
            "<L_z> oracle: azimuthal grid under-resolved (delta ")


@pytest.mark.parametrize("axis", ["theta_points", "rho_points"])
def test_oam_one_point_axis_is_physics_error(tmp_path, capsys, axis):
    """An OAM run on a grid with a one-point axis and an explicit r_max
    exits with a JSON physics error, not an IndexError traceback."""
    block = "[analysis]\nmode = oam\nbeams = transmitted\nr_max_deg = 0.2\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(backscattering_config("laue", block).replace(
        f"{axis} = 9", f"{axis} = 1"))
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_PHYSICS
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "physics"
    assert "at least 2 points on each axis" in err["detail"]


@pytest.mark.parametrize("mode", ["oam", "interference"])
def test_odd_n_phi_rejected_before_any_scan(tmp_path, capsys, monkeypatch,
                                            mode):
    """An odd n_phi is a config error, raised before the grid of an
    earlier analysis block is scanned."""
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the config was checked")

    monkeypatch.setattr(wf, "grid_scan", no_scan)
    blocks = ("[analysis]\nmode = polarization\nbeams = reflected\n\n"
              f"[analysis]\nmode = {mode}\nbeams = transmitted\nn_phi = 255\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(backscattering_config("laue", blocks))
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config",
                   "detail": "key 'n_phi': expected an even number, got 255"}


@pytest.mark.parametrize("mode", ["oam", "interference"])
@pytest.mark.parametrize("setting, detail", [
    pytest.param("n_r = 1", "key 'n_r': expected at least 2, got 1",
                 id="n_r-1"),
    pytest.param("truncation_L = 128", "key 'truncation_L': expected 0 to "
                 "n_phi/2 - 1 = 127 (below Nyquist), got 128", id="L-128"),
    pytest.param("truncation_L = -1", "key 'truncation_L': expected 0 to "
                 "n_phi/2 - 1 = 127 (below Nyquist), got -1", id="L-neg"),
    pytest.param("n_phi = 8192\ntruncation_L = 4096", "key 'truncation_L': "
                 "expected 0 to n_phi/2 - 1 = 4095 (below Nyquist), got "
                 "4096", id="L-4096"),
    *(pytest.param(f"r_max_deg = {v}", "key 'r_max_deg': expected a "
                   f"positive finite angle, got {v}", id=f"r_max-{v}")
      for v in ("nan", "inf", "0", "-0.2")),
])
def test_oam_settings_rejected_before_any_scan(tmp_path, capsys, monkeypatch,
                                               mode, setting, detail):
    """One radial node (no trapezoid weight), a truncation at or beyond
    Nyquist and a disk radius that is not positive and finite are config
    errors, raised before the grid of an earlier analysis block is
    scanned."""
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the config was checked")

    monkeypatch.setattr(wf, "grid_scan", no_scan)
    blocks = ("[analysis]\nmode = polarization\nbeams = reflected\n\n"
              f"[analysis]\nmode = {mode}\nbeams = transmitted\n{setting}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(backscattering_config("laue", blocks))
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": detail}


@pytest.mark.parametrize("setting, detail", [
    *(pytest.param(f"thickness_mm = {v}", "key 'thickness_mm': expected a "
                   f"finite thickness >= 0, got {v}", id=f"thickness-{v}")
      for v in ("nan", "inf", "-1")),
    *(pytest.param(f"wavelength_A = {v}", "key 'wavelength_A': expected a "
                   f"positive finite wavelength, got {v}", id=f"wavelength-{v}")
      for v in ("0", "-2", "nan")),
    *(pytest.param(f"schwinger_scale = {v}", "schwinger_scale must be "
                   f"finite, got {v}", id=f"schwinger-{v}")
      for v in ("nan", "inf")),
    *(pytest.param(f"{key} = {v}", f"key '{key}': expected a positive "
                   f"finite half-width, got {v}", id=f"{key}-{v}")
      for key, values in (("theta_half_deg", ("nan", "inf", "0", "-0.1")),
                          ("theta_half_widths", ("nan", "inf")))
      for v in values),
    *(pytest.param(f"rho_points = {n}\nrho_half_deg = {v}", "key "
                   "'rho_half_deg': expected a finite half-width, > 0 when "
                   f"rho_points > 1, got {v}", id=f"rho_half-{n}-{v}")
      for n, values in ((3, ("-0.01", "0", "nan")), (1, ("nan", "-inf")))
      for v in values),
])
def test_impossible_geometry_rejected_before_any_scan(tmp_path, capsys,
                                                      monkeypatch, setting,
                                                      detail):
    """A thickness that is negative or not finite, a wavelength that is
    not positive and finite, a spin-orbit scale that is not finite, and a
    scan half-width that is not finite, or not positive where it is used,
    are config errors (exit 2) raised before any scan: no traceback, no
    NaN fields and no artifacts from a crystal or grid that cannot exist.
    Each line of the setting takes the place of its key's line in
    MINIMAL, or, for a key that MINIMAL lacks, opens its section."""
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the config was checked")

    monkeypatch.setattr(wf, "grid_scan", no_scan)
    text = MINIMAL
    for line in setting.splitlines():
        key = line.split(" = ")[0]
        text, found = re.subn(rf"^{key} = .*$", line, text, flags=re.M)
        if not found:
            (section,) = (name for name, keys in cli._SCHEMA.items()
                          if key in keys)
            text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": detail}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("half", ["0", "-0.01"])
def test_unused_rho_half_width_accepted(quartz, half):
    """One rho point does not use rho_half_deg: a half-width of zero or
    below still gives the single rho = 0."""
    geom = dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 5e5)
    block = {"theta_points": "5", "theta_half_deg": "0.001",
             "center": "zero", "rho_points": "1", "rho_half_deg": half}
    _, rho, _ = cli._build_axes(block, quartz, geom)
    assert rho.tolist() == [0.0]


@pytest.mark.parametrize("mode, setting, detail", [
    *(pytest.param("instrument", f"resolution_sigma_factor = {v}",
                   "key 'resolution_sigma_factor': expected a positive "
                   f"finite factor, got {v}", id=f"sigma_factor-{v}")
      for v in ("nan", "inf", "0", "-1")),
    *(pytest.param("coil-model", f"{key} = {v}", f"key '{key}': expected a "
                   f"finite number, got {v}", id=f"{key}-{v}")
      for key, values in (("coil_tilt_deg", ("nan", "inf")),
                          ("guide_field_mT", ("nan", "inf", "-inf")))
      for v in values),
    *(pytest.param("coil-model", f"alpha_max_deg = {v}", "key "
                   "'alpha_max_deg': expected a positive finite angle, got "
                   f"{v}", id=f"alpha_max-{v}")
      for v in ("-2", "0", "nan", "inf")),
    *(pytest.param("coil-model", f"alpha_points = {v}", "key "
                   f"'alpha_points': expected at least 1, got {v}",
                   id=f"alpha_points-{v}")
      for v in ("-3", "0")),
])
def test_instrument_and_coil_settings_rejected_before_any_scan(
        tmp_path, capsys, monkeypatch, mode, setting, detail):
    """A resolution factor that is not positive and finite, a coil tilt or
    guide field that is not finite, an alpha range that is not positive
    and finite and fewer than one alpha point are config errors (exit 2,
    one JSON line) raised when the config is parsed: before the grid of
    an earlier analysis block is scanned and before any artifact."""
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the config was checked")

    monkeypatch.setattr(wf, "grid_scan", no_scan)
    block = "[analysis]\nmode = polarization\nbeams = reflected\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.replace(
        block, f"{block}\n[analysis]\nmode = {mode}\n{setting}\n"))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "config", "detail": detail}]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mode, setting, detail", [
    pytest.param("phase-map", "frame = sideways",
                 "key 'frame': expected beam or lab, got 'sideways'",
                 id="frame-sideways"),
    pytest.param("phase-map", "ensemble = true", "phase-map needs ensemble "
                 "= false: a thickness ensemble has no phase",
                 id="ensemble-phase-map"),
    pytest.param("phase-map", "loop_margins = 20 -1",
                 "key 'loop_margins': expected margins >= 0",
                 id="loop_margins-negative"),
    pytest.param("phase-map", "loop_margins = 20 x",
                 "key 'loop_margins': not a number: 'x'",
                 id="loop_margins-text"),
    *(pytest.param(mode, "beams = reflected sideways",
                   "key 'beams': unknown entry 'sideways'", id=f"beams-{mode}")
      for mode in ("polarization", "polarization-map", "oam", "interference",
                   "phase-map")),
    *(pytest.param(mode, "components = flipped spun",
                   "key 'components': unknown entry 'spun'",
                   id=f"components-{mode}")
      for mode in ("oam", "phase-map")),
    *(pytest.param(mode, "ensemble = maybe",
                   "key 'ensemble': expected boolean, got 'maybe'",
                   id=f"ensemble-{mode}")
      for mode in ("polarization", "polarization-map", "oam", "interference",
                   "instrument")),
    *(pytest.param(mode, "physical_only = 2",
                   "key 'physical_only': expected boolean, got '2'",
                   id=f"physical_only-{mode}")
      for mode in ("oam", "interference")),
])
def test_analysis_values_rejected_before_any_scan(tmp_path, capsys,
                                                  monkeypatch, mode, setting,
                                                  detail):
    """A bad beam, component, frame, loop margin, ensemble or physical_only
    value in the second [analysis] block is a config error (exit 2, one
    JSON line) raised when the config is parsed: the first block scans no
    grid and writes no CSV, and no manifest.json is written."""
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the config was checked")

    monkeypatch.setattr(wf, "grid_scan", no_scan)
    monkeypatch.setattr(wf, "coherence_scan", no_scan)
    block = "[analysis]\nmode = polarization\nbeams = reflected\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.replace(
        block, f"{block}\n[analysis]\nmode = {mode}\n{setting}\n"))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "config", "detail": detail}]
    assert not out.exists() or not any(out.iterdir())


def test_negative_guide_field_accepted(tmp_path):
    """A guide field of either sign is valid: a reversed field reverses the
    guide precession's part of the phase."""
    metrics = {}
    for field in ("1", "-1"):
        out = tmp_path / field
        cfg = tmp_path / f"{field}.cfg"
        cfg.write_text(MINIMAL.replace(
            "mode = polarization\nbeams = reflected",
            f"mode = coil-model\nguide_field_mT = {field}\nalpha_points = 5"))
        assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
        metrics[field] = json.loads(
            (out / "run1_coil-model_coil_metrics.json").read_text())["metrics"]
    up, down = metrics["1"], metrics["-1"]
    assert down["pair_sum_no_guide_rad"] == up["pair_sum_no_guide_rad"]
    guide = up["pair_sum_guide_rad"] - up["pair_sum_no_guide_rad"]
    assert guide != 0.0
    assert down["pair_sum_guide_rad"] - down["pair_sum_no_guide_rad"] == \
        pytest.approx(-guide, rel=1e-12)


def test_wall_excludes_grid_build(tmp_path, capsys, monkeypatch):
    """The analysis line that triggers the lazy grid build prints the build
    time as its own field, and its wall time leaves the build out; a later
    analysis on the same grid prints no build field."""
    scan = wf.grid_scan

    def slow_scan(*args, **kwargs):
        time.sleep(0.5)
        return scan(*args, **kwargs)

    monkeypatch.setattr(wf, "grid_scan", slow_scan)
    block = "[analysis]\nmode = polarization\nbeams = reflected\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.replace(block, block + "\n" + block))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    pattern = re.compile(r"\[(\S+)\] grid 11x1(?:  build (\d+\.\d\d)s)?"
                         r"  wall (\d+\.\d\d)s  reflected\.max_abs_Py=")
    lines = [pattern.match(line) for line in capsys.readouterr().out.splitlines()]
    assert all(lines) and len(lines) == 2
    (tag1, build1, wall1), (tag2, build2, wall2) = (m.groups() for m in lines)
    assert (tag1, tag2) == ("run1_polarization", "run2_polarization")
    assert float(build1) >= 0.5
    assert float(wall1) < 0.5 and float(wall2) < 0.5
    assert build2 is None
