import json

import pytest

from sodiff import __version__, cli


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

def test_unknown_key_rejected_with_pointer():
    bad = MINIMAL.replace("theta_points = 11", "theta_pointz = 11")
    with pytest.raises(cli.ConfigError, match="theta_pointz"):
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


def test_thickness_average_honoured_for_bragg(tmp_path):
    """Bragg coherence maps use the configured ensemble size: N = 2 and
    N = 32 give different maps (Laue's closed form has no N)."""
    block = "[analysis]\nmode = polarization-map\nbeams = transmitted\n"
    text = backscattering_config("bragg", block + "thickness_average = 2\n\n"
                                 + block + "thickness_average = 32\n")
    n2, n32 = run_blocks(tmp_path, text,
                         ["run1_polarization-map_transmitted.csv",
                          "run2_polarization-map_transmitted.csv"])
    assert n2.splitlines()[:4] == n32.splitlines()[:4]
    assert n2 != n32


@pytest.mark.parametrize("mode, artifact", [
    ("polarization", "reflected.csv"),
    ("instrument", "convolved_Py.csv"),
])
def test_thickness_average_honoured_for_curves(tmp_path, mode, artifact):
    """polarization and instrument run on the thickness ensemble when asked:
    N = 2 differs from the pure grid (N = 1)."""
    block = f"[analysis]\nmode = {mode}\nbeams = reflected\n"
    if mode == "instrument":
        block = "[analysis]\nmode = instrument\n"
    text = MINIMAL.replace("[analysis]\nmode = polarization\nbeams = reflected\n",
                           block + "thickness_average = 1\n\n"
                           + block + "thickness_average = 2\n")
    n1, n2 = run_blocks(tmp_path, text, [f"run1_{mode}_{artifact}",
                                         f"run2_{mode}_{artifact}"])
    assert n1.splitlines()[:4] == n2.splitlines()[:4]
    assert n1 != n2


@pytest.mark.parametrize("mode, n_avg", [("phase-map", 2),
                                         ("polarization", 0)])
def test_bad_thickness_average_rejected(tmp_path, capsys, mode, n_avg):
    """A thickness ensemble has no phase; an ensemble needs >= 1 point."""
    text = MINIMAL.replace("mode = polarization",
                           f"mode = {mode}\nthickness_average = {n_avg}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "thickness_average" in err["detail"]


def test_physical_only_honoured_on_pure_grid(tmp_path):
    """A Laue backscattering OAM run on the pure grid zeroes the unreachable
    half-plane only when physical_only is true.  The <L_z> oracle reports
    the coarse 33 x 33 fields as under-resolved."""
    block = "[analysis]\nmode = oam\nbeams = transmitted\n"
    text = backscattering_config("laue", block + "physical_only = true\n\n"
                                 + block + "physical_only = false\n", n=33)
    with pytest.warns(UserWarning, match="under-resolved"):
        on, off = run_blocks(tmp_path, text, ["run1_oam_transmitted.csv",
                                              "run2_oam_transmitted.csv"])
    assert on.splitlines()[:4] == off.splitlines()[:4]
    assert on != off
