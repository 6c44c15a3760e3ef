"""Configuration-driven command line frontend.

A run is described by a single text config with bracketed sections of
``key = value`` lines (grammar in the README).  The tool executes the
declared pipeline and writes figure-ready CSV/JSON artifacts with a
provenance header (config hash, code version, units).  No plotting.

    sodiff run <config> [--out DIR]
    sodiff preset <name> [--out DIR]
    sodiff list-presets

Exit codes: 0 success, 2 config error, 3 physics error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .constants import ARCSEC_TO_RAD, DEG_TO_RAD
from . import crystal as crystal_mod
from . import dispersion as disp
from . import instrument as instr
from . import oam as oam_mod
from . import wavefield as wave

EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing: [section] blocks of key = value, strict keys
# ---------------------------------------------------------------------------

_SCHEMA = {
    "crystal": {"file", "builtin", "schwinger_scale"},
    "geometry": {"kind", "hkl", "wavelength_A", "backscattering",
                 "thickness_mm"},
    "scan": {"theta_points", "theta_half_widths", "theta_half_deg",
             "rho_points", "rho_half_deg", "center"},
    "analysis": {"mode", "beams", "components", "truncation_L",
                 "n_phi", "n_r", "r_max_deg", "physical_only",
                 "ensemble", "loop_margins", "resolution_sigma_factor",
                 "coil_tilt_deg", "guide_field_mT", "alpha_max_deg",
                 "alpha_points", "frame"},
    "output": {"directory", "format", "precision"},
}

@dataclass
class RunConfig:
    crystal: dict
    geometry: dict
    scan: dict
    analyses: list
    output: dict
    text: str = ""

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


def parse_config(text: str) -> RunConfig:
    sections: dict = {}
    analyses: list = []
    current = None
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = {}
            current_name = name
            if name == "analysis":
                analyses.append(current)
            else:
                if name in sections:
                    raise ConfigError(f"line {lineno}: duplicate section [{name}]")
                sections[name] = current
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: content before any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in _SCHEMA[current_name]:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in section [{current_name}]")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value

    for required in ("crystal", "geometry", "scan", "output"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    if not analyses:
        raise ConfigError("config declares no [analysis] section")
    for blk in analyses:
        mode = blk.get("mode")
        if mode not in _ANALYSIS_DISPATCH:
            raise ConfigError(f"analysis mode must be one of "
                              f"{sorted(_ANALYSIS_DISPATCH)}, got {mode!r}")
        _ANALYSIS_DISPATCH[mode][0](blk)
    return RunConfig(crystal=sections["crystal"], geometry=sections["geometry"],
                     scan=sections["scan"], analyses=analyses,
                     output=sections["output"], text=text)


def _get_float(block, key, default=None):
    if key not in block:
        if default is None:
            raise ConfigError(f"missing key {key!r}")
        return default
    try:
        return float(block[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {block[key]!r}")


def _get_finite(block, key, default=None, positive=None):
    """_get_float, checked finite (and positive when positive names it)."""
    v = _get_float(block, key, default)
    if not (0.0 < v < np.inf if positive else abs(v) < np.inf):
        what = f"positive finite {positive}" if positive else "finite number"
        raise ConfigError(f"key {key!r}: expected a {what}, got {block[key]}")
    return v


def _get_int(block, key, default=None):
    v = _get_float(block, key, default)
    if not float(v).is_integer():
        raise ConfigError(f"key {key!r}: expected integer")
    return int(v)


def _get_bool(block, key, default=False):
    raw = block.get(key)
    if raw is None:
        return default
    if raw.lower() in ("true", "yes", "on", "1"):
        return True
    if raw.lower() in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"key {key!r}: expected boolean, got {raw!r}")


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

def _load_crystal(block: dict, config_dir: Path) -> crystal_mod.CrystalModel:
    if ("file" in block) == ("builtin" in block):
        raise ConfigError("[crystal] needs exactly one of 'file' or 'builtin'")
    if "builtin" in block:
        if block["builtin"] != "quartz110":
            raise ConfigError(f"unknown builtin crystal {block['builtin']!r}")
        crys = crystal_mod.reference_quartz()
    else:
        path = Path(block["file"])
        candidates = [path, config_dir / path]
        env = os.environ.get("SODIFF_DATA_PATH")
        if env:
            candidates.append(Path(env) / path)
        for cand in candidates:
            if cand.is_file():
                crys = crystal_mod.load_crystal(cand)
                break
        else:
            raise ConfigError(f"crystal file not found: {path}")
    scale = _get_float(block, "schwinger_scale", 1.0)
    if scale != 1.0:
        import dataclasses
        crys = dataclasses.replace(crys, schwinger_scale=scale)
    return crys


def _build_geometry(block: dict, crys) -> disp.DiffractionGeometry:
    kind = block.get("kind")
    if kind not in (disp.BRAGG, disp.LAUE):
        raise ConfigError(f"[geometry] kind must be bragg or laue, got {kind!r}")
    try:
        hkl = tuple(int(t) for t in block.get("hkl", "").split())
        if len(hkl) != 3:
            raise ValueError
    except ValueError:
        raise ConfigError("[geometry] hkl must be three integers")
    thickness_A = _get_float(block, "thickness_mm") * 1e7
    if not 0.0 <= thickness_A < np.inf:
        raise ConfigError(f"key 'thickness_mm': expected a finite thickness "
                          f">= 0, got {block['thickness_mm']}")
    if _get_bool(block, "backscattering", False):
        lam = disp.backscattering_wavelength(crys, hkl, kind)
    else:
        lam = _get_finite(block, "wavelength_A", None, "wavelength")
    return disp.make_geometry(crys, hkl, lam, kind, thickness_A)


def _build_axes(block: dict, crys, geom):
    n_t = _get_int(block, "theta_points", 256)
    n_r = _get_int(block, "rho_points", 1)
    if n_t < 1 or n_r < 1:
        raise ConfigError("[scan] point counts must be >= 1")
    center = 0.0
    mode = block.get("center", "darwin")
    if mode == "darwin":
        center = disp.darwin_center_theta(crys, geom)
    elif mode != "zero":
        raise ConfigError("[scan] center must be 'darwin' or 'zero'")
    key = "theta_half_deg" if "theta_half_deg" in block else "theta_half_widths"
    half_t = _get_finite(block, key, 5.0, "half-width")
    half_t *= DEG_TO_RAD if key == "theta_half_deg" else disp.darwin_fwhm_rad(
        crys, geom if geom.kind == disp.BRAGG
        else disp.make_geometry(crys, geom.hkl, geom.wavelength_A,
                                disp.BRAGG, geom.thickness_A))
    theta = center + (np.linspace(-half_t, half_t, n_t) if n_t > 1
                      else np.array([0.0]))
    half_r = _get_float(block, "rho_half_deg", 0.5) * DEG_TO_RAD
    if not (0.0 < half_r < np.inf if n_r > 1 else abs(half_r) < np.inf):
        raise ConfigError(f"key 'rho_half_deg': expected a finite "
                          f"half-width, > 0 when rho_points > 1, got "
                          f"{block['rho_half_deg']}")
    rho = np.linspace(-half_r, half_r, n_r) if n_r > 1 else np.array([0.0])
    return theta, rho, center


def _parse_list(block, key, allowed, default):
    raw = block.get(key)
    if raw is None:
        return list(default)
    items = raw.split()
    for item in items:
        if item not in allowed:
            raise ConfigError(f"key {key!r}: unknown entry {item!r}")
    return items


class _Writer:
    """Atomic artifact writer with a provenance header."""

    def __init__(self, directory: Path, cfg: RunConfig, precision: int):
        self.dir = directory
        self.provenance = {
            "version": __version__, "config_hash": cfg.config_hash,
            "units": "angles rad unless suffixed, energies meV, lengths A"}
        self.header = (f"sodiff {__version__}",
                       f"config_hash {cfg.config_hash}",
                       f"units: {self.provenance['units']}")
        self.precision = precision
        self.written: list[str] = []

    def csv(self, name: str, columns: dict):
        path = wave.write_csv(self.dir / name, columns, self.precision,
                              self.header)
        self.written.append(name)
        return path

    def json(self, name: str, payload: dict):
        path = self.dir / name
        tmp = path.with_suffix(path.suffix + ".tmp")
        doc = {"provenance": self.provenance, **payload}
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        self.written.append(name)
        return path


# _ANALYSIS_DISPATCH maps each mode to (settings, analysis): settings checks
# a block's values and returns them parsed for the analysis.  parse_config
# calls it for every block, so a bad value fails before any scan or artifact.

_BEAMS = (wave.REFLECTED, wave.TRANSMITTED)
_COMPONENTS = ("flipped", "non-flipped")


def _beam_settings(blk, beams=_BEAMS) -> dict:
    """beams (default: beams) and ensemble of a block that reads the exit
    grid."""
    return {"beams": _parse_list(blk, "beams", _BEAMS, beams),
            "ensemble": _get_bool(blk, "ensemble")}


def _analysis_polarization(s, ctx, writer, tag):
    grid = ctx["grid"](s["ensemble"])
    summary = {}
    for beam in s["beams"]:
        curve = wave.polarization_curve(grid, beam, "theta")
        name = f"{tag}_{beam}.csv"
        writer.csv(name, {
            "theta_rad": curve.abscissa,
            "theta_asec": (curve.abscissa - ctx["center"]) / ARCSEC_TO_RAD,
            "Px": curve.Px, "Py": curve.Py, "Pz": curve.Pz,
            "weight": curve.weight})
        summary[beam] = {"max_abs_Py": float(np.nanmax(np.abs(curve.Py)))}
    return summary


def _analysis_polarization_map(s, ctx, writer, tag):
    grid = ctx["grid"](s["ensemble"])
    summary = {}
    for beam in s["beams"]:
        pm = wave.polarization_map(grid, beam)
        name = f"{tag}_{beam}.csv"
        writer.csv(name, {"theta_rad": grid.theta[:, None],
                          "rho_rad": grid.rho[None, :],
                          "Px": pm["Px"], "Py": pm["Py"], "Pz": pm["Pz"],
                          "intensity": pm["intensity"]})
        summary[beam] = {"max_abs_Pz": float(np.nanmax(np.abs(pm["Pz"])))}
    return summary


def _oam_settings(blk) -> dict:
    """beams, components, ensemble, physical_only and the polar settings
    of analyse_grid (L, n_phi, n_r, r_max in rad or None) of an oam or
    interference block."""
    L = _get_int(blk, "truncation_L", 32)
    n_phi = _get_int(blk, "n_phi", 256)
    n_r = _get_int(blk, "n_r", 128)
    # the <L_z> oracle's half-resolution check needs every second
    # azimuth to span the circle evenly
    if n_phi % 2:
        raise ConfigError(f"key 'n_phi': expected an even number, got "
                          f"{blk['n_phi']}")
    # one radial node has no trapezoid weight, so no intensity
    if n_r < 2:
        raise ConfigError(f"key 'n_r': expected at least 2, got {n_r}")
    if not 0 <= L <= n_phi // 2 - 1:
        raise ConfigError(f"key 'truncation_L': expected 0 to n_phi/2 - 1 "
                          f"= {n_phi // 2 - 1} (below Nyquist), got {L}")
    r_max = (_get_float(blk, "r_max_deg") * DEG_TO_RAD
             if "r_max_deg" in blk else None)
    if r_max is not None and not 0.0 < r_max < np.inf:
        raise ConfigError(f"key 'r_max_deg': expected a positive finite "
                          f"angle, got {blk['r_max_deg']}")
    return {**_beam_settings(blk, (wave.TRANSMITTED,)),
            "components": _parse_list(blk, "components", _COMPONENTS,
                                      _COMPONENTS),
            "physical_only": _get_bool(blk, "physical_only", True),
            "polar": {"L": L, "n_phi": n_phi, "n_r": n_r, "r_max": r_max}}


def _analysis_oam(s, ctx, writer, tag, interference: bool):
    grid = ctx["grid"](s["ensemble"])
    summary = {}
    for beam in s["beams"]:
        cols = {}
        stats = {}
        for what in (["interference"] if interference else s["components"]):
            dist, lz, coverage = oam_mod.analyse_grid(
                grid, beam, what, center=(ctx["center"], 0.0),
                physical_only=s["physical_only"], **s["polar"])
            cols["ell"] = dist.ells
            cols[f"p_{what.replace('-', '_')}"] = dist.p
            stats[what] = {"mean": dist.mean, "residual": dist.residual,
                           "oracle_Lz": lz, "coverage": coverage}
        writer.csv(f"{tag}_{beam}.csv", cols)
        summary[beam] = stats
    return summary


def _phase_map_settings(blk) -> dict:
    """beams, ensemble (false), components, loop_margins and frame of a
    phase-map block."""
    settings = _beam_settings(blk)
    if settings["ensemble"]:
        raise ConfigError("phase-map needs ensemble = false: a thickness "
                          "ensemble has no phase")
    margins = [_get_int({"loop_margins": tok}, "loop_margins")
               for tok in blk.get("loop_margins", "20 60 100").split()]
    if any(m < 0 for m in margins):
        raise ConfigError("key 'loop_margins': expected margins >= 0")
    frame = blk.get("frame", "beam")
    if frame not in ("beam", "lab"):
        raise ConfigError(f"key 'frame': expected beam or lab, got {frame!r}")
    return {**settings, "components": _parse_list(blk, "components",
                                                  _COMPONENTS, _COMPONENTS),
            "loop_margins": margins, "frame": frame}


def _analysis_phase_map(s, ctx, writer, tag):
    grid = ctx["grid"](s["ensemble"])
    summary = {}
    for beam in s["beams"]:
        for comp in s["components"]:
            pm = wave.phase_map(grid, comp, beam, frame=s["frame"])
            writer.csv(f"{tag}_{beam}_{comp}.csv",
                       {"theta_rad": grid.theta[:, None],
                        "rho_rad": pm["rho"][None, :],
                        "phase_rad": pm["phase"]})
            winds = []
            for m in s["loop_margins"]:
                loop = wave.rectangle_loop(pm["phase"].shape, m)
                winds.append(wave.winding_number(pm["phase"], loop, pm["mask"]))
            summary[f"{beam}/{comp}"] = {"windings": winds,
                                         "mirrored": bool(pm["mirrored"])}
    return summary


def _instrument_settings(blk) -> dict:
    """resolution_sigma_factor and ensemble of an instrument block."""
    return {"factor": _get_finite(blk, "resolution_sigma_factor", 5.0,
                                  "factor"),
            "ensemble": _get_bool(blk, "ensemble")}


def _analysis_instrument(s, ctx, writer, tag):
    grid = ctx["grid"](s["ensemble"])
    curve = wave.polarization_curve(grid, wave.REFLECTED, "theta")
    fwhm = disp.darwin_fwhm_rad(ctx["crystal"], ctx["geometry"])
    sigma = s["factor"] * fwhm
    kernel = instr.ResolutionKernel(sigma_rad=sigma)
    smeared, inten = instr.convolve_resolution(curve.abscissa, curve.Py,
                                               curve.weight, kernel)
    writer.csv(f"{tag}_convolved_Py.csv", {
        "theta_asec": (curve.abscissa - ctx["center"]) / ARCSEC_TO_RAD,
        "Py_theory": curve.Py, "Py_convolved": smeared,
        "intensity": curve.weight, "intensity_convolved": inten})
    return {"sigma_rad": sigma, "sigma_asec": sigma / ARCSEC_TO_RAD,
            "darwin_fwhm_asec": fwhm / ARCSEC_TO_RAD}


def _coil_settings(blk) -> tuple:
    """(tilt in rad, guide field in mT of either sign, alpha_max in rad,
    alpha_points) of a coil-model block."""
    npts = _get_int(blk, "alpha_points", 401)
    if npts < 1:
        raise ConfigError(f"key 'alpha_points': expected at least 1, got {npts}")
    return (_get_finite(blk, "coil_tilt_deg", 5.0) * DEG_TO_RAD,
            _get_finite(blk, "guide_field_mT", 1.0),
            _get_finite(blk, "alpha_max_deg", 2.0, "angle") * DEG_TO_RAD, npts)


def _analysis_coil(s, ctx, writer, tag):
    tilt, guide_mT, amax, npts = s
    alpha = np.linspace(-amax, amax, npts)
    m0 = instr.CoilModel(tilt_rad=tilt)
    mg = instr.CoilModel(tilt_rad=tilt, guide_field_T=guide_mT * 1e-3)
    writer.csv(f"{tag}_coil_phase.csv", {
        "alpha_deg": alpha / DEG_TO_RAD,
        "dphi_no_guide_rad": instr.coil_tilt_phase(m0, alpha),
        "dphi_guide_rad": instr.coil_tilt_phase(mg, alpha)})
    probe = DEG_TO_RAD
    metrics = {
        "pair_sum_no_guide_rad": instr.coil_divergence_spread(m0, probe),
        "pair_sum_guide_rad": instr.coil_divergence_spread(mg, probe),
        "coil_field_T": mg.coil_field_T,
    }
    writer.json(f"{tag}_coil_metrics.json", {"metrics": metrics})
    return metrics


_ANALYSIS_DISPATCH = {
    "polarization": (_beam_settings, _analysis_polarization),
    "polarization-map": (lambda blk: _beam_settings(blk, (wave.TRANSMITTED,)),
                         _analysis_polarization_map),
    "oam": (_oam_settings,
            lambda s, ctx, w, t: _analysis_oam(s, ctx, w, t, False)),
    "interference": (_oam_settings,
                     lambda s, ctx, w, t: _analysis_oam(s, ctx, w, t, True)),
    "phase-map": (_phase_map_settings, _analysis_phase_map),
    "instrument": (_instrument_settings, _analysis_instrument),
    "coil-model": (_coil_settings, _analysis_coil),
}


def run_config(cfg: RunConfig, out_dir: Path, config_dir: Path) -> int:
    precision = _get_int(cfg.output, "precision", 9)
    if precision < 1:
        raise ConfigError("key 'precision': expected >= 1")
    fmt = cfg.output.get("format", "csv")
    if fmt not in ("csv", "binary"):
        raise ConfigError(f"[output] format must be csv or binary, got {fmt!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(out_dir, cfg, precision)

    crys = _load_crystal(cfg.crystal, config_dir)
    geom = _build_geometry(cfg.geometry, crys)
    theta, rho, center = _build_axes(cfg.scan, crys, geom)
    u0 = np.array([1.0, 1.0]) / np.sqrt(2.0)  # spin along the beam

    cache: dict = {}
    build_s: list = []  # the lazy grid builds of the current analysis

    def grid(ensemble):
        if ensemble not in cache:
            scan = wave.coherence_scan if ensemble else wave.grid_scan
            t0 = time.perf_counter()
            cache[ensemble] = scan(geom, crys, u0, theta, rho)
            build_s.append(time.perf_counter() - t0)
        return cache[ensemble]

    ctx = {"crystal": crys, "geometry": geom, "center": center, "grid": grid}

    for i, blk in enumerate(cfg.analyses, start=1):
        mode = blk["mode"]
        tag = f"run{i}_{mode}"
        build_s.clear()
        t0 = time.perf_counter()
        settings, analysis = _ANALYSIS_DISPATCH[mode]
        summary = analysis(settings(blk), ctx, writer, tag)
        dt = time.perf_counter() - t0 - sum(build_s)
        build = f"  build {sum(build_s):.2f}s" if build_s else ""
        keys = _summary_scalars(summary)
        print(f"[{tag}] grid {theta.size}x{rho.size}{build}  wall {dt:.2f}s  "
              f"{keys}")
    if fmt == "binary":
        path = out_dir / "wavegrid.npz"
        np.savez(path, **_grid_dump(cache, theta, rho, geom, u0))
        writer.written.append(path.name)
    manifest = {"artifacts": writer.written,
                "geometry": {"kind": geom.kind, "hkl": list(geom.hkl or ()),
                             "wavelength_A": geom.wavelength_A,
                             "thickness_A": geom.thickness_A}}
    writer.json("manifest.json", manifest)
    return 0


def _grid_dump(grids: dict, theta, rho, geom, u0) -> dict:
    """The arrays of wavegrid.npz: the scanned axes (as nudged off grazing
    incidence, when a grid was built), the geometry and incident spinor,
    and the fields of the grids the run built: psi0, psiH, R, T of the
    pure grid, rho0, rhoH, R_ensemble, T_ensemble of the ensemble, and
    their common physical mask."""
    out = {"theta": theta, "rho": rho, "k0": geom.k0, "H": geom.H,
           "n": geom.n, "kind": geom.kind, "thickness_A": geom.thickness_A,
           "hkl": geom.hkl or (), "u0": u0}
    for ensemble, g in grids.items():
        tail = "_ensemble" if ensemble else ""
        fields = ("rho0", "rhoH") if ensemble else ("psi0", "psiH")
        out.update({name: getattr(g, name) for name in fields},
                   theta=g.theta, physical=g.physical,
                   **{"R" + tail: g.R, "T" + tail: g.T})
    return out


def _summary_scalars(summary: dict, prefix: str = "") -> str:
    parts = []
    for key, val in summary.items():
        if isinstance(val, dict):
            parts.append(_summary_scalars(val, prefix=f"{prefix}{key}."))
        elif isinstance(val, float):
            parts.append(f"{prefix}{key}={val:.4g}")
        else:
            parts.append(f"{prefix}{key}={val}")
    return " ".join(p for p in parts if p)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def list_presets() -> list[str]:
    root = importlib.resources.files("sodiff").joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def preset_text(name: str) -> str:
    ref = importlib.resources.files("sodiff").joinpath(f"presets/{name}.cfg")
    try:
        return ref.read_text()
    except FileNotFoundError:
        raise ConfigError(f"unknown preset {name!r}; try list-presets")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _JsonLogFormatter(logging.Formatter):
    """A log record as one JSON line: level, source logger and message."""

    def format(self, record):
        return json.dumps({"log": record.levelname.lower(),
                           "source": record.name,
                           "detail": record.getMessage()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sodiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("config")
    p_pre = sub.add_parser("preset", help="run a shipped preset")
    p_pre.add_argument("name")
    sub.add_parser("list-presets", help="list shipped presets")
    for p in (p_run, p_pre):
        p.add_argument("--out", default=None,
                       help="output directory (default: the config's "
                            "[output] directory)")
    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name in list_presets():
            print(name)
        return 0

    # log records (the scans' warnings) reach stderr as JSON lines, like
    # the error lines below
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLogFormatter())
    logger = logging.getLogger("sodiff")
    logger.addHandler(handler)
    try:
        if args.command == "run":
            path = Path(args.config)
            try:
                text = path.read_text()
            except OSError as exc:
                print(json.dumps({"error": "io", "detail": str(exc)}),
                      file=sys.stderr)
                return EXIT_IO
            config_dir = path.parent
        else:
            text = preset_text(args.name)
            config_dir = Path.cwd()
        cfg = parse_config(text)
        out = args.out if args.out is not None else cfg.output.get("directory", ".")
        return run_config(cfg, Path(out), config_dir)
    except (ConfigError, crystal_mod.CrystalError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except (disp.DispersionError, wave.WaveGridError, oam_mod.OamError,
            instr.InstrumentError) as exc:
        print(json.dumps({"error": "physics", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(json.dumps({"error": "io", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_IO
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
