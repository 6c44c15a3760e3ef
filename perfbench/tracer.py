"""Spans around the calls into sodiff's public functions.

The tracer wraps every public function defined in the layer modules and
installs the wrapper at every module attribute that holds the original, so
calls that go through a re-imported name (``wavefield.exit_amplitude_maps``,
``dispersion.structure_sums``) are caught as well as calls through the
defining module.  Spans are kept in memory and reduced when asked: a span's
self time is its duration minus the durations of its direct children, which
are disjoint because the program is single-threaded at the Python level.

Functions are grouped into layer keys.  The groups name the decisions a
later optimisation is likely to touch; any public function not listed falls
into ``<module>.other`` so that new code is still timed.
"""

from __future__ import annotations

import functools
import inspect
import time
import warnings
from pathlib import Path

LAYER_MODULES = ("crystal", "dispersion", "wavefield", "oam", "instrument", "cli")

_GROUPS = {
    "crystal": {"reference_quartz": "load", "load_crystal": "load",
                "parse_crystal": "load", "structure_sums": "structure_sums"},
    "dispersion": {"exit_amplitude_maps": "exit_amplitude_maps",
                   "exit_coherence_maps": "exit_coherence_maps",
                   "darwin_center_theta": "darwin",
                   "darwin_fwhm_rad": "darwin"},
    "wavefield": {"grid_scan": "grid_scan", "coherence_scan": "coherence_scan",
                  "polarization_curve": "analysis",
                  "polarization_map": "analysis",
                  "coherence_polarization_map": "analysis",
                  "phase_map": "analysis", "rectangle_loop": "analysis",
                  "winding_number": "analysis"},
    "oam": {"to_polar": "resample", "field_from_grid": "resample",
            "interference_field_from_grid": "resample",
            "field_from_coherence": "resample",
            "oam_distribution": "modes", "aft": "modes",
            "oam_expectation": "modes", "interference_distribution": "modes",
            "oracle_Lz": "oracle"},
    "cli": {"run_config": "run_config"},
}


def layer_key(module: str, func: str) -> str:
    if module == "instrument":
        return "instrument"
    return f"{module}.{_GROUPS.get(module, {}).get(func, 'other')}"


def _grid_points(out) -> int:
    return int(out["R"].size) if isinstance(out, dict) and "R" in out else 0


def _result_bytes(out) -> int:
    if not isinstance(out, dict):
        return 0
    return int(sum(getattr(v, "nbytes", 0) for v in out.values()))


def _polar_nodes(out) -> int:
    values = getattr(out, "values", None)
    return int(getattr(values, "size", 0))


def _artifact_bytes(args) -> int:
    out_dir = Path(args[1])
    return int(sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()))


# Counts taken from a call's result (or its arguments) after the span ends.
_COUNTERS = {
    "dispersion.exit_amplitude_maps": (("points", _grid_points),
                                       ("out_bytes", _result_bytes)),
    "dispersion.exit_coherence_maps": (("points", _grid_points),),
    "oam.to_polar": (("nodes", _polar_nodes),),
}


class Tracer:
    """Collects (key, start, end, parent) spans plus per-key counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _count(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn, key: str, qualname: str):
        spans, stack = self.spans, self._stack
        counters = _COUNTERS.get(qualname, ())
        is_oracle = key == "oam.oracle"
        is_run_config = key == "cli.run_config"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [key, time.perf_counter(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            caught = None
            try:
                if is_oracle:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                else:
                    out = fn(*args, **kwargs)
            except Exception:
                span[2] = time.perf_counter()
                stack.pop()
                self._count(f"{key}.failed", 1)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            self._count(f"{key}.calls", 1)
            for name, counter in counters:
                self._count(f"{key}.{name}", counter(out))
            if caught is not None:
                self._count(f"{key}.warnings", len(caught))
            if is_run_config:
                self._count("cli.artifact_bytes", _artifact_bytes(args))
            return out

        return traced

    def install(self, package):
        """Wrap every public function of the layer modules, wherever the
        package holds it."""
        modules = [package] + [getattr(package, m) for m in LAYER_MODULES]
        for mod_name in LAYER_MODULES:
            mod = getattr(package, mod_name)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(fn, layer_key(mod_name, name),
                                     f"{mod_name}.{name}")
                for holder in modules:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, wrapped)

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def reduce_spans(spans) -> tuple[dict[str, float], float]:
    """Self time per key, and the summed duration of top-level spans."""
    child = [0.0] * len(spans)
    for key, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = {}
    top = 0.0
    for i, (key, t0, t1, parent) in enumerate(spans):
        self_s[key] = self_s.get(key, 0.0) + (t1 - t0) - child[i]
        if parent < 0:
            top += t1 - t0
    return self_s, top
