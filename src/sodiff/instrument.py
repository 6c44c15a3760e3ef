"""Experiment-facing models: resolution smearing, scan fits, coil tilt.

These are the pieces needed to compare the dynamical-theory curves with
measured rocking scans: a Gaussian resolution convolution for the
monochromator spread, a Gaussian-derivative fit for antisymmetric
polarization signals, weighted linear fits, the tilted-coil divergence
phase model, and a small CSV reader for measured scans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import curve_fit

from .constants import ARCSEC_TO_RAD, CONSTANTS, DEG_TO_RAD


class InstrumentError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gaussian resolution convolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolutionKernel:
    """Gaussian angular resolution of width sigma, truncated at +-k sigma."""

    sigma_rad: float
    truncation: float = 5.0

    def __post_init__(self):
        if self.sigma_rad <= 0:
            raise InstrumentError("kernel sigma must be positive")

    def sample(self, step: float) -> np.ndarray:
        if self.sigma_rad < step:
            raise InstrumentError("kernel under-resolved: sigma < grid step")
        m = int(np.ceil(self.truncation * self.sigma_rad / step))
        x = np.arange(-m, m + 1) * step
        k = np.exp(-0.5 * (x / self.sigma_rad) ** 2)
        return k / k.sum()


def _reflect_pad_convolve(y: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # reflected again as often as needed when the kernel is wider than y
    padded = np.pad(y, kernel.size // 2, mode="reflect")
    return np.convolve(padded, kernel, mode="valid")


def convolve_resolution(abscissa, P, intensity, kernel: ResolutionKernel):
    """Intensity-weighted smearing of a polarization curve.

    Smears P*I and I separately with the normalised kernel (reflective
    padding) and divides, which is what a detector averaging neighbouring
    angles actually measures.  Returns (P_smeared, I_smeared).
    """
    x = np.asarray(abscissa, float)
    P = np.asarray(P, float)
    inten = np.asarray(intensity, float)
    if x.size < 2:
        raise InstrumentError("curve too short")
    step = x[1] - x[0]
    k = kernel.sample(step)
    num = _reflect_pad_convolve(P * inten, k)
    den = _reflect_pad_convolve(inten, k)
    return num / np.maximum(den, 1e-300), den


# ---------------------------------------------------------------------------
# Scan container and I/O
# ---------------------------------------------------------------------------

_UNIT_TO_RAD = {"rad": 1.0, "arcsec": ARCSEC_TO_RAD, "asec": ARCSEC_TO_RAD,
                "deg": DEG_TO_RAD, "degree": DEG_TO_RAD, "mrad": 1e-3}


@dataclass
class MeasuredScan:
    """One measured 1D scan: abscissa (stored in rad), values, uncertainties."""

    x_rad: np.ndarray
    value: np.ndarray
    sigma: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        bad = ~np.isfinite(self.x_rad) | ~np.isfinite(self.value)
        if np.any(bad):
            raise InstrumentError("scan contains non-finite entries")
        if self.sigma is not None and np.any(self.sigma <= 0):
            raise InstrumentError("uncertainties must be positive")


def ingest_scan(path: str | Path) -> MeasuredScan:
    """Read the documented scan CSV: a header line ``abscissa_unit,<unit>``,
    a column header ``x,value[,sigma]``, then numeric rows.  Comment lines
    start with '#'.  Malformed rows are reported with their line number."""
    unit = None
    cols = None
    xs, vs, ss = [], [], []
    path = Path(path)
    lines = path.read_text().splitlines()
    if not any(line.strip() and not line.lstrip().startswith("#")
               for line in lines):
        raise InstrumentError(f"{path}: empty scan file")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if unit is None:
            if parts[0] != "abscissa_unit" or len(parts) != 2:
                raise InstrumentError(
                    f"{path}:{lineno}: expected 'abscissa_unit,<unit>' header")
            if parts[1] not in _UNIT_TO_RAD:
                raise InstrumentError(f"{path}:{lineno}: unknown unit {parts[1]!r}")
            unit = parts[1]
            continue
        if cols is None:
            if parts[:2] != ["x", "value"] or len(parts) not in (2, 3):
                raise InstrumentError(
                    f"{path}:{lineno}: expected column header 'x,value[,sigma]'")
            cols = parts
            continue
        if len(parts) != len(cols):
            raise InstrumentError(f"{path}:{lineno}: expected {len(cols)} cells")
        try:
            xs.append(float(parts[0]))
            vs.append(float(parts[1]))
            if len(cols) == 3:
                ss.append(float(parts[2]))
        except ValueError as exc:
            raise InstrumentError(f"{path}:{lineno}: non-numeric cell ({exc})")
    if cols is None or not xs:
        raise InstrumentError(f"{path}: no data rows")
    scale = _UNIT_TO_RAD[unit]
    sigma = np.asarray(ss) if ss else None
    return MeasuredScan(x_rad=np.asarray(xs) * scale, value=np.asarray(vs),
                        sigma=sigma, meta={"abscissa_unit": unit,
                                           "source": str(path)})


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------

def _gaussian_derivative(x, amp, x0, width, baseline):
    return amp * (x - x0) * np.exp(-((x - x0) ** 2) / (2.0 * width ** 2)) + baseline


@dataclass(frozen=True)
class FitResult:
    names: tuple[str, ...]
    values: tuple[float, ...]
    covariance: np.ndarray
    converged: bool
    residual_rms: float

    def as_dict(self) -> dict:
        return {"parameters": dict(zip(self.names, self.values)),
                "covariance": self.covariance.tolist(),
                "converged": self.converged,
                "residual_rms": self.residual_rms}

    def to_json(self, path):
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")


def fit_gaussian_derivative(scan: MeasuredScan) -> FitResult:
    """Least squares of A (x-x0) exp(-(x-x0)^2/2w^2) + c to a scan.

    The first derivative of a Gaussian is the canonical shape of an
    antisymmetric polarization signal smeared by a Gaussian resolution.
    """
    x, y = scan.x_rad, scan.value
    if x.size < 5:
        raise InstrumentError("need at least 5 points")
    span = x.max() - x.min()
    w0 = span / 6.0
    x0 = float(x[np.argmax(y)] + x[np.argmin(y)]) / 2.0
    a0 = (y.max() - y.min()) / max(span / 3.0, 1e-300) * 0.5
    p0 = [a0 if a0 != 0 else 1.0, x0, w0, float(np.median(y))]
    sigma = scan.sigma
    try:
        popt, pcov = curve_fit(_gaussian_derivative, x, y, p0=p0, sigma=sigma,
                               absolute_sigma=sigma is not None, maxfev=20000)
    except RuntimeError as exc:
        resid = y - _gaussian_derivative(x, *p0)
        raise InstrumentError(
            f"gaussian-derivative fit did not converge (rms residual "
            f"{np.sqrt(np.mean(resid**2)):.3g})") from exc
    popt[2] = abs(popt[2])
    resid = y - _gaussian_derivative(x, *popt)
    return FitResult(names=("amplitude", "center", "width", "baseline"),
                     values=tuple(float(v) for v in popt), covariance=pcov,
                     converged=True,
                     residual_rms=float(np.sqrt(np.mean(resid ** 2))))


def linear_fit(scan: MeasuredScan) -> FitResult:
    """Weighted least-squares line value = slope * x + intercept."""
    x, y = scan.x_rad, scan.value
    w = 1.0 / scan.sigma ** 2 if scan.sigma is not None else np.ones_like(y)
    A = np.stack([x, np.ones_like(x)], axis=1)
    Aw = A * w[:, None]
    cov = np.linalg.inv(A.T @ Aw)
    p = cov @ (Aw.T @ y)
    resid = y - A @ p
    if scan.sigma is None:
        dof = max(x.size - 2, 1)
        cov = cov * float(resid @ resid) / dof
    return FitResult(names=("slope", "intercept"),
                     values=(float(p[0]), float(p[1])), covariance=cov,
                     converged=True,
                     residual_rms=float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# Tilted-coil divergence phase
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoilModel:
    """pi/2 spin-turn coil tilted by theta_c against the beam normal.

    The coil current is calibrated so a neutron at zero divergence gets
    exactly the nominal flip; a divergent neutron sees a different path
    length through the coil (and through the guide-field region, when a
    guide field is present) and picks up a divergence-dependent phase.

    guide_length_m is the extent of guide field the beam traverses; the
    value is an apparatus scale, not given by the coil itself.
    """

    tilt_rad: float
    flip_angle_rad: float = np.pi / 2.0
    guide_field_T: float = 0.0
    coil_length_m: float = 0.01
    guide_length_m: float = 0.6
    wavelength_A: float = 1.8

    @property
    def speed_m_s(self) -> float:
        return CONSTANTS.velocity_m_s(self.wavelength_A)

    @property
    def coil_field_T(self) -> float:
        """Field amplitude implied by the calibration invariant: the full
        precession over the tilted coil path at zero divergence equals the
        nominal flip angle."""
        gamma = CONSTANTS.gamma_n_rad_s_T
        path = self.coil_length_m / np.cos(self.tilt_rad)
        return self.flip_angle_rad * self.speed_m_s / (gamma * path)


def coil_tilt_phase(model: CoilModel, alpha_rad) -> np.ndarray:
    """Divergence-dependent spin phase of the calibrated tilted coil.

    Without a guide field this is the bare path-length formula
    delta-phi = phi_flip [1/cos(theta_c) - 1/cos(theta_c - alpha)].  With a
    guide field the beam also accumulates guide precession over a path
    lengthened by 1/cos(alpha), which is calibrated away at alpha = 0 and
    therefore contributes gamma B_g L_g (sec(alpha) - 1)/v.
    """
    alpha = np.asarray(alpha_rad, float)
    th = model.tilt_rad
    if np.any(np.abs(th) >= np.pi / 2) or np.any(np.abs(th - alpha) >= np.pi / 2):
        raise InstrumentError("coil tilt geometry out of range")
    coil = model.flip_angle_rad * (1.0 / np.cos(th) - 1.0 / np.cos(th - alpha))
    if model.guide_field_T != 0.0:
        gamma = CONSTANTS.gamma_n_rad_s_T
        guide = (gamma * model.guide_field_T * model.guide_length_m
                 / model.speed_m_s) * (1.0 / np.cos(alpha) - 1.0)
        coil = coil + guide
    return coil


def coil_divergence_spread(model: CoilModel, alpha_rad: float) -> float:
    """Calibration-irreducible phase spread over a symmetric +-alpha pair.

    The part of coil_tilt_phase linear in alpha can be removed by
    recalibrating against the mean divergence; the even part cannot.  The
    pair sum delta-phi(alpha) + delta-phi(-alpha) isolates it and is the
    number quoted for the divergence sensitivity of a tilted coil.
    """
    return float(coil_tilt_phase(model, alpha_rad)
                 + coil_tilt_phase(model, -alpha_rad))
