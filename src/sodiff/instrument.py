"""Experiment-facing models: resolution smearing and coil tilt.

These are the pieces needed to set the dynamical-theory curves beside
measured rocking scans: a Gaussian resolution convolution for the
monochromator spread and the tilted-coil divergence phase model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS


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
