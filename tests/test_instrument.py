import numpy as np
import pytest

from sodiff import instrument as ins
from sodiff.constants import DEG_TO_RAD


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_kernel_normalised():
    k = ins.ResolutionKernel(sigma_rad=10.0)
    samp = k.sample(step=1.0)
    assert abs(samp.sum() - 1.0) < 1e-9
    assert samp.size % 2 == 1


def test_kernel_under_resolved_rejected():
    k = ins.ResolutionKernel(sigma_rad=0.5)
    with pytest.raises(ins.InstrumentError, match="under-resolved"):
        k.sample(step=1.0)
    with pytest.raises(ins.InstrumentError):
        ins.ResolutionKernel(sigma_rad=-1.0)


def test_convolution_near_identity_for_narrow_kernel():
    # kernel width of one grid step on a curve thousands of steps wide
    x = np.linspace(-1.0, 1.0, 8001)
    P = np.tanh(x / 0.5)
    I = np.exp(-x**2 / (2 * 0.8**2))
    k = ins.ResolutionKernel(sigma_rad=x[1] - x[0])
    Ps, _ = ins.convolve_resolution(x, P, I, k)
    err = np.abs(Ps - P)
    assert np.max(err[6:-6]) < 1e-6   # identity away from the padded edges
    assert np.max(err) < 1e-4         # reflective-padding edge effect only


def test_convolution_gaussian_width_addition():
    x = np.linspace(-6, 6, 6001)
    w = 0.5
    I = np.exp(-x**2 / (2 * w**2))
    sigma = 0.4
    k = ins.ResolutionKernel(sigma_rad=sigma, truncation=8.0)
    _, Is = ins.convolve_resolution(x, np.ones_like(x), I, k)
    # fitted width of the smeared intensity
    wfit = np.sqrt(-0.5 * x[100] ** 0 / np.polyfit(x**2, np.log(Is / Is.max()), 1)[0] / 1.0)
    assert abs(wfit - np.hypot(w, sigma)) / np.hypot(w, sigma) < 0.01


def test_convolution_kernel_wider_than_scan():
    """A kernel reaching past both ends of the scan still returns one value
    per scan point; a constant curve stays constant."""
    x = np.linspace(-1.0, 1.0, 11)
    k = ins.ResolutionKernel(sigma_rad=5 * (x[1] - x[0]))
    assert k.sample(x[1] - x[0]).size > 2 * x.size
    Ps, Is = ins.convolve_resolution(x, np.full_like(x, 0.3), np.ones_like(x), k)
    assert Ps.shape == Is.shape == x.shape
    assert np.allclose(Ps, 0.3, rtol=1e-12) and np.allclose(Is, 1.0, rtol=1e-12)


def test_convolution_conserves_intensity():
    x = np.linspace(-5, 5, 2001)
    I = np.exp(-x**2 / 0.5)     # compactly supported to machine precision
    k = ins.ResolutionKernel(sigma_rad=0.05)
    _, Is = ins.convolve_resolution(x, np.zeros_like(x), I, k)
    assert abs(Is.sum() - I.sum()) / I.sum() < 1e-9


# ---------------------------------------------------------------------------
# coil model
# ---------------------------------------------------------------------------

def test_coil_calibration_zero_divergence():
    m = ins.CoilModel(tilt_rad=np.deg2rad(5.0), guide_field_T=1e-3)
    assert ins.coil_tilt_phase(m, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_coil_no_guide_divergence_spread():
    m = ins.CoilModel(tilt_rad=np.deg2rad(5.0))
    spread = abs(ins.coil_divergence_spread(m, DEG_TO_RAD))
    assert abs(spread - 5e-4) / 5e-4 < 0.2


def test_coil_guide_field_divergence_spread():
    m = ins.CoilModel(tilt_rad=np.deg2rad(5.0), guide_field_T=1e-3)
    spread = abs(ins.coil_divergence_spread(m, DEG_TO_RAD))
    assert abs(spread - 1.5e-2) / 1.5e-2 < 0.3


def test_coil_second_order_small_tilt():
    """For small coil tilt the divergence phase is even in alpha: the odd
    part vanishes relative to the total."""
    m = ins.CoilModel(tilt_rad=1e-5)
    a = 0.5 * DEG_TO_RAD
    odd = abs(float(ins.coil_tilt_phase(m, a) - ins.coil_tilt_phase(m, -a)))
    even = abs(float(ins.coil_tilt_phase(m, a) + ins.coil_tilt_phase(m, -a)))
    assert odd < 1e-2 * even


def test_coil_domain_guard():
    m = ins.CoilModel(tilt_rad=np.deg2rad(89.0))
    with pytest.raises(ins.InstrumentError):
        ins.coil_tilt_phase(m, np.deg2rad(-2.0))


def test_coil_field_amplitude_sensible():
    m = ins.CoilModel(tilt_rad=np.deg2rad(5.0))
    assert 1e-4 < m.coil_field_T < 1e-2  # mT scale for a cm coil
