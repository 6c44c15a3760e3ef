import json

import numpy as np
import pytest

from oracles import gaussian_derivative
from sodiff import instrument as ins
from sodiff.constants import ARCSEC_TO_RAD, DEG_TO_RAD


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
# scan ingestion
# ---------------------------------------------------------------------------

def _write(tmp_path, text):
    p = tmp_path / "scan.csv"
    p.write_text(text)
    return p


def test_ingest_minimal(tmp_path):
    p = _write(tmp_path, "abscissa_unit,rad\nx,value\n0.0,1.0\n0.1,2.0\n")
    scan = ins.ingest_scan(p)
    assert scan.x_rad.size == 2 and scan.sigma is None


def test_ingest_arcsec_converted(tmp_path):
    p = _write(tmp_path,
               "# comment\nabscissa_unit,arcsec\nx,value,sigma\n1.0,0.5,0.1\n"
               "2.0,0.6,0.1\n")
    scan = ins.ingest_scan(p)
    assert scan.x_rad[0] == pytest.approx(ARCSEC_TO_RAD, rel=1e-12)
    assert scan.meta["abscissa_unit"] == "arcsec"


def test_ingest_bad_cell_names_row(tmp_path):
    p = _write(tmp_path, "abscissa_unit,deg\nx,value\n0.0,1.0\n0.1,oops\n")
    with pytest.raises(ins.InstrumentError, match=":4"):
        ins.ingest_scan(p)


def test_ingest_missing_header(tmp_path):
    p = _write(tmp_path, "x,value\n0.0,1.0\n")
    with pytest.raises(ins.InstrumentError, match="abscissa_unit"):
        ins.ingest_scan(p)


def test_ingest_empty_file(tmp_path):
    p = _write(tmp_path, "\n# nothing\n")
    with pytest.raises(ins.InstrumentError, match="empty"):
        ins.ingest_scan(p)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def test_gaussian_derivative_noiseless_recovery():
    x = np.linspace(-4e-5, 4e-5, 401)
    truth = (0.9e4, 3e-6, 8e-6, 0.01)
    y = gaussian_derivative(x, *truth)
    fit = ins.fit_gaussian_derivative(ins.MeasuredScan(x, y))
    for got, want in zip(fit.values, truth):
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)
    assert fit.converged
    assert fit.residual_rms < 1e-10


def test_gaussian_derivative_monte_carlo_bias():
    """Parameter bias under 5% noise stays within one reported sigma."""
    rng = np.random.default_rng(42)
    x = np.linspace(-4, 4, 201)
    truth = (1.0, 0.3, 0.9, 0.05)
    clean = gaussian_derivative(x, *truth)
    noise = 0.05 * np.max(np.abs(clean))
    values = []
    covs = []
    for _ in range(100):
        y = clean + rng.normal(scale=noise, size=x.size)
        fit = ins.fit_gaussian_derivative(
            ins.MeasuredScan(x, y, sigma=np.full(x.size, noise)))
        values.append(fit.values)
        covs.append(np.sqrt(np.diag(fit.covariance)))
    bias = np.mean(values, axis=0) - np.array(truth)
    sigma_of_mean = np.mean(covs, axis=0) / np.sqrt(len(values))
    for b, s in zip(bias, sigma_of_mean):
        assert abs(b) < 3.0 * s + 1e-12


def test_gaussian_derivative_flat_data_zero_amplitude():
    rng = np.random.default_rng(1)
    x = np.linspace(-1, 1, 101)
    y = 0.2 + rng.normal(scale=1e-3, size=x.size)
    fit = ins.fit_gaussian_derivative(
        ins.MeasuredScan(x, y, sigma=np.full(x.size, 1e-3)))
    amp = fit.values[0]
    amp_sigma = np.sqrt(fit.covariance[0, 0])
    assert abs(amp) < 3.0 * amp_sigma


def test_gaussian_derivative_needs_points():
    with pytest.raises(ins.InstrumentError):
        ins.fit_gaussian_derivative(ins.MeasuredScan(np.arange(3.0),
                                                     np.arange(3.0)))


def test_fit_residuals_orthogonal_to_jacobian():
    rng = np.random.default_rng(9)
    x = np.linspace(-3, 3, 301)
    y = gaussian_derivative(x, 1.2, 0.1, 0.7, -0.02) \
        + rng.normal(scale=0.01, size=x.size)
    fit = ins.fit_gaussian_derivative(ins.MeasuredScan(x, y))
    resid = y - gaussian_derivative(x, *fit.values)
    eps = 1e-7
    p = np.array(fit.values)
    for i in range(4):
        dp_ = np.zeros(4)
        dp_[i] = eps * max(abs(p[i]), 1.0)
        col = (gaussian_derivative(x, *(p + dp_))
               - gaussian_derivative(x, *(p - dp_))) / (2 * dp_[i])
        overlap = abs(col @ resid) / (np.linalg.norm(col) * np.linalg.norm(resid))
        assert overlap < 1e-5


def test_linear_fit_exact():
    x = np.linspace(0, 1, 11)
    fit = ins.linear_fit(ins.MeasuredScan(x, 3.0 * x - 0.5))
    assert fit.values[0] == pytest.approx(3.0, rel=1e-12)
    assert fit.values[1] == pytest.approx(-0.5, rel=1e-12)


def test_linear_fit_zero_slope_consistent():
    rng = np.random.default_rng(5)
    x = np.linspace(-1, 1, 51)
    y = 0.1 + rng.normal(scale=0.01, size=x.size)
    fit = ins.linear_fit(ins.MeasuredScan(x, y, sigma=np.full(x.size, 0.01)))
    assert abs(fit.values[0]) < 3.0 * np.sqrt(fit.covariance[0, 0])


def test_linear_fit_monte_carlo_slope():
    """Synthetic coil-model P_z(alpha) data refit within one sigma."""
    rng = np.random.default_rng(11)
    model = ins.CoilModel(tilt_rad=np.deg2rad(5.0), guide_field_T=1e-3)
    alpha = np.linspace(-1, 1, 41) * DEG_TO_RAD
    base = np.sin(ins.coil_tilt_phase(model, alpha))
    slope_true = np.polyfit(alpha, base, 1)[0]
    noise = 0.02
    slopes, sigmas = [], []
    for _ in range(60):
        y = base + rng.normal(scale=noise, size=alpha.size)
        fit = ins.linear_fit(ins.MeasuredScan(alpha, y,
                                              sigma=np.full(alpha.size, noise)))
        slopes.append(fit.values[0])
        sigmas.append(np.sqrt(fit.covariance[0, 0]))
    bias = np.mean(slopes) - slope_true
    assert abs(bias) < 3.0 * np.mean(sigmas) / np.sqrt(len(slopes))


def test_fit_report_json(tmp_path):
    x = np.linspace(0, 1, 11)
    fit = ins.linear_fit(ins.MeasuredScan(x, 2.0 * x + 1.0))
    path = tmp_path / "fit.json"
    fit.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["parameters"]["slope"] == pytest.approx(2.0)
    assert doc["converged"] is True
    assert len(doc["covariance"]) == 2


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
