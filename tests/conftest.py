import numpy as np
import pytest

from sodiff import crystal as cr
from sodiff import dispersion as dp
from sodiff import wavefield as wf


@pytest.fixture(scope="session")
def quartz():
    return cr.reference_quartz()


@pytest.fixture(scope="session")
def u0_along_beam():
    return np.array([1.0, 1.0]) / np.sqrt(2.0)


@pytest.fixture(scope="session")
def thermal_bragg_100um(quartz):
    return dp.make_geometry(quartz, (1, 1, 0), 2.0, dp.BRAGG, 1e6)


@pytest.fixture(scope="session")
def backscatter_laue_35mm(quartz):
    lam = dp.backscattering_wavelength(quartz, (1, 1, 0), dp.LAUE)
    return dp.make_geometry(quartz, (1, 1, 0), lam, dp.LAUE, 3.5e8)


@pytest.fixture(scope="session")
def laue_coherence_grid(quartz, backscatter_laue_35mm, u0_along_beam):
    half = np.deg2rad(0.3)
    ax = np.linspace(-half, half, 384)
    return wf.coherence_scan(backscatter_laue_35mm, quartz, u0_along_beam,
                             ax, ax)
