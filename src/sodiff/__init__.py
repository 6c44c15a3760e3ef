"""Spin-orbit neutron dynamical diffraction from perfect crystals.

Two-beam dynamical diffraction with the spin-dependent (Schwinger)
contribution to the crystal potential, exit wavefield maps over rocking
and tilt, polarization and vortex analysis, orbital-angular-momentum mode
decomposition, and instrument-level models for comparing with measured
rocking scans.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants
from .crystal import (
    AtomSite,
    CrystalError,
    CrystalModel,
    FormFactor,
    load_crystal,
    mean_potential_meV,
    parse_crystal,
    potential_fourier,
    reciprocal_vector,
    reference_quartz,
    schwinger_axis,
)
from .dispersion import (
    BRAGG,
    LAUE,
    DiffractionGeometry,
    DispersionError,
    backscattering_wavelength,
    darwin_center_theta,
    darwin_fwhm_rad,
    make_geometry,
)
from .wavefield import (
    WaveGrid,
    coherence_scan,
    grid_scan,
    phase_map,
    polarization_curve,
    polarization_map,
    rectangle_loop,
    winding_number,
)
from .oam import (
    AzimuthalField,
    OamDistribution,
    aft,
    field_from_grid,
    interference_distribution,
    oam_distribution,
    oam_expectation,
    oracle_Lz,
    to_polar,
)
from .instrument import (
    CoilModel,
    MeasuredScan,
    ResolutionKernel,
    coil_divergence_spread,
    coil_tilt_phase,
    convolve_resolution,
    fit_gaussian_derivative,
    ingest_scan,
    linear_fit,
)
