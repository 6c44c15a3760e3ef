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
    OamDistribution,
    OamError,
    analyse,
    analyse_grid,
)
from .instrument import (
    CoilModel,
    ResolutionKernel,
    coil_divergence_spread,
    coil_tilt_phase,
    convolve_resolution,
)
