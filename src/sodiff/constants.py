"""Physical constants and unit conventions.

Internal units everywhere in this package: lengths in Angstrom, wavevectors
in 1/Angstrom, energies in meV, angles in radians.  Conversions to anything
else (arcsec, degrees, m/s) happen at I/O boundaries only.

Sign convention, stated once: the neutron magnetic moment is negative
(mu_n = -1.913 mu_N).  Every spin-rotation sign in the package traces back
to ``PhysicalConstants.mu_nuclear_magnetons`` being carried with that sign;
all other constants are stored positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# CODATA 2018 values.
_HBAR_JS = 1.054571817e-34            # J s
_NEUTRON_MASS_KG = 1.67492749804e-27  # kg
_ECHARGE_C = 1.602176634e-19          # C
_C_M_PER_S = 2.99792458e8             # m/s
_MEV_J = 1.602176634e-22              # J per meV
_MU_N_J_PER_T = 5.0507837461e-27      # nuclear magneton, J/T
_MU_NEUTRON_NM = -1.91304273          # neutron moment in nuclear magnetons
_R_E_FM = 2.8179403262                # classical electron radius, fm
_ME_OVER_MP = 5.446170214e-4          # electron/proton mass ratio
_GAMMA_N = 1.83247171e8               # |neutron gyromagnetic ratio|, rad/s/T
_H_OVER_MN = 3.9560339e-7             # h/m_n, m^2/s


@dataclass(frozen=True)
class PhysicalConstants:
    """Neutron-optics constants in package-internal units.

    ``mass_meV_s2_A2`` is the neutron mass expressed in meV s^2/A^2 so that
    E = m v^2 / 2 is consistent with meV energies and A/s velocities.
    """

    mass_meV_s2_A2: float = _NEUTRON_MASS_KG / _MEV_J * 1e-20
    mu_nuclear_magnetons: float = _MU_NEUTRON_NM     # signed, the one negative
    mu_J_per_T: float = _MU_NEUTRON_NM * _MU_N_J_PER_T
    elementary_charge_C: float = _ECHARGE_C
    speed_of_light_m_s: float = _C_M_PER_S
    hbar_Js: float = _HBAR_JS
    gamma_n_rad_s_T: float = _GAMMA_N                # magnitude
    hbar2_over_2m_meV_A2: float = _HBAR_JS**2 / (2.0 * _NEUTRON_MASS_KG) / _MEV_J * 1e20

    @property
    def two_pi_hbar2_over_m_meV_A3(self) -> float:
        """Prefactor of the Fermi pseudopotential, meV A^3 per scattering
        length in A (multiply by b[A]/V_cell[A^3] to get an energy)."""
        return 4.0 * np.pi * self.hbar2_over_2m_meV_A2

    @property
    def schwinger_gamma_fm(self) -> float:
        """Spin-orbit strength per unit Z(1 - f), in fm.

        Equals mu*e/(hbar*c) in Gaussian units, evaluated here through the
        equivalent combination (mu/mu_N) * r_e * (m_e/m_p) / 2.  Negative
        because the neutron moment is negative.
        """
        return self.mu_nuclear_magnetons * _R_E_FM * _ME_OVER_MP / 2.0

    def energy_meV(self, wavelength_A: float) -> float:
        """Kinetic energy of a neutron of the given wavelength."""
        return self.hbar2_over_2m_meV_A2 * (2.0 * np.pi / wavelength_A) ** 2

    def velocity_m_s(self, wavelength_A: float) -> float:
        """Group velocity h/(m lambda)."""
        return _H_OVER_MN / (wavelength_A * 1e-10)


CONSTANTS = PhysicalConstants()

FM_TO_A = 1e-5
ARCSEC_TO_RAD = np.pi / (180.0 * 3600.0)
DEG_TO_RAD = np.pi / 180.0
