"""Independent computations the benchmark checks sodiff's outputs against.

Nothing here calls sodiff.  Each function is a closed form, a brute-force
definition, or a method property written from the textbook statement, so a
check can only pass when the program and this file agree from separate
derivations.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# CODATA 2018.
GAMMA_N_RAD_S_T = 1.83247171e8      # |neutron gyromagnetic ratio|
H_OVER_MN_M2_S = 3.9560339e-7       # h / m_n
FM_TO_A = 1e-5


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV whose header row follows any '#' comment lines."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


def winding(phase: np.ndarray, margin: int) -> float:
    """Phase circulation in turns around the rectangle ``margin`` cells in
    from the edge of a 2-D phase map, summed from wrapped differences."""
    n0, n1 = phase.shape
    i0, i1, j0, j1 = margin, n0 - 1 - margin, margin, n1 - 1 - margin
    edge = np.concatenate([
        phase[i0:i1, j0],            # down the first column
        phase[i1, j0:j1],            # along the last row
        phase[i1:i0:-1, j1],         # up the last column
        phase[i0, j1:j0:-1],         # back along the first row
        phase[i0:i0 + 1, j0],        # close the loop
    ])
    step = np.diff(edge)
    step = (step + np.pi) % (2.0 * np.pi) - np.pi
    return float(step.sum() / (2.0 * np.pi))


def coil_phase(alpha_rad, tilt_rad, guide_T, flip_rad=np.pi / 2,
               guide_length_m=0.6, wavelength_A=1.8):
    """Divergence phase of a calibrated pi/2 coil tilted by ``tilt_rad``.

    Path through the coil scales as sec(tilt - alpha) against the calibrated
    sec(tilt); a guide field adds gamma B L (sec(alpha) - 1) / v.
    """
    alpha = np.asarray(alpha_rad, float)
    phase = flip_rad * (1.0 / np.cos(tilt_rad) - 1.0 / np.cos(tilt_rad - alpha))
    speed = H_OVER_MN_M2_S / (wavelength_A * 1e-10)
    return phase + (GAMMA_N_RAD_S_T * guide_T * guide_length_m / speed
                    * (1.0 / np.cos(alpha) - 1.0))


def nuclear_structure_factor_fm(sites, hkl) -> complex:
    """F(H) = sum_j b_j exp(2 pi i hkl . x_j) over (frac, b_fm) sites."""
    hkl = np.asarray(hkl, float)
    return complex(sum(b * np.exp(2j * np.pi * float(hkl @ np.asarray(x)))
                       for x, b in sites))


def reciprocal_length(lattice, hkl) -> float:
    """|H| in 1/A for Miller indices hkl of a lattice given as row vectors."""
    recip = 2.0 * np.pi * np.linalg.inv(np.asarray(lattice, float)).T
    return float(np.linalg.norm(np.asarray(hkl, float) @ recip))


def pendelloesung_period_A(lattice, sites, hkl, wavelength_A) -> float:
    """Symmetric-Laue Pendelloesung period at the exact Bragg condition,
    Lambda = 2 pi E cos(theta_B) / (|k0| |v_H|).

    With v_H = (2 pi hbar^2/m) F / V_cell and E = (hbar^2/2m) k0^2 the
    constants cancel: Lambda = k0 V_cell cos(theta_B) / (2 |F|), F in A.
    """
    k0 = 2.0 * np.pi / wavelength_A
    sin_b = reciprocal_length(lattice, hkl) / (2.0 * k0)
    volume = abs(float(np.linalg.det(np.asarray(lattice, float))))
    f_abs = abs(nuclear_structure_factor_fm(sites, hkl)) * FM_TO_A
    return k0 * volume * np.sqrt(1.0 - sin_b**2) / (2.0 * f_abs)


def darwin_plateau_offsets(lattice, sites, hkl, k0_vec, h_vec, eta):
    """Rocking offsets (rad, about the Darwin centre) of normalised
    deviations eta for a thick symmetric Bragg crystal, scalar theory.

    The deviation alpha0 = -(hbar^2/2m)(2 k.H + H^2) moves by
    -(hbar^2/2m) 2 H.dk/dtheta per radian, and total reflection spans
    |alpha0 - 2 v0| <= 2 |v_H|; hbar^2/2m cancels between the two.
    """
    k0_vec = np.asarray(k0_vec, float)
    k_mag = float(np.linalg.norm(k0_vec))
    dk = k_mag * np.array([0.0, 1.0, 0.0])       # dk/dtheta at theta = 0
    slope = -2.0 * float(np.asarray(h_vec, float) @ dk)
    volume = abs(float(np.linalg.det(np.asarray(lattice, float))))
    vh = 4.0 * np.pi * abs(nuclear_structure_factor_fm(sites, hkl)) * FM_TO_A / volume
    return 2.0 * vh * np.asarray(eta, float) / slope


def darwin_reflectivity(eta) -> np.ndarray:
    """Thick-crystal scalar Darwin curve: 1 on the plateau |eta| <= 1,
    (|eta| - sqrt(eta^2 - 1))^2 in the tails."""
    a = np.abs(np.asarray(eta, float))
    tail = np.sqrt(np.maximum(a**2 - 1.0, 0.0))
    return np.where(a <= 1.0, 1.0, (a - tail) ** 2)


def fft_period(x: np.ndarray, y: np.ndarray) -> float:
    """Dominant period of a uniformly sampled signal: Hann-windowed FFT peak
    refined by a parabola through the log magnitudes of its neighbours."""
    spec = np.abs(np.fft.rfft((y - y.mean()) * np.hanning(y.size)))
    freqs = np.fft.rfftfreq(y.size, d=x[1] - x[0])
    i = int(np.argmax(spec[1:]) + 1)
    la, lb, lc = np.log(spec[i - 1:i + 2])
    shift = 0.5 * (la - lc) / (la - 2.0 * lb + lc)
    return 1.0 / (freqs[i] + shift * (freqs[1] - freqs[0]))
