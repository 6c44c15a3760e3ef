"""Independent reference implementations used as test oracles.

Everything here, except the former package helpers at the end, is
deliberately written from scratch against textbook closed forms or
brute-force definitions, sharing no code path with the package internals
it checks.
"""

import logging

import numpy as np

from sodiff import dispersion as dp
from sodiff.constants import CONSTANTS, FM_TO_A
from sodiff.crystal import (SIGMA, CrystalError, mean_potential_meV,
                            structure_sums)
from sodiff.oam import OamError
from sodiff.wavefield import WaveGridError

GAMMA_COEF_FM = -1.91304273 * 2.8179403262 * 5.446170214e-4 / 2.0  # mu e/hbar c
TWO_PI_HBAR2_OVER_M = 4.0 * np.pi * 81.8042 / (2.0 * np.pi) ** 2    # meV A^3
FM = 1e-5  # fm -> A
IDENTITY2 = np.eye(2, dtype=complex)


def darwin_reflectivity(eta):
    """Thick-crystal symmetric-Bragg reflectivity of scalar two-beam theory.

    eta is the normalised deviation (alpha - 2 v0)/(2 |vH|); total
    reflection for |eta| <= 1, tails (|eta| - sqrt(eta^2 - 1))^2 outside.
    """
    eta = np.asarray(eta, float)
    out = np.ones_like(eta)
    tail = np.abs(eta) > 1.0
    ae = np.abs(eta[tail])
    out[tail] = (ae - np.sqrt(ae**2 - 1.0)) ** 2
    return out


def brute_force_potential(sites, lattice, hkl, K, cell_volume, schwinger=True):
    """Direct complex-sum evaluation of the spinor Fourier component.

    sites: list of (frac(3), b_fm, Z, f_callable).  Returns a 2x2 matrix in
    meV, using plain Python loops and explicit Pauli matrices.
    """
    lattice = np.asarray(lattice, float)
    recip = 2.0 * np.pi * np.linalg.inv(lattice).T
    H = np.asarray(hkl, float) @ recip
    h_mag = np.linalg.norm(H)
    sx = np.array([[0, 1], [1, 0]], complex)
    sy = np.array([[0, -1j], [1j, 0]], complex)
    sz = np.array([[1, 0], [0, -1]], complex)
    cross = np.cross(np.asarray(K, float), H)
    sig_term = (cross[0] * sx + cross[1] * sy + cross[2] * sz) / h_mag**2
    total = np.zeros((2, 2), complex)
    for frac, b, Z, f in sites:
        r = np.asarray(frac) @ lattice
        phase = np.exp(1j * np.dot(H, r))
        gam = GAMMA_COEF_FM * Z * (1.0 - f(h_mag)) if schwinger else 0.0
        total += (b * np.eye(2) - 2j * gam * sig_term) * phase
    return TWO_PI_HBAR2_OVER_M * FM / cell_volume * total


def numerical_Lz(values, r, phi):
    """<L_z> by brute-force quadrature of the defining integral, using a
    spectral derivative (independent of the package's finite differences
    and of its Fourier-mode bookkeeping)."""
    n = phi.size
    ell = np.fft.fftfreq(n, 1.0 / n)
    # -i d/dphi via the spectral derivative
    lz_psi = np.fft.ifft(ell * np.fft.fft(values, axis=1), axis=1)
    num = np.trapezoid(np.sum(np.conj(values) * lz_psi, axis=1) * r, r)
    den = np.trapezoid(np.sum(np.abs(values) ** 2, axis=1) * r, r)
    return float(np.real(num / den))


def aft(values, phi, ell):
    """Radial profile of azimuthal mode ell of a polar field values[r, phi],
    (1/2pi) int psi e^{-i l phi} dphi, by direct quadrature over the
    uniform nodes phi: the reference for the package's FFT of all modes.
    Exact for band-limited content below Nyquist."""
    if abs(ell) > phi.size // 2 - 1:
        raise OamError(f"mode {ell} beyond Nyquist for n_phi={phi.size}")
    phase = np.exp(-1j * ell * phi)
    return np.mean(values * phase[None, :], axis=1)


def channel_entries(V, u):
    """Diagonal entries of a 2x2 spin matrix V in the sigma.u eigenbasis,
    ordered (sigma.u = +1, sigma.u = -1)."""
    sx = np.array([[0, 1], [1, 0]], complex)
    sy = np.array([[0, -1j], [1j, 0]], complex)
    sz = np.array([[1, 0], [0, -1]], complex)
    evals, evecs = np.linalg.eigh(u[0] * sx + u[1] * sy + u[2] * sz)
    D = np.diag(evecs.conj().T @ V @ evecs)
    return D[np.argmax(evals)], D[np.argmin(evals)]


def two_beam_point(alpha0, beta, v0, vH, vmH, energy, kappa_scale, D, bragg):
    """Exit amplitudes (t, r) of one scalar channel at one incident point.

    Roots y = 2 E eps + v0 of the secular quadratic
    beta y^2 + ((1 - beta) v0 - alpha0) y - vH vmH = 0 give the branch
    wavevector shifts kappa_scale eps and ratios X = -y/vH.  The boundary
    system in plain exponentials E_i = exp(i kappa_i D) is then solved
    directly: forward amplitudes c1 + c2 = 1 at the entrance, and no
    diffracted field at the rear face (Bragg, X.c E = 0) or at the entrance
    (Laue, X.c = 0).  t is the forward field at depth D; r the diffracted
    field at the entrance (Bragg) or at depth D (Laue).
    """
    y = np.roots([beta, (1.0 - beta) * v0 - alpha0, -vH * vmH])
    E = np.exp(1j * kappa_scale * (y - v0) / (2.0 * energy) * D)
    X = -y / vH
    rear_or_entry = X * E if bragg else X
    c = np.linalg.solve(np.array([[1.0, 1.0], rear_or_entry]), [1.0, 0.0])
    t = c @ E
    r = (X @ c) if bragg else (X * E) @ c
    return t, r


def pendelloesung_length(k_mag, cos_gamma, vH):
    """Laue Pendelloesung period 2 pi cos(gamma) E / (|k0| |vH|) at the
    exact Bragg condition, with E = hbar^2 k^2 / 2m in the units of vH
    (brute_force_potential's constant, so that E/|vH| is unit-free)."""
    energy = TWO_PI_HBAR2_OVER_M / (4.0 * np.pi) * k_mag**2
    return 2.0 * np.pi * cos_gamma * energy / (k_mag * abs(vH))


# ---------------------------------------------------------------------------
# Former package helpers, kept as test references.  Unlike the oracles
# above they reuse the package's lattice sums; they check the engine's
# assembly of the potential and its roots, not the sums themselves.
# ---------------------------------------------------------------------------

def potential_fourier(crystal, H, K):
    """Spinor Fourier component V(H, K) as a 2x2 complex matrix in meV.

    H may be the zero vector, in which case the spin-orbit part vanishes
    identically (f(0) = 1) and the result is V(0) times the identity.
    """
    H = np.asarray(H, dtype=float)
    K = np.asarray(K, dtype=float)
    if np.linalg.norm(K) == 0.0:
        raise CrystalError("K must be non-zero")
    if np.linalg.norm(H) == 0.0:
        return mean_potential_meV(crystal) * IDENTITY2

    A, B, _h = structure_sums(crystal, H)
    pref = CONSTANTS.two_pi_hbar2_over_m_meV_A3 * FM_TO_A / crystal.cell_volume_A3
    nuclear = pref * A * IDENTITY2

    cross = np.cross(K, H)
    if np.linalg.norm(cross) == 0.0:
        return nuclear
    sigma_cross = np.einsum("k,kij->ij", cross / float(np.dot(H, H)), SIGMA)
    return nuclear - 2.0j * pref * B * sigma_cross


def root_backward_error(sol):
    """The largest dispersion._backward_error of the four roots of each
    point of a channel solve sol (from its beta, b, p and y), NaN roots
    skipped, as the scans compute it."""
    err = dp._backward_error(sol["beta"], sol["b"], sol["p"], sol["y"])
    return np.fmax.reduce(err.reshape((4,) + sol["w"].shape), axis=0,
                          initial=0.0)


def channel_diagnostics(geom, crystal, theta, rho):
    """The channel solve behind exit_amplitude_maps at broadcast
    (theta, rho), from dispersion._solve_amplitudes through
    dispersion._point: alpha0, beta, g0, gH, w, u_hat and the roots'
    backward_error (root_backward_error) over the points, y and X
    (..., channel, branch), the transfer factors t and r (..., channel),
    and the scalars v0 and energy_meV.  A one-point call gives them in the
    shape of its offsets, as read-only views where they come from the
    entry of dispersion's channel slot."""
    sol = dp._solve_amplitudes(geom, crystal, theta, rho)
    sol["backward_error"] = root_backward_error(sol)
    # (branch, channel, ...) -> (..., channel, branch), as views
    point_major = tuple(range(2, sol["y"].ndim)) + (1, 0)
    channel_last = tuple(range(1, sol["t"].ndim)) + (0,)
    keep = ("alpha0", "beta", "g0", "gH", "w", "u_hat", "backward_error")
    res = dp._point(sol, {
        "t": sol["t"].transpose(channel_last),
        "r": sol["r"].transpose(channel_last),
        "y": sol["y"].transpose(point_major),
        "X": sol["X"].transpose(point_major), **{key: sol[key] for key in keep}})
    return {**res, "v0": sol["v0"], "energy_meV": sol["energy_meV"]}


def secular_residuals(result):
    """Relative residual of the second two-beam equation for every stored
    branch of a channel_diagnostics result; the first equation is
    satisfied identically by X = -y/vH."""
    alpha0 = result["alpha0"][..., None, None]
    beta = result["beta"][..., None, None]
    E = result["energy_meV"]
    v0 = result["v0"]
    y = result["y"]
    X = result["X"]
    # rebuild channel potentials from stored data: vH = -y/X
    vH = -y / X
    vmH = np.conj(vH)  # real scattering lengths
    eps = (y - v0) / (2.0 * E)
    alphaH = alpha0 - 2.0 * E * beta * eps
    res = -vmH + (alphaH - v0) * X
    scale = np.abs(vmH) + np.abs((alphaH - v0) * X) + 1e-300
    return np.abs(res) / scale


def channel_projector(u_hat, u0, s):
    """Incident spinor u0 projected on the sigma.u_hat = s eigenstate,
    1/2 (1 + s sigma.u_hat) u0, by einsum and a batched matmul."""
    sigma_u = np.einsum("...k,kij->...ij", u_hat, SIGMA)
    return 0.5 * (IDENTITY2 + s * sigma_u) @ np.asarray(u0, complex)


def bilinear_full_gather(values, x_axis, y_axis, X, Y):
    """Bilinear resampling that gathers and weights every node, then zeroes
    the nodes outside the axes' span (index space, 1e-9-cell tolerance)."""
    nx, ny = x_axis.size, y_axis.size
    dx = x_axis[1] - x_axis[0]
    dy = y_axis[1] - y_axis[0]
    fx = (X - x_axis[0]) / dx
    fy = (Y - y_axis[0]) / dy
    tol = 1e-9
    inside = ((fx >= -tol) & (fx <= nx - 1 + tol)
              & (fy >= -tol) & (fy <= ny - 1 + tol))
    fx = np.clip(fx, 0, nx - 1 - 1e-12)
    fy = np.clip(fy, 0, ny - 1 - 1e-12)
    ix = np.clip(fx.astype(int), 0, nx - 2)
    iy = np.clip(fy.astype(int), 0, ny - 2)
    tx = fx - ix
    ty = fy - iy
    v = (values[ix, iy] * (1 - tx) * (1 - ty)
         + values[ix + 1, iy] * tx * (1 - ty)
         + values[ix, iy + 1] * (1 - tx) * ty
         + values[ix + 1, iy + 1] * tx * ty)
    return np.where(inside, v, 0.0), inside


def lz_estimate_roll(values, r, phi):
    """<L_z> by periodic central differences formed with np.roll."""
    dphi = phi[1] - phi[0]
    dpsi = (np.roll(values, -1, axis=1) - np.roll(values, +1, axis=1)) / (2 * dphi)
    num = np.sum(np.conj(values) * (-1j) * dpsi, axis=1)
    den = np.sum(np.abs(values) ** 2, axis=1)
    return float(np.real(np.trapezoid(num * r, r) / np.trapezoid(den * r, r)))


def lz_estimate_whole(values, r, phi):
    """<L_z> by periodic central differences over the whole polar grid at
    once (slice-wise differences, one conjugate product of the full grid)."""
    dphi = phi[1] - phi[0]
    dpsi = np.empty_like(values)
    np.subtract(values[:, 2:], values[:, :-2], out=dpsi[:, 1:-1])
    np.subtract(values[:, 1], values[:, -1], out=dpsi[:, 0])
    np.subtract(values[:, 0], values[:, -2], out=dpsi[:, -1])
    dpsi /= 2 * dphi
    num = np.sum(np.conj(values) * (-1j) * dpsi, axis=1)
    den = np.sum(np.abs(values) ** 2, axis=1)
    num_r = np.trapezoid(num * r, r)
    den_r = np.trapezoid(den * r, r)
    return float(np.real(num_r / den_r))


def total_intensity_whole(values, r, phi):
    """integral |psi|^2 r dr dphi of a polar field values[r, phi], over the
    whole polar grid at once."""
    dphi = 2.0 * np.pi / phi.size
    dens = np.sum(np.abs(values) ** 2, axis=1) * dphi
    return float(np.trapezoid(dens * r, r))


def mode_power_whole(values, r, phi):
    """2 pi * integral |psi_l|^2 r dr of every DFT bin of a polar field
    values[r, phi]: one FFT of the whole polar grid and np.trapezoid over
    r."""
    modes = np.fft.fft(values, axis=1) / phi.size
    return 2.0 * np.pi * np.trapezoid(
        np.abs(modes) ** 2 * r[:, None], r, axis=0)


def polarization_map_whole(grid, beam):
    """P = <sigma>/intensity of a wavefield.WaveGrid over the whole grid at
    once: one einsum for the numerators, np.sum or np.trace for the
    intensity, and np.where for the empty points (NaN)."""
    pure = grid.psi0 is not None
    state = ((grid.psi0 if pure else grid.rho0) if beam == "transmitted"
             else (grid.psiH if pure else grid.rhoH))
    if pure:
        num = np.real(np.einsum("...i,kij,...j->k...", np.conj(state), SIGMA,
                                state))
        den = np.sum(np.abs(state) ** 2, axis=-1)
    else:
        num = np.real(np.einsum("kij,...ji->k...", SIGMA, state))
        den = np.real(np.trace(state, axis1=-2, axis2=-1))
    ok = den > 1e-300
    P = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
    return {"Px": P[0], "Py": P[1], "Pz": P[2], "intensity": den, "mask": ok}


def schwinger_axis_cross(K, H):
    """(u_hat, w) of the spin-orbit term by np.cross and np.linalg.norm."""
    K = np.asarray(K, float)
    H = np.asarray(H, float)
    k_mag = np.sqrt(np.einsum("...i,...i->...", K, K))
    cross = np.cross(K, H)
    cmag = np.linalg.norm(cross, axis=-1)
    parallel = cmag <= 1e-12 * k_mag * float(np.linalg.norm(H))
    u_hat = cross / np.where(parallel, 1.0, cmag)[..., None]
    u_hat[parallel] = (0.0, 0.0, 1.0)
    return u_hat, np.where(parallel, 0.0, cmag / float(H @ H))


def laue_coherence_all_beats(geom, crystal, u0, theta, rho, span_A):
    """Laue ensemble coherences (rho0, rhoH) summed over all 16 (a, b, i, j)
    beats of the closed form, the cross-branch ones whatever their window,
    with C[1, 0] summed apart from C[0, 1] and no Hermitian projection."""
    ch = dp._channels(geom, crystal, theta, rho)
    ig1, ig2, X1, X2, diff, prod = dp._transfer_setup(dp.LAUE, ch)
    # indexed [branch][channel]
    ig = (ig1, ig2)
    At = (X2 / diff, -X1 / diff)
    Ar = (prod / diff, -prod / diff)
    shape = ch["g0"].shape
    C0 = np.zeros(shape + (2, 2), complex)
    CH = np.zeros(shape + (2, 2), complex)
    for a, b, i, j in np.ndindex(2, 2, 2, 2):
        idk = ig[i][a] + np.conj(ig[j][b])
        win = (np.exp(-0.5 * (idk.imag * span_A) ** 2)
               * np.exp(idk * geom.thickness_A))
        C0[..., a, b] += np.conj(At[j][b]) * At[i][a] * win
        CH[..., a, b] += np.conj(Ar[j][b]) * Ar[i][a] * win
    basis = dp._channel_projections(ch["u_hat"], u0)
    outer = basis[:, None, ..., :, None] * np.conj(basis[None, :, ..., None, :])
    rho0 = np.einsum("...ab,ab...ij->...ij", C0, outer)
    rhoH = np.einsum("...ab,ab...ij->...ij", CH, outer)
    return rho0, rhoH


def scan_whole(geom, crystal, u0, theta, rho, ensemble=False, span_A=None):
    """grid_scan (ensemble False) or coherence_scan (True) as the scans
    behaved before the theta <-> rho fold: one whole-grid public engine
    call, no tiles, threads or fold.  Grazing theta rows are nudged by
    1e-12 rad; a pure grid's non-finite points are retried with a nudged
    theta; the scans' warning is logged on "sodiff.wavefield"; a root
    backward error above 1e-12 raises WaveGridError.  Returns the grid's
    fields by name, with its theta axis, physical mask and largest root
    backward error (root_error); the error (root_backward_error) and the
    mask are computed from dispersion._channels on the nudged axes."""
    log = logging.getLogger("sodiff.wavefield")
    th = np.asarray(theta, float).copy()
    rh = np.asarray(rho, float)
    _, g0, _, _ = geom.kinematics(th[:, None], rh[None, :])
    th[np.any(np.abs(g0) < 1e-15 * geom.k_mag, axis=1)] += 1e-12
    T, R = th[:, None], rh[None, :]
    ch = dp._channels(geom, crystal, T, R)
    worst = float(np.max(root_backward_error(ch)))
    physical = dp._point(ch, {"g0": ch["g0"]})["g0"] > 0.0
    res = (dp.exit_coherence_maps(geom, crystal, u0, T, R, span_A=span_A)
           if ensemble else dp.exit_amplitude_maps(geom, crystal, u0, T, R))
    names = ("rho0", "rhoH") if ensemble else ("psi0", "psiH")

    def nonfinite():
        shape = res["R"].shape + (-1,)
        return ~np.all([np.isfinite(res[name]).reshape(shape).all(axis=-1)
                        for name in names], axis=0)

    if ensemble:
        if nonfinite().sum():
            log.warning("coherence_scan: %d points are NaN", nonfinite().sum())
    elif nonfinite().any():
        bad = nonfinite()
        at = np.nonzero(bad)
        retry = dp.exit_amplitude_maps(
            geom, crystal, u0, th[at[0]] * (1.0 + 1e-12) + 1e-15, rh[at[1]])
        for name in ("psi0", "psiH", "R", "T"):
            res[name][at] = retry[name]
        log.warning("grid_scan: %d singular points retried with a nudged "
                    "theta, %d remain NaN", bad.sum(), nonfinite().sum())
    if worst > 1e-12:
        raise WaveGridError(f"secular root backward error {worst:.2e} "
                            "exceeds 1e-12")
    return {"theta": th, "physical": physical, "root_error": worst,
            **{name: res[name] for name in names + ("R", "T")}}


def assemble_coherences_full(sol, amp0):
    """rho0 and rhoH of a dispersion._solve_coherences result sol from the
    channel projections amp0, as full 2x2 matrices: every outer product
    amp0[a] amp0[b]^dag weighted by C[a, b] and summed from zero over
    (a, b) = (0, 0), (0, 1), (1, 0), (1, 1), then [1, 0] replaced by the
    conjugate of [0, 1] and the diagonal by its real part."""
    C0, CH = sol["C0"], sol["CH"]
    rho0 = np.zeros(C0.shape, complex)
    rhoH = np.zeros(C0.shape, complex)
    for a in range(2):
        for b in range(2):
            outer = amp0[a][..., :, None] * np.conj(amp0[b][..., None, :])
            rho0 += C0[..., a, b, None, None] * outer
            rhoH += CH[..., a, b, None, None] * outer
    for m in (rho0, rhoH):
        m[..., 1, 0] = np.conj(m[..., 0, 1])
        m[..., (0, 1), (0, 1)] = m[..., (0, 1), (0, 1)].real
    return rho0, rhoH
