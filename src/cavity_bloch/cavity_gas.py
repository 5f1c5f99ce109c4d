"""Exact solution of the free 2D electron gas coupled to cavity modes in the
dipole approximation: spectrum, collective coupling, ground-state photons,
stability classification and the many-mode normal-mode generalization."""

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, EPSILON_0, E_CHARGE, HBAR, M_ELECTRON
from .errors import DomainError, StabilityError, derived


@dataclass(frozen=True)
class CavitySetup:
    """Cavity + material parameters.

    omega_cav is the angular mode frequency (rad/s); the mirror distance
    follows from omega_cav = 2 pi c / L_z.  The 3D density seen by the mode
    is n_e = n2d / L_z.
    """

    omega_cav: float
    n2d: float
    mass_ratio: float = 1.0

    def __post_init__(self):
        if self.omega_cav <= 0.0:
            raise DomainError("cavity frequency must be positive")
        if self.n2d <= 0.0:
            raise DomainError("2D density must be positive")
        if self.mass_ratio <= 0.0:
            raise DomainError("mass ratio must be positive")

    @classmethod
    def from_mirror_distance(cls, l_z, n2d, mass_ratio=1.0):
        if l_z <= 0.0:
            raise DomainError("mirror distance must be positive")
        return cls(omega_cav=2.0 * math.pi * C_LIGHT / l_z, n2d=n2d, mass_ratio=mass_ratio)

    @property
    def l_z(self):
        return 2.0 * math.pi * C_LIGHT / self.omega_cav

    @property
    def mass(self):
        return self.mass_ratio * M_ELECTRON

    @property
    def n_e(self):
        return self.n2d / self.l_z

    @property
    def omega_p(self):
        """Diamagnetic (plasma) frequency sqrt(e^2 n_e / m* eps0)."""
        with derived("omega_p^2", {"n2d[1/m^2]": self.n2d, "omega_cav[rad/s]": self.omega_cav,
                                   "mass_ratio[1]": self.mass_ratio}):
            return math.sqrt(E_CHARGE**2 * self.n_e / (self.mass * EPSILON_0))

    @property
    def omega_tilde(self):
        return dressed_frequency(self.omega_cav, self.omega_p)

    @property
    def gamma(self):
        return collective_coupling(self.omega_cav, self.omega_p)


def dressed_frequency(omega, omega_p):
    """Plasmon-polariton frequency sqrt(omega^2 + omega_p^2)."""
    if omega < 0.0 or omega_p < 0.0:
        raise DomainError("frequencies must be >= 0")
    return math.hypot(omega, omega_p)


def collective_coupling(omega, omega_p):
    """Collective coupling gamma = omega_p^2 / (omega^2 + omega_p^2) in [0, 1]."""
    if omega < 0.0 or omega_p < 0.0:
        raise DomainError("frequencies must be >= 0")
    if omega == 0.0 and omega_p == 0.0:
        raise DomainError("omega and omega_p cannot both vanish")
    return omega_p**2 / (omega**2 + omega_p**2)


def stability_classify(gamma, tol=1e-12):
    """Phase of the coupled gas: 'stable' (<1), 'critical' (=1), 'unstable' (>1)."""
    if gamma < 0.0:
        raise DomainError("coupling must be >= 0")
    if gamma < 1.0 - tol:
        return "stable"
    if gamma <= 1.0 + tol:
        return "critical"
    return "unstable"


def no_a2_coupling(omega, omega_p):
    """Coupling gamma' = omega_p^2/omega^2 of the model without the A^2 term.

    Unbounded above: for omega_p > omega it exceeds one and the no-A^2 system
    has no ground state.
    """
    if omega <= 0.0:
        raise DomainError("omega must be positive (gamma' diverges at omega = 0)")
    with derived("gamma' = omega_p^2/omega^2",
                 {"omega[rad/s]": omega, "omega_p[rad/s]": omega_p}):
        gamma_prime = omega_p**2 / omega**2
    return gamma_prime, stability_classify(gamma_prime)


def ground_state_photon_occupation(omega, omega_p):
    """Virtual photons per polarization in the ground state, (wt-w)^2/(2 w wt)."""
    if omega <= 0.0:
        raise DomainError("occupation is unbounded as omega -> 0")
    wt = dressed_frequency(omega, omega_p)
    return (wt - omega) ** 2 / (2.0 * omega * wt)


# polarizations of the single-mode model, in the gas plane
POLARIZATIONS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))


@dataclass(frozen=True)
class GasEigenstateLabel:
    """Label of a many-body eigenstate: collective momentum K (1/m),
    photon occupations per polarization and the electronic kinetic sum (J)."""

    collective_k: tuple
    occupations: tuple
    kinetic_sum: float

    def __post_init__(self):
        if any(int(n) != n or n < 0 for n in self.occupations):
            raise DomainError("occupations must be non-negative integers")


def single_mode_energy(setup, label, area):
    """Exact eigenenergy of the gas coupled to one cavity mode (two polarizations).

    E = sum_lambda [hbar wt (n_lambda + 1/2) - (gamma/N) (hbar eps.K)^2 / 2m*]
        + kinetic_sum,  with N = n2d * area.
    """
    n_electrons = setup.n2d * area
    if n_electrons < 1.0:
        raise DomainError(f"fewer than one electron in the area (N = {n_electrons:.3g})")
    if len(label.occupations) != len(POLARIZATIONS):
        raise DomainError("expected one occupation per polarization")
    wt = setup.omega_tilde
    gamma = setup.gamma
    k_vec = np.asarray(label.collective_k, dtype=float)
    energy = label.kinetic_sum
    for pol, n_ph in zip(POLARIZATIONS, label.occupations):
        energy += HBAR * wt * (n_ph + 0.5)
        energy -= (gamma / n_electrons) * (HBAR * float(pol @ k_vec)) ** 2 / (2.0 * setup.mass)
    return energy


@dataclass(frozen=True)
class ModeSet:
    """Finite photon-mode list: angular frequencies and unit polarizations."""

    omegas: tuple
    polarizations: tuple

    def __post_init__(self):
        if len(self.omegas) != len(self.polarizations) or len(self.omegas) < 1:
            raise DomainError("need one polarization per mode and at least one mode")
        if any(w < 0.0 for w in self.omegas):
            raise DomainError("mode frequencies must be >= 0")
        for pol in self.polarizations:
            if abs(np.linalg.norm(np.asarray(pol, dtype=float)) - 1.0) > 1e-12:
                raise DomainError("polarizations must be normalized")


def coupling_scale(volume, mass_ratio=1.0):
    """Single-particle scale g~ = e hbar / (m* sqrt(eps0 V))."""
    if volume <= 0.0:
        raise DomainError("volume must be positive")
    return E_CHARGE * HBAR / (mass_ratio * M_ELECTRON * math.sqrt(EPSILON_0 * volume))


def mode_coupling_matrix(modes, omega_p):
    """Quadratic-form matrix W of the many-mode photon sector.

    W_ab = wt_a^2 delta_ab + omega_p^2 (eps_a . eps_b) (1 - delta_ab),
    real symmetric.
    """
    omegas = np.asarray(modes.omegas, dtype=float)
    pols = np.asarray(modes.polarizations, dtype=float)
    wt2 = omegas**2 + omega_p**2
    w = omega_p**2 * (pols @ pols.T)
    np.fill_diagonal(w, wt2)
    return w


def many_mode_spectrum(modes, omega_p, collective_k, occupations, kinetic_sum, g_tilde):
    """Eigenenergy of the gas coupled to M modes with mode-mode interactions.

    Diagonalizes W into normal frequencies Omega_gamma and rotated
    polarizations, then
    E = kinetic_sum - sum_g (g~ eps~_g . K)^2 / (2 Omega_g^2)
        + sum_g hbar Omega_g (n_g + 1/2).
    Returns (energy, normal_frequencies ascending).
    """
    if len(occupations) != len(modes.omegas):
        raise DomainError("need one occupation per mode")
    if any(int(n) != n or n < 0 for n in occupations):
        raise DomainError("occupations must be non-negative integers")
    w = mode_coupling_matrix(modes, omega_p)
    vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
    if np.any(vals <= 0.0):
        raise StabilityError("coupled mode matrix has a non-positive normal frequency squared")
    pols = np.asarray(modes.polarizations, dtype=float)
    rotated = pols.T @ vecs  # columns: eps~_gamma, ascending with vals
    k_vec = np.asarray(collective_k, dtype=float)
    normal = np.sqrt(vals)
    energy = float(kinetic_sum)
    for idx, n_ph in enumerate(occupations):
        proj = float(rotated[:, idx] @ k_vec)
        energy -= (g_tilde * proj) ** 2 / (2.0 * normal[idx] ** 2)
        energy += HBAR * normal[idx] * (n_ph + 0.5)
    return energy, normal
