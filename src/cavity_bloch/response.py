"""Kubo linear response of the cavity-coupled gas.

All frequency-domain responses of the single-mode model share the A-field
propagator's pole pair at w = +-omega_tilde; the finite broadening eta keeps
every Lorentzian resolvable on a grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_GRID_POINTS, DEFAULT_GRID_SPAN, EPSILON_0, E_CHARGE
from .errors import DomainError, derived


@dataclass(frozen=True)
class ResponseSample:
    """Frequency grid (rad/s, ascending), complex values, broadening eta."""

    w: np.ndarray
    value: np.ndarray
    eta: float

    def __post_init__(self):
        if self.eta <= 0.0:
            raise DomainError("broadening must be positive")
        if np.any(np.diff(self.w) <= 0.0):
            raise DomainError("frequency grid must be strictly ascending")


def default_grid(omega_tilde, points=DEFAULT_GRID_POINTS, span=DEFAULT_GRID_SPAN):
    """Symmetric grid over [-span, span] * omega_tilde."""
    with derived("grid half-width span omega_tilde",
                 {"span[1]": span, "omega_tilde[rad/s]": omega_tilde}):
        return np.linspace(-span * omega_tilde, span * omega_tilde, points)


def _pole_pair(w, omega_tilde, eta):
    """1/(w + wt + i eta) - 1/(w - wt + i eta)."""
    return 1.0 / (w + omega_tilde + 1j * eta) - 1.0 / (w - omega_tilde + 1j * eta)


def chi_aa(w_grid, eta, omega_tilde, volume):
    """A-field propagator chi^A_A(w) = -(1/2 eps0 wt V) [pole pair]."""
    if eta <= 0.0:
        raise DomainError("broadening must be positive")
    w = np.asarray(w_grid, dtype=float)
    value = -_pole_pair(w, omega_tilde, eta) / (2.0 * EPSILON_0 * omega_tilde * volume)
    return ResponseSample(w=w, value=value, eta=eta)


def chi_ea(w_grid, eta, omega_tilde, volume):
    """E-field response chi^E_A(w) = (i/2 eps0 V)[1/(w+wt+ie) + 1/(w-wt+ie)]."""
    if eta <= 0.0:
        raise DomainError("broadening must be positive")
    w = np.asarray(w_grid, dtype=float)
    value = (1j / (2.0 * EPSILON_0 * volume)) * (
        1.0 / (w + omega_tilde + 1j * eta) + 1.0 / (w - omega_tilde + 1j * eta)
    )
    return ResponseSample(w=w, value=value, eta=eta)


def chi_ea_time_kernel(t, omega_tilde, volume, eta=0.0):
    """Time-domain E-field kernel Theta(t) cos(wt t) e^(-eta t) / (eps0 V)."""
    t = np.asarray(t, dtype=float)
    kernel = np.cos(omega_tilde * t) * np.exp(-eta * t) / (EPSILON_0 * volume)
    return np.where(t >= 0.0, kernel, 0.0)


def chi_jj(w_grid, eta, setup, n_electrons, volume):
    """Current-current response (e^2 N / m*)^2 chi^A_A(w).

    The paramagnetic current annihilates the Fermi-sphere ground state, so
    only the diamagnetic piece survives.
    """
    base = chi_aa(w_grid, eta, setup.omega_tilde, volume)
    with derived("(e^2 N/m*)^2", {"N[1]": n_electrons, "mass_ratio[1]": setup.mass_ratio}):
        factor = (E_CHARGE**2 * n_electrons / setup.mass) ** 2
    return ResponseSample(w=base.w, value=factor * base.value, eta=eta)


def chi_mixed(w_grid, eta, setup, n_electrons, volume):
    """Mixed responses chi^J_A = chi^A_J = -(e^2 N / m*) chi^A_A(w).

    Matter->photon and photon->matter coincide identically; one sample is
    returned for both.
    """
    base = chi_aa(w_grid, eta, setup.omega_tilde, volume)
    factor = -(E_CHARGE**2 * n_electrons) / setup.mass
    return ResponseSample(w=base.w, value=factor * base.value, eta=eta)


def optical_conductivity(w_grid, eta, setup):
    """Optical conductivity of the gas in the cavity (S/m).

    sigma(w) = i eps0 wp^2/(w + i eta)
             - i eps0 wp^4 / ((w + i eta) 2 wt) * [pole pair].
    The first term is the Drude response, the second the purely cavity-induced
    diamagnetic correction.
    """
    if eta <= 0.0:
        raise DomainError("broadening must be positive")
    w = np.asarray(w_grid, dtype=float)
    wp = setup.omega_p
    wt = setup.omega_tilde
    with derived("omega_p^4", {"omega_p[rad/s]": wp, "n2d[1/m^2]": setup.n2d}):
        wp4 = wp**4
    drude = 1j * EPSILON_0 * wp**2 / (w + 1j * eta)
    cavity = -1j * EPSILON_0 * wp4 / ((w + 1j * eta) * 2.0 * wt) * _pole_pair(w, wt, eta)
    return ResponseSample(w=w, value=drude + cavity, eta=eta)


def dc_suppression(gamma):
    """Drude-peak suppression: sigma_dc/sigma0_dc = 1 - gamma, and the
    companion effective-mass ratio m*(gamma)/m* = 1/(1 - gamma)."""
    if gamma < 0.0 or gamma > 1.0:
        raise DomainError(f"coupling {gamma} outside the stable window [0, 1]")
    ratio = 1.0 - gamma
    mass_ratio = math.inf if gamma == 1.0 else 1.0 / (1.0 - gamma)
    return ratio, mass_ratio


def absorption_rate(w, chi_aa_im, j_ext):
    """Absorbed power W = -w Im[chi^A_A(w)] |J_ext|^2."""
    return -np.asarray(w, dtype=float) * np.asarray(chi_aa_im, dtype=float) * abs(j_ext) ** 2
