"""Classical-field baseline: Landau levels, filling, Hall quantization and
free-gas Fermi quantities."""

import math

import numpy as np

from .constants import CONDUCTANCE_QUANTUM, E_CHARGE, FLUX_QUANTUM, HBAR, M_ELECTRON
from .errors import DomainError, derived


def cyclotron_frequency(b_field, mass_ratio=1.0):
    """omega_c = e B / m* in rad/s."""
    if b_field < 0.0:
        raise DomainError("magnetic field must be >= 0")
    with derived("omega_c = e B/m*", {"B[T]": b_field, "mass_ratio[1]": mass_ratio}):
        return E_CHARGE * b_field / (mass_ratio * M_ELECTRON)


def landau_energy(n, k_z, b_field, mass_ratio=1.0):
    """Landau-level energy hbar^2 k_z^2 / 2m* + hbar omega_c (n + 1/2), in J.

    Degenerate in the in-plane momentum k_x by construction; the API exposes
    no k_x dependence.
    """
    if n < 0:
        raise DomainError("level index must be >= 0")
    mass = mass_ratio * M_ELECTRON
    return HBAR**2 * k_z**2 / (2.0 * mass) + HBAR * cyclotron_frequency(b_field, mass_ratio) * (n + 0.5)


def filling_factor(n2d, b_field):
    """Landau-level filling nu = n2d * (h/e) / B."""
    if b_field <= 0.0:
        raise DomainError("filling factor needs B > 0")
    if n2d <= 0.0:
        raise DomainError("density must be positive")
    return n2d * FLUX_QUANTUM / b_field


def hall_conductance(nu):
    """Quantized conductance pair (sigma_xy, sigma_yy) = (nu e^2/h, 0) in S."""
    if int(nu) != nu or nu < 0:
        raise DomainError("filling must be a non-negative integer of filled levels")
    return nu * CONDUCTANCE_QUANTUM, 0.0


def landau_dos(energies, b_field, eta, n_max, mass_ratio=1.0, spin_degeneracy=2):
    """Landau-level density of states per area, delta peaks broadened to
    unit-area Lorentzians of width eta.

    spin_degeneracy=1 recovers the bare per-level weight e*B/(2*pi*hbar);
    the default 2 makes the window average match the spinful 2D free-gas
    constant m*/(pi hbar^2).
    """
    if eta <= 0.0:
        raise DomainError("broadening must be positive")
    if n_max < 0:
        raise DomainError("need at least the lowest level")
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    w_c = cyclotron_frequency(b_field, mass_ratio)
    centers = HBAR * w_c * (np.arange(n_max + 1) + 0.5)
    weight = spin_degeneracy * E_CHARGE * b_field / (2.0 * math.pi * HBAR)
    comb = np.zeros_like(energies)
    with derived("Landau-level DOS",
                 {"B[T]": b_field, "eta[J]": eta, "mass_ratio[1]": mass_ratio}):
        for c in centers:
            comb += (eta / math.pi) / ((energies - c) ** 2 + eta**2)
    return weight * comb


def free_gas_3d(n3d, mass_ratio=1.0):
    """3D free-gas ground state: k_F, E_F, energy density and DOS callable.

    k_F = (3 pi^2 n)^(1/3); ground-state energy density hbar^2 k_F^5 /
    (10 pi^2 m); DOS (with spin) sqrt(2)/pi^2 (m/hbar^2)^(3/2) sqrt(E) below
    E_F and zero above.
    """
    if n3d <= 0.0:
        raise DomainError("density must be positive")
    mass = mass_ratio * M_ELECTRON
    k_f = (3.0 * math.pi**2 * n3d) ** (1.0 / 3.0)
    e_f = HBAR**2 * k_f**2 / (2.0 * mass)
    energy_density = HBAR**2 * k_f**5 / (10.0 * math.pi**2 * mass)
    dos_coeff = math.sqrt(2.0) / math.pi**2 * (mass / HBAR**2) ** 1.5

    def dos_at(energy):
        energy = np.asarray(energy, dtype=float)
        return np.where((energy >= 0.0) & (energy < e_f), dos_coeff * np.sqrt(np.abs(energy)), 0.0)

    return {"k_F": k_f, "E_F": e_f, "energy_density": energy_density, "dos_at": dos_at}


def fermi_2d(n2d, mass_ratio=1.0):
    """2D Fermi disk: k_F = sqrt(2 pi n2d), energy density hbar^2 k_F^4/(16 pi m)."""
    if n2d <= 0.0:
        raise DomainError("density must be positive")
    mass = mass_ratio * M_ELECTRON
    k_f = math.sqrt(2.0 * math.pi * n2d)
    with derived("Fermi energy density", {"n2d[1/m^2]": n2d, "mass_ratio[1]": mass_ratio}):
        energy_density = HBAR**2 * k_f**4 / (16.0 * math.pi * mass)
    return {"k_F": k_f, "energy_density": energy_density}
