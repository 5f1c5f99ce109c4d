"""Effective field theory of the gas coupled to the 2D continuum of modes.

The cutoff is carried as the dimensionless multiplier Lambda0 of the natural
lower cutoff wt^2(kappa_z), so the stability window is the pure interval
1 <= Lambda0 <= exp(1/(N alpha)).  Lambda itself has units rad^2/s^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, EPSILON_0, E_CHARGE, HBAR, M_ELECTRON
from .errors import DomainError, StabilityError, derived
from .response import ResponseSample


@dataclass(frozen=True)
class EftSetup:
    """Continuum-theory parameters: mirror distance, areal density, electron
    count and the dimensionless cutoff multiplier Lambda0."""

    l_z: float
    n2d: float
    n_electrons: float
    lambda0: float
    mass_ratio: float = 1.0

    def __post_init__(self):
        if self.l_z <= 0.0:
            raise DomainError("mirror distance must be positive")
        if self.n2d <= 0.0:
            raise DomainError("2D density must be positive")
        if self.n_electrons < 1.0:
            raise DomainError("need at least one electron")
        if self.lambda0 < 1.0:
            raise StabilityError(
                f"cutoff multiplier {self.lambda0} below the lower cutoff (Lambda0 >= 1)"
            )
        if self.lambda0 > self.lambda0_max * (1.0 + 1e-12):
            raise StabilityError(
                f"cutoff multiplier {self.lambda0:.6g} beyond the stability window "
                f"(Lambda0 <= exp(1/(N alpha)) = {self.lambda0_max:.6g})"
            )

    @property
    def mass(self):
        return self.mass_ratio * M_ELECTRON

    @property
    def alpha(self):
        """Dimensionless per-particle coupling e^2/(4 pi c^2 eps0 m L_z)."""
        with derived("alpha", {"l_z[m]": self.l_z, "mass_ratio[1]": self.mass_ratio}):
            return E_CHARGE**2 / (4.0 * math.pi * C_LIGHT**2 * EPSILON_0 * self.mass * self.l_z)

    @property
    def lambda0_max(self):
        """Stability-window ceiling exp(1/(N alpha)); inf when it overflows
        float64 (the pole is then beyond any representable cutoff)."""
        exponent = 1.0 / (self.n_electrons * self.alpha)
        if exponent > 700.0:
            return math.inf
        return math.exp(exponent)

    @property
    def kappa_z(self):
        return math.pi / self.l_z

    @property
    def omega_p(self):
        n_e = self.n2d / self.l_z
        return math.sqrt(E_CHARGE**2 * n_e / (self.mass * EPSILON_0))

    @property
    def omega_tilde_kz(self):
        """Lower cutoff frequency sqrt(c^2 kappa_z^2 + omega_p^2)."""
        return math.hypot(C_LIGHT * self.kappa_z, self.omega_p)

    @property
    def cutoff(self):
        """Upper cutoff Lambda = wt^2(kappa_z) * Lambda0, in rad^2/s^2."""
        return self.omega_tilde_kz**2 * self.lambda0


def effective_coupling(setup):
    """Effective coupling g(Lambda) = N alpha ln(Lambda0) in [0, 1]."""
    g = setup.n_electrons * setup.alpha * math.log(setup.lambda0)
    if g < -1e-15 or g > 1.0 + 1e-12:
        raise StabilityError(f"effective coupling {g:.6g} outside [0, 1]")
    return min(max(g, 0.0), 1.0)


def landau_pole(setup):
    """Highest stable cutoff Lambda_pole = wt^2(kappa_z) exp(1/(N alpha))."""
    return setup.omega_tilde_kz**2 * setup.lambda0_max


def renormalized_mass(setup):
    """Continuum-renormalized electron mass m / (1 - alpha ln Lambda0).

    Uses the per-particle coupling alpha ln(Lambda0), not N alpha; beyond the
    Landau pole the mass is divergent/negative and the setup is rejected at
    construction.
    """
    denom = 1.0 - setup.alpha * math.log(setup.lambda0)
    if denom <= 0.0:
        raise StabilityError("renormalized mass diverges: cutoff beyond the mass pole")
    return setup.mass / denom


def chemical_potential(setup, k_f):
    """Quasi-particle energy at the Fermi surface, hbar^2 k_F^2 / 2 m(Lambda)."""
    if k_f <= 0.0:
        raise DomainError("Fermi momentum must be positive")
    return HBAR**2 * k_f**2 / (2.0 * renormalized_mass(setup))


def zero_point_energy_per_area(setup):
    """Photon zero-point energy per area, hbar (Lambda0^{3/2}-1) wt^3(kz) / (6 pi c^2)."""
    return (
        HBAR * (setup.lambda0**1.5 - 1.0) * setup.omega_tilde_kz**3 / (6.0 * math.pi * C_LIGHT**2)
    )


def casimir_pressure(setup):
    """Force per area on the mirrors from the zero-point energy (N/m^2, signed).

    Positive (repulsive) for Lambda0 > 1; both the kappa_z and the omega_p
    dependence on L_z are differentiated.
    """
    l_z = setup.l_z
    drive = E_CHARGE**2 * setup.n2d / (setup.mass * EPSILON_0)
    with derived("Casimir pressure", {"l_z[m]": l_z, "n2d[1/m^2]": setup.n2d,
                                      "mass_ratio[1]": setup.mass_ratio}):
        bracket = 2.0 * math.pi**2 * C_LIGHT**2 / l_z**3 + drive / l_z**2
        root = math.sqrt(math.pi**2 * C_LIGHT**2 / l_z**2 + drive / l_z)
    return HBAR * (setup.lambda0**1.5 - 1.0) / (4.0 * math.pi * C_LIGHT**2) * bracket * root


def eft_chi_aa(w_grid, eta, setup):
    """Continuum A-field response: two-log real part, four-arctangent imaginary part."""
    if eta <= 0.0:
        raise DomainError("broadening must be positive (use eft_chi_aa_im_limit for eta = 0)")
    w = np.asarray(w_grid, dtype=float)
    wt = setup.omega_tilde_kz
    root_cut = math.sqrt(setup.cutoff)
    pref_re = 1.0 / (8.0 * math.pi * C_LIGHT**2 * EPSILON_0 * setup.l_z)
    pref_im = 1.0 / (4.0 * math.pi * C_LIGHT**2 * EPSILON_0 * setup.l_z)
    re = pref_re * (
        np.log(((w - wt) ** 2 + eta**2) / ((w - root_cut) ** 2 + eta**2))
        + np.log(((w + wt) ** 2 + eta**2) / ((w + root_cut) ** 2 + eta**2))
    )
    im = pref_im * (
        np.arctan((root_cut + w) / eta)
        - np.arctan((wt + w) / eta)
        + np.arctan((wt - w) / eta)
        - np.arctan((root_cut - w) / eta)
    )
    return ResponseSample(w=w, value=re + 1j * im, eta=eta)


def absorption_plateau(setup):
    """Height 1/(4 c^2 eps0 L_z) of the eta -> 0+ absorption plateau."""
    return 1.0 / (4.0 * C_LIGHT**2 * EPSILON_0 * setup.l_z)


def eft_chi_aa_im_limit(w_grid, setup):
    """eta -> 0+ imaginary part: flat absorption -sign(w) absorption_plateau
    inside wt(kz) < |w| < sqrt(Lambda), zero elsewhere."""
    w = np.asarray(w_grid, dtype=float)
    wt = setup.omega_tilde_kz
    root_cut = math.sqrt(setup.cutoff)
    inside = (np.abs(w) > wt) & (np.abs(w) < root_cut)
    return np.where(inside, -np.sign(w) * absorption_plateau(setup), 0.0)
