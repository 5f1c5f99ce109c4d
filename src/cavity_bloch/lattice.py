"""2D Bravais geometry, magnetic flux bookkeeping and cosine lattice potentials.

Conventions: a1 along x, a2 at angle theta from a1; reciprocal vectors satisfy
b_i . a_j = 2 pi delta_ij.  Lengths are meters, energies joules, fields tesla.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import FLUX_QUANTUM
from .errors import DomainError, NumericalError

BRAVAIS_KINDS = ("oblique", "rectangular", "centered-rectangular", "hexagonal", "square")


@dataclass(frozen=True)
class Lattice2D:
    """Primitive 2D Bravais cell: side lengths a1, a2 (m) and angle theta (rad)."""

    a1: float
    a2: float
    theta: float

    def __post_init__(self):
        if not (self.a1 > 0.0 and self.a2 > 0.0):
            raise DomainError("lattice constants must be positive")
        if not (0.0 < self.theta < math.pi):
            raise DomainError("lattice angle must lie in (0, pi)")
        if math.sin(self.theta) < 1e-12:
            raise DomainError("degenerate lattice: sin(theta) ~ 0")
        if self.cell_area <= 0.0:
            raise DomainError(f"degenerate lattice: the cell area a1 a2 sin(theta) underflows "
                              f"float64 (a1 = {self.a1:g} m, a2 = {self.a2:g} m)")

    @property
    def cell_area(self):
        return self.a1 * self.a2 * math.sin(self.theta)

    def enlarged(self, p):
        """Magnetic-cell enlargement a1 -> p*a1 (p a positive integer)."""
        if int(p) != p or p < 1:
            raise DomainError(f"enlargement factor must be a positive integer, got {p}")
        return Lattice2D(self.a1 * int(p), self.a2, self.theta)

    def g_x(self, n):
        """x-component 2*pi*n/a1 of a reciprocal vector."""
        return 2.0 * math.pi * n / self.a1

    def g_y(self, m):
        """2*pi*m/a2 (enters G_{m,n} through the oblique combination)."""
        return 2.0 * math.pi * m / self.a2

    def g_oblique(self, m, n):
        """y-component G_{m,n} = G^y_m/sin(theta) - G^x_n cos(theta)/sin(theta)."""
        s = math.sin(self.theta)
        return self.g_y(m) / s - self.g_x(n) * math.cos(self.theta) / s


@dataclass(frozen=True)
class ReciprocalVectors:
    b1: np.ndarray
    b2: np.ndarray


def reciprocal_vectors(lat):
    """Reciprocal primitive vectors of `lat` (b_i . a_j = 2 pi delta_ij)."""
    s = math.sin(lat.theta)
    b1 = np.array([2.0 * math.pi / lat.a1, -2.0 * math.pi * math.cos(lat.theta) / (lat.a1 * s)])
    b2 = np.array([0.0, 2.0 * math.pi / (lat.a2 * s)])
    return ReciprocalVectors(b1=b1, b2=b2)


def direct_vectors(lat):
    """Primitive vectors a1, a2 as 2-vectors (a1 along x)."""
    a1 = np.array([lat.a1, 0.0])
    a2 = np.array([lat.a2 * math.cos(lat.theta), lat.a2 * math.sin(lat.theta)])
    return a1, a2


def flux_ratio(lat, b_field):
    """Relative magnetic flux through the primitive cell, B |a1 x a2| / (h/e)."""
    if b_field < 0.0:
        raise DomainError("magnetic field must be >= 0")
    return b_field * lat.cell_area / FLUX_QUANTUM


def field_for_flux_ratio(lat, ratio):
    """Magnetic field realizing a given relative flux through the cell."""
    if ratio < 0.0:
        raise DomainError("flux ratio must be >= 0")
    return ratio * FLUX_QUANTUM / lat.cell_area


def mtg_flux_condition(lat, b_field, p, tol=1e-9):
    """Abelian magnetic-translation-group check on the p-fold enlarged cell.

    Closure of the magnetic translations requires an integer relative flux
    through the (enlarged) cell and a2*cos(theta) an integer multiple of a1.
    Returns (verdict, residual) with verdict in {"abelian-group", "not-group"}
    and residual the worse of the two distances to integrality; raises
    NumericalError where the flux through the cell is not finite in float64.
    """
    if int(p) != p or p < 1:
        raise DomainError(f"enlargement factor must be a positive integer, got {p}")
    enlarged_flux = p * flux_ratio(lat, b_field)
    if not math.isfinite(enlarged_flux):
        raise NumericalError(f"flux through the enlarged cell is {enlarged_flux} in float64")
    flux_res = abs(enlarged_flux - round(enlarged_flux))
    geom = lat.a2 * math.cos(lat.theta) / lat.a1
    geom_res = abs(geom - round(geom))
    residual = max(flux_res, geom_res)
    verdict = "abelian-group" if (flux_res <= tol and geom_res <= tol) else "not-group"
    return verdict, residual


@dataclass(frozen=True)
class FourierPotential:
    """Sparse Fourier representation of a periodic potential.

    coefficients maps (n, m) -> complex V_{n,m} in joules; the reality
    constraint V_{-n,-m} = conj(V_{n,m}) is enforced at construction.
    """

    coefficients: dict
    lattice: Lattice2D

    def __post_init__(self):
        for (n, m), v in self.coefficients.items():
            mirror = self.coefficients.get((-n, -m))
            if mirror is None or abs(mirror - np.conj(v)) > 1e-12 * max(abs(v), 1.0):
                raise DomainError(f"potential violates reality at ({n}, {m})")

    def real_space(self, x, y):
        """Evaluate the potential at (x, y); used by tests as a cross-check."""
        rec = reciprocal_vectors(self.lattice)
        total = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for (n, m), v in self.coefficients.items():
            g = n * rec.b1 + m * rec.b2
            total = total + v * np.exp(1j * (g[0] * x + g[1] * y))
        return total.real


_KIND_STARS = {
    "square": ((1, 0), (0, 1)),
    "rectangular": ((1, 0), (0, 1)),
    "oblique": ((1, 0), (0, 1)),
    "centered-rectangular": ((1, 0), (0, 1)),
    "hexagonal": ((1, 0), (0, 1), (1, 1)),
}


#: class angle of the kinds whose angle is not pi/2 when none is given; the
#: centered-rectangular (rhombic) class takes 75 deg, though any a1 = a2
#: lattice with theta not in {60, 90} deg realizes it.  Oblique has no class
#: angle and keeps pi/2, which its check rejects.
_CLASS_THETA = {"hexagonal": math.pi / 3.0, "centered-rectangular": math.radians(75.0)}


def _check_kind(kind, lat, tol=1e-9):
    if kind not in BRAVAIS_KINDS:
        raise DomainError(f"unknown lattice kind {kind!r}; expected one of {BRAVAIS_KINDS}")
    eq = math.isclose(lat.a1, lat.a2, rel_tol=tol)
    right = math.isclose(lat.theta, math.pi / 2.0, rel_tol=tol)
    sixty = math.isclose(lat.theta, math.pi / 3.0, rel_tol=tol)
    if kind == "square" and not (eq and right):
        raise DomainError("square lattice requires a1 = a2 and theta = pi/2")
    if kind == "rectangular" and not (right and not eq):
        raise DomainError("rectangular lattice requires a1 != a2 and theta = pi/2")
    if kind == "hexagonal" and not (eq and sixty):
        raise DomainError("hexagonal lattice requires a1 = a2 and theta = pi/3")
    if kind == "centered-rectangular" and not (eq and not right and not sixty):
        raise DomainError(
            "centered-rectangular lattice requires a1 = a2 and theta not in {60, 90} deg"
        )
    if kind == "oblique" and (eq or right):
        raise DomainError("oblique lattice requires a1 != a2 and theta != pi/2")


def bravais_lattice(kind, a1, a2, theta=None):
    """Lattice of Bravais class `kind`; theta (rad) defaults to the class angle.

    An explicit theta must agree with the class, as must a1 and a2.
    """
    if theta is None:
        theta = _CLASS_THETA.get(kind, math.pi / 2.0)
    lat = Lattice2D(a1, a2, theta)
    _check_kind(kind, lat)
    return lat


def bravais_cosine_potential(kind, v0, lat):
    """Cosine potential of one of the five 2D Bravais classes.

    Each cosine star contributes V0/2 at (n, m) and (-n, -m), so the
    real-space potential is V0 * sum_i cos(G_i . r).  Every class puts a star
    on b1 and on b2; hexagonal adds the third first-shell star b1 + b2 (b1
    and b2 meet at 120 deg, so b1 - b2 would be a second-shell vector).
    """
    if v0 <= 0.0:
        raise DomainError("potential strength must be positive")
    _check_kind(kind, lat)
    coeff = {}
    for n, m in _KIND_STARS[kind]:
        coeff[(n, m)] = 0.5 * v0 + 0.0j
        coeff[(-n, -m)] = 0.5 * v0 + 0.0j
    return FourierPotential(coefficients=coeff, lattice=lat)
