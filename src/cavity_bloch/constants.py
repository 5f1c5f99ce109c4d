"""Frozen CODATA 2018 constants, unit conversions and the response grid
defaults.

Every dimensionful number in the package traces back to this table; no other
module hard-codes a physical constant.  The grid defaults live here so that
config reads them without importing response.
"""

import math

# exact by SI definition (CODATA 2018)
E_CHARGE = 1.602176634e-19       # C
H_PLANCK = 6.62607015e-34        # J s
C_LIGHT = 299792458.0            # m/s

# measured (CODATA 2018)
M_ELECTRON = 9.1093837015e-31    # kg
EPSILON_0 = 8.8541878128e-12     # F/m

HBAR = H_PLANCK / (2.0 * math.pi)          # J s
FLUX_QUANTUM = H_PLANCK / E_CHARGE         # Wb, h/e
CONDUCTANCE_QUANTUM = E_CHARGE**2 / H_PLANCK  # S, e^2/h

# unit conversions used at the I/O boundary
EV = E_CHARGE                # J per eV
ANGSTROM = 1e-10             # m
CM2_DENSITY = 1e4            # (1/cm^2) -> (1/m^2)
THZ = 1e12                   # Hz per THz (ordinary frequency)

#: default response grid and broadening of the CLI's [grid] section
DEFAULT_GRID_POINTS = 4001
DEFAULT_GRID_SPAN = 5.0       # in units of omega_tilde
DEFAULT_ETA_FRACTION = 0.01   # eta = omega_tilde / 100
