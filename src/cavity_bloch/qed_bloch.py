"""QED-Bloch solver: Landau polaritons, the central equation in the combined
Fourier x polariton-level basis, its no-quantized-field limit, the Harper
chain and the polaritonic Harper chain.

Assembled matrices are row-major in (Fourier index, level index); Fourier
indices run -n_max..n_max.  Energies are joules unless a function explicitly
returns scaled dimensionless values.
"""

import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, M_ELECTRON, E_CHARGE
from .errors import CavityBlochError, DomainError, NumericalError
from .numerics import displacement_matrix, hermitian_eigvals
from .output import SpectrumPayload

#: scaled diagonal beyond which a polariton-lattice state is treated as
#: decoupled; far above it float64 eigensolving of the low window degrades
DIAG_SAFE_CAP = 1e9


@dataclass(frozen=True)
class PolaritonParams:
    """Derived parameters of the polaritonic coordinate transform."""

    omega_p: float
    omega_c: float

    def __post_init__(self):
        if self.omega_p <= 0.0 or self.omega_c <= 0.0:
            raise DomainError("polariton transform is singular at zero frequency")

    @property
    def m_p(self):
        """Photon mass-like parameter m_e/omega_p^2 (kg s^2)."""
        return M_ELECTRON / self.omega_p**2

    @property
    def m_c(self):
        return M_ELECTRON / self.omega_c**2

    @property
    def m_total(self):
        """Center-of-mass-like parameter M = (m_p + m_c)/2."""
        return 0.5 * (self.m_p + self.m_c)

    @property
    def inv_m_total(self):
        """1/M, overflow-safe in the omega_p -> 0 limit."""
        return (
            2.0
            * self.omega_p**2
            * self.omega_c**2
            / (M_ELECTRON * (self.omega_p**2 + self.omega_c**2))
        )

    @property
    def mu(self):
        """Relative-coordinate parameter mu = m_p m_c / M = 2 m_e / Omega^2."""
        return 2.0 * M_ELECTRON / self.big_omega**2

    @property
    def big_omega(self):
        """Polariton ladder frequency Omega = sqrt(omega_p^2 + omega_c^2)."""
        return math.hypot(self.omega_p, self.omega_c)

    @property
    def mp_over_m(self):
        """Bounded ratio m_p / M = 2 omega_c^2 / Omega^2 in (0, 2)."""
        return 2.0 * self.omega_c**2 / (self.omega_p**2 + self.omega_c**2)

    @property
    def g(self):
        """Light-matter coupling g = omega_p / omega_c."""
        return self.omega_p / self.omega_c


def landau_polariton_energy(params, k_w, k_z, j, mass_ratio=1.0):
    """hbar^2 k_z^2/2m* + hbar^2 k_w^2/2M + hbar Omega (j + 1/2), in J."""
    if j < 0:
        raise DomainError("level index must be >= 0")
    mass = mass_ratio * M_ELECTRON
    return (
        HBAR**2 * k_z**2 / (2.0 * mass)
        + 0.5 * HBAR**2 * k_w**2 * params.inv_m_total
        + HBAR * params.big_omega * (j + 0.5)
    )


def landau_polariton_branches(b_fields, setup):
    """Upper/lower polariton branch frequencies (rad/s) over a field sweep.

    Upper branch: the ladder frequency Omega(B) = sqrt(omega_p^2 + omega_c^2),
    asymptotic to the cyclotron dispersion.  Lower branch: the ceiling of the
    k_w continuum, (omega_p/2) omega_c^2 / Omega^2, which saturates at
    omega_p/2 and stays below the bare cavity frequency.
    """
    b_fields = np.asarray(b_fields, dtype=float)
    omega_p = setup.omega_p
    omega_c = E_CHARGE * b_fields / (setup.mass_ratio * M_ELECTRON)
    omega2 = omega_p**2 + omega_c**2
    upper = np.sqrt(omega2)
    with np.errstate(invalid="ignore", divide="ignore"):
        lower = np.where(omega2 > 0.0, 0.5 * omega_p * omega_c**2 / omega2, 0.0)
    return {"omega_c": omega_c, "upper": upper, "lower": lower, "lp_ceiling": 0.5 * omega_p}


def screening_chi(g):
    """Magnetic-field screening chi(g) = (2 + 3g^2) / (2 (1+g^2)^{3/2}).

    The screened Landau ladder is hbar e B chi(g)/m_e (j + 1/2); the companion
    mass renormalization is m(g) = m / chi(g).
    """
    if g < 0.0:
        raise DomainError("coupling must be >= 0")
    return (2.0 + 3.0 * g**2) / (2.0 * (1.0 + g**2) ** 1.5)


@dataclass(frozen=True)
class BasisTruncation:
    """Fourier window |n|, |m| <= n_max and level window 0..j_max.

    Every basis holds at least the 2 n_max + 1 Fourier chain, so a chain over
    dimension_cap is refused here; dimension() checks each route's full basis.
    """

    n_max: int
    j_max: int = 0
    dimension_cap: int = 20000

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if self.j_max < 0:
            raise DomainError("j_max must be >= 0")
        if self.n_count > self.dimension_cap:
            raise DomainError(f"basis dimension {self.n_count} exceeds cap {self.dimension_cap}")

    @property
    def n_count(self):
        return 2 * self.n_max + 1

    def dimension(self, fourier_dims=1):
        dim = self.n_count**fourier_dims * (self.j_max + 1)
        if dim > self.dimension_cap:
            raise DomainError(f"basis dimension {dim} exceeds cap {self.dimension_cap}")
        return dim


def alpha_matrix(dn, dm, lat, params):
    """Displacement amplitude alpha_{dn,dm} of the central equation.

    alpha = -sqrt(mu Omega/2 hbar) A^0_dn - i sqrt(hbar/2 mu Omega) G^v_{dm,dn}
    with A^0_dn = hbar G^x_dn/(sqrt(2) m_e) and
    G^v_{dm,dn} = m_p G_{dm,dn}/(sqrt(2) M omega_c).
    """
    mu_omega = params.mu * params.big_omega
    a0 = HBAR * lat.g_x(dn) / (math.sqrt(2.0) * M_ELECTRON)
    gv = params.mp_over_m * lat.g_oblique(dm, dn) / (math.sqrt(2.0) * params.omega_c)
    return -math.sqrt(mu_omega / (2.0 * HBAR)) * a0 - 1j * math.sqrt(HBAR / (2.0 * mu_omega)) * gv


def beta_matrix(dn, dm, lat, omega_c):
    """No-field-limit amplitude beta = sqrt(hbar/2 m_e omega_c)(-G^x_dn - i G_{dm,dn}).

    The omega_p -> 0 limit of alpha_matrix.
    """
    if omega_c <= 0.0:
        raise DomainError("cyclotron frequency must be positive")
    scale = math.sqrt(HBAR / (2.0 * M_ELECTRON * omega_c))
    return scale * (-lat.g_x(dn) - 1j * lat.g_oblique(dm, dn))


def _half_index_kx(lat, k_x, trunc, dn):
    """k_x + G^x_{(n+n')/2} per row index n (n' = n - dn); the half index
    n - dn/2 is exact in binary64."""
    n_vals = np.arange(-trunc.n_max, trunc.n_max + 1)
    return k_x + lat.g_x((2 * n_vals - dn) / 2)


def _fourier_lattice_matrix(diagonal, terms):
    """Dense matrix on the Fourier-lattice x level basis, row-major in
    (n, [m,] level); float64 when every term is real, complex128 otherwise.

    `diagonal` has shape (n_count,)*d + (j_count,).  Each term
    (shift, phases, block) adds phases[n] * block[i, j] at
    ((n, ..., i), (n - shift[0], ..., j)) wherever the shifted Fourier
    indices stay inside the window; the phases depend on n only.
    """
    terms = list(terms)
    real = all(np.isrealobj(phases) and np.isrealobj(block) for _, phases, block in terms)
    shape = diagonal.shape
    n_count = shape[0]
    mat = np.zeros((diagonal.size, diagonal.size), dtype=np.float64 if real else np.complex128)
    np.fill_diagonal(mat, diagonal.ravel())
    view = mat.reshape(shape + shape)
    level = slice(None)
    for shift, phases, block in terms:
        rows = np.ix_(*(np.arange(max(s, 0), n_count + min(s, 0)) for s in shift))
        cols = tuple(r - s for r, s in zip(rows, shift))
        view[(*rows, level, *cols, level)] += phases[rows[0]][..., None, None] * block
    return mat


#: largest distance of 2 a2 cos(theta) / a1 from an integer that still counts
#: as one: the class angles pi/2 and pi/3 miss 0 and 1 by rounding only
MIRROR_TOL = 1e-12


def _x_mirror(pot):
    """c = 2 a2 cos(theta) / a1 if `pot` is symmetric under x -> -x, else None.

    The mirror maps the reciprocal vector (dn, dm) to (-dn, dm - c dn), a
    lattice vector only for integer c.  With V_{-G} = conj(V_G) the symmetry
    reads V_{dn, c dn - dm} = conj(V_{dn, dm}) for every coefficient, checked
    exactly; G_{c dn - dm, dn} = -G_{dm, dn} then holds analytically.
    """
    lat = pot.lattice
    ratio = 2.0 * lat.a2 * math.cos(lat.theta) / lat.a1
    c = round(ratio)
    if abs(ratio - c) > MIRROR_TOL:
        return None
    coeff = pot.coefficients
    if all(coeff.get((dn, c * dn - dm)) == np.conj(v) for (dn, dm), v in coeff.items()):
        return c
    return None


def _coupling_terms(pot, k_x, trunc, phase_scale, amplitude, reduce_m):
    """(shift, phases, block) of each Fourier coefficient V_{dn,dm} of `pot`.

    phases[n] = exp(-i phase_scale G_{dm,dn} (k_x + G^x_{(n+n')/2})) and
    block = V_{dn,dm} <phi_i|D(amplitude(dn, dm))|phi_j>; the shift is (dn,)
    with reduce_m (m summed out) and (dn, dm) otherwise.

    With reduce_m and an x -> -x mirror (_x_mirror), the partner
    (dn, c dn - dm) has -G, so its phases, its amplitude (alpha and beta are
    real multiples of -G^x_dn and -i G) and its V are the complex conjugates
    of the first member's, and both add at the shift (dn,).  The pair is
    yielded from one member as the two real terms 2 Re(phases) Re(block) and
    -2 Im(phases) Im(block).  A coefficient that is its own partner
    (2 dm = c dn) adds the mean of its term and the conjugate: weight 1 in
    place of 2.  The matrix is then real by construction.
    """
    lat = pot.lattice
    j_count = trunc.j_max + 1
    c = _x_mirror(pot) if reduce_m else None
    for (dn, dm), v in pot.coefficients.items():
        if c is not None and c * dn - dm < dm:
            continue  # yielded with its partner
        theta = phase_scale * lat.g_oblique(dm, dn) * _half_index_kx(lat, k_x, trunc, dn)
        phases = np.exp(-1j * theta)
        block = v * displacement_matrix(j_count, amplitude(dn, dm))
        if c is None:
            yield ((dn,) if reduce_m else (dn, dm)), phases, block
        else:
            weight = 1.0 if c * dn - dm == dm else 2.0
            yield (dn,), weight * phases.real, block.real
            yield (dn,), -weight * phases.imag, block.imag


def assemble_central_matrix(pot, params, k_x, k_w, trunc, reduce_m=False):
    """QED-Bloch central-equation matrix for a 2D crystal in field + cavity.

    Basis (n, m, j): diagonal hbar^2 (k_w + G^w_{m,n})^2/2M + hbar Omega (j+1/2),
    couplings V_{dn,dm} exp(-i G^v A^{k_x}_{(n+n')/2}) <phi_i|D(alpha_{dn,dm})|phi_j>.

    With reduce_m=True the matrix is projected on the zero-Bloch-phase sector
    of the w-Fourier lattice (basis (n, j), couplings summed over dm) -- the
    sector that survives the no-quantized-field limit, where the m index
    becomes redundant.  That reduced matrix is real (float64) when the
    potential has an x -> -x mirror (_coupling_terms); otherwise, and always
    without reduce_m, it is complex.
    """
    lat = pot.lattice
    trunc.dimension(fourier_dims=1 if reduce_m else 2)
    ladder = HBAR * params.big_omega * (np.arange(trunc.j_max + 1) + 0.5)
    # G^v A^{k_x}_s = (m_p/M) hbar G_{dm,dn} (k_x + G^x_s) / (2 omega_c m_e)
    scale = params.mp_over_m * HBAR / (2.0 * params.omega_c * M_ELECTRON)
    terms = _coupling_terms(pot, k_x, trunc, scale,
                            lambda dn, dm: alpha_matrix(dn, dm, lat, params), reduce_m)
    if reduce_m:
        return _fourier_lattice_matrix(np.broadcast_to(ladder, (trunc.n_count, ladder.size)), terms)

    n_vals = np.arange(-trunc.n_max, trunc.n_max + 1)
    g_w = lat.g_oblique(n_vals[None, :], n_vals[:, None]) / (math.sqrt(2.0) * params.omega_c)
    kinetic = 0.5 * HBAR**2 * (k_w + g_w) ** 2 * params.inv_m_total
    return _fourier_lattice_matrix(kinetic[:, :, None] + ladder, terms)


def assemble_llb_matrix(pot, omega_c, k_x, trunc):
    """No-quantized-field central equation: Landau levels x Bloch waves.

    The omega_p -> 0 limit of the reduced central equation.  Basis (n, i):
    diagonal hbar omega_c (i + 1/2); couplings
    V_{dn,m'} exp(-i hbar (k_x + G^x_{(n+n')/2}) G_{m',dn} / (m_e omega_c))
    <phi_i|D(beta_{dn,m'})|phi_j>, summed over the potential's m' content.
    Real (float64) when the potential has an x -> -x mirror (square,
    rectangular and hexagonal cosine potentials), complex otherwise.
    """
    if omega_c <= 0.0:
        raise DomainError("cyclotron frequency must be positive")
    lat = pot.lattice
    trunc.dimension(fourier_dims=1)
    ladder = HBAR * omega_c * (np.arange(trunc.j_max + 1) + 0.5)
    terms = _coupling_terms(pot, k_x, trunc, HBAR / (M_ELECTRON * omega_c),
                            lambda dn, dm: beta_matrix(dn, dm, lat, omega_c), reduce_m=True)
    return _fourier_lattice_matrix(np.broadcast_to(ladder, (trunc.n_count, ladder.size)), terms)


def harper_hopping(flux, v_amplitude):
    """Flux-dependent hopping t(Phi) = V exp(-pi Phi0 / 2 Phi)."""
    if flux <= 0.0:
        raise DomainError("flux ratio must be positive")
    return v_amplitude * math.exp(-0.5 * math.pi / flux)


def harper_matrix(flux, kx_a, n_max, hop=1.0, onsite=1.0):
    """Dimensionless Harper chain at crystal momentum k_x (kx_a = k_x * a).

    E U_n = hop (U_{n-1} + U_{n+1}) + 2 onsite cos(2 pi (Phi0/Phi)(kx_a/2pi + n)) U_n
    over |n| <= n_max, for one kx_a.  With the defaults, unscaled
    square-lattice energies follow from its eigenvalues as
    E = hbar omega_c / 2 + harper_hopping(flux, V) * eigenvalue.
    """
    if flux <= 0.0:
        raise DomainError("flux ratio must be positive")
    n_vals = np.arange(-n_max, n_max + 1)
    size = n_vals.size
    diag = 2.0 * onsite * np.cos(2.0 * math.pi / flux * (kx_a / (2.0 * math.pi) + n_vals))
    mat = np.zeros((size, size))
    # diagonal, upper and lower diagonal as basic slices of a flat view
    flat = mat.reshape(size * size)
    flat[:: size + 1] = diag
    flat[1 :: size + 1] = hop
    flat[size :: size + 1] = hop
    return mat


def harper_bloch_matrix(p, q, kappa, theta):
    """q x q Bloch reduction of the infinite Harper chain at reciprocal flux p/q.

    Diagonal 2 cos(2 pi p r / q + theta); every forward hop carries the chain
    Bloch phase e^{i kappa}, wrapping modulo q (q = 1 and q = 2, where both
    neighbors alias onto one element, come out automatically).  kappa and
    theta broadcast against each other; the result is a (..., q, q) stack.
    """
    if q < 1 or p < 1:
        raise DomainError("need positive integers p, q")
    if math.gcd(p, q) != 1:
        raise DomainError("p/q must be in lowest terms")
    kappa, theta = np.broadcast_arrays(np.asarray(kappa, dtype=float),
                                       np.asarray(theta, dtype=float))
    r = np.arange(q)
    mat = np.zeros(kappa.shape + (q, q), dtype=np.complex128)
    mat[..., r, r] = 2.0 * np.cos(2.0 * math.pi * p / q * r + theta[..., None])
    fwd = np.exp(1j * kappa)[..., None]
    mat[..., r, (r + 1) % q] += fwd
    mat[..., r, (r - 1) % q] += np.conj(fwd)
    return mat


def harper_exact_bands(p, q):
    """Exact band intervals of the Harper spectrum at reciprocal flux p/q.

    det(E - H(kappa, theta)) + 2 cos(q kappa) + 2 cos(q theta) = D(E) with a
    k-independent polynomial D, so the spectrum is {E : |D(E)| <= 4} and the
    band edges are the roots of D(E) = +-4.  Returns a (q, 2) array of
    [lower, upper] edges, ascending; for even q the two central intervals
    share an edge (the well-known band kissing).
    """
    kappa0, theta0 = 0.3137, 0.7477
    lam = np.linalg.eigvalsh(harper_bloch_matrix(p, q, kappa0, theta0))
    poly = np.poly(lam)  # det(E - H) at the reference point
    offset = 2.0 * math.cos(q * kappa0) + 2.0 * math.cos(q * theta0)
    edges = []
    for target in (4.0, -4.0):
        shifted = poly.copy()
        shifted[-1] += offset - target
        roots = np.roots(shifted)
        if np.max(np.abs(roots.imag)) > 1e-7:
            raise NumericalError(f"complex band-edge roots at p/q = {p}/{q}")
        edges.extend(np.sort(roots.real))
    edges = np.sort(np.asarray(edges))
    return edges.reshape(q, 2)


def harper_bloch_union(p, q, samples=200000):
    """Low-discrepancy sampling of the exact Harper spectrum at p/q.

    Batched diagonalization over a golden-ratio lattice in (kappa, theta);
    deterministic, and dense enough that intra-band spacings sit well below
    band-counting thresholds while measure-zero band touchings stay resolved.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    idx = np.arange(samples)
    kappa = (idx + 0.5) / samples * (2.0 * math.pi)
    theta = np.mod((idx + 0.5) * golden, 1.0) * (2.0 * math.pi)
    out = [np.linalg.eigvalsh(harper_bloch_matrix(p, q, kappa[start : start + 20000],
                                                  theta[start : start + 20000])).ravel()
           for start in range(0, samples, 20000)]
    return np.sort(np.concatenate(out))


def polariton_hoppings(flux, g):
    """Scaled hoppings (t1/S, t2/S) of the polaritonic Harper equation.

    t1 = V0 exp(-pi Phi0/(2 Phi sqrt(1+g^2))), t2 with the 3/2 power,
    S = t1 + t2.  Evaluated in log space so deep suppression stays finite.
    """
    if flux <= 0.0:
        raise DomainError("flux ratio must be positive")
    if g < 0.0:
        raise DomainError("coupling must be >= 0")
    delta = _log_t2_minus_log_t1(flux, g)
    tau1 = 1.0 / (1.0 + math.exp(min(delta, 700.0)))
    return tau1, 1.0 - tau1


def _log_t2_minus_log_t1(flux, g):
    base = 0.5 * math.pi / flux
    one_plus = 1.0 + g * g
    return base * (1.0 / math.sqrt(one_plus) - 1.0 / one_plus**1.5)


def _log_s_over_v0(flux, g):
    """ln(S / V0) with S = t1 + t2."""
    base = 0.5 * math.pi / flux
    one_plus = 1.0 + g * g
    log_t2 = -base / one_plus**1.5
    delta = _log_t2_minus_log_t1(flux, g)
    return log_t2 + math.log1p(math.exp(-min(delta, 700.0)))


def polariton_scaled_kinetic(flux, g, kw_scaled, m, a1, v0):
    """Scaled diagonal kinetic term kinetic/S of the polariton lattice.

    kinetic = hbar^2 (kw_scaled + 2 pi m/a1)^2 / (2 m_e (1 + g^-2)) with
    kw_scaled = sqrt(2) omega_c k_w (1/m units); returns inf on float overflow.
    """
    if g == 0.0:
        return 0.0
    one_plus = 1.0 + g * g
    kin = (
        HBAR**2
        * (kw_scaled + 2.0 * math.pi * m / a1) ** 2
        / (2.0 * M_ELECTRON)
        * (g * g / one_plus)
    )
    if kin == 0.0:
        return 0.0
    log_scaled = math.log(kin / v0) - _log_s_over_v0(flux, g)
    if log_scaled > 700.0:
        return math.inf
    return math.exp(log_scaled)


#: below this coupling the m lattice is redundant (Harper limit) and the
#: reduced mode is exact to better than the g^2 flux renormalization
G_REDUCED_THRESHOLD = 1e-4

#: explicit matrix mode is only informative when the first m-ladder rung
#: disperses within this many scaled units of the spectral window
MATRIX_KINETIC_WINDOW = 1e2


def polariton_route(flux, g, a1, v0, kw_scaled=0.0, mode="auto"):
    """The route polariton_harper_matrix takes at (flux, g, k_w): "matrix" or
    "reduced".  An explicit mode is its own route; mode="auto" takes the
    reduced route below G_REDUCED_THRESHOLD, and where the first m rung sits
    more than MATRIX_KINETIC_WINDOW scaled units above the band window (there
    the m ladder is inert and the published reduced treatment applies), the
    matrix route otherwise.  The route does not depend on k_x."""
    if mode not in ("auto", "matrix", "reduced"):
        raise DomainError(f"unknown mode {mode!r}")
    if flux <= 0.0:
        raise DomainError("flux ratio must be positive")
    if g < 0.0:
        raise DomainError("coupling must be >= 0")
    if mode != "auto":
        return mode
    rung = min(polariton_scaled_kinetic(flux, g, kw_scaled, m, a1, v0) for m in (1, -1))
    return "matrix" if g > G_REDUCED_THRESHOLD and rung <= MATRIX_KINETIC_WINDOW else "reduced"


def polariton_harper_matrix(flux, g, kx_a, kw_scaled, trunc, a1, v0, mode="auto"):
    """Matrix of the polaritonic Harper problem, in units of S(Phi,g) = t1 + t2
    and measured from the lowest polariton level.  The route taken
    (polariton_route) shows in its size: 2 n_max + 1 rows for the reduced
    chain, (2 n_max + 1)^2 for the (n, m) lattice.

    mode="matrix": explicit (n, m) lattice with the scaled kinetic diagonal;
    sound when that diagonal fits in float64 (order-one flux).
    mode="reduced": kinetic dropped and the m direction Bloch-reduced exactly,
    leaving a 1D anisotropic Harper chain with effective reciprocal flux
    (Phi0/Phi)/(1+g^2) -- the regime of the published small-flux coupling
    sweeps, where the scaled kinetic term dwarfs float64.  The chain does not
    depend on kw_scaled.
    mode="auto": the route polariton_route picks.

    g -> 0 is continuous in reduced mode (both hoppings -> 1/2, the Harper
    spectrum halved); the 1 + g^-2 overflow never occurs because the kinetic
    term is evaluated through g^2/(1+g^2).

    On the (n, m) lattice k_x enters only through one phase shift of every m
    hop, Delta(k_x) = kx_a / ((Phi/Phi0) (1 + g^2)); the kinetic diagonal
    depends on k_w and m alone, and the m chain is open.  So the diagonal
    gauge U = diag_{(n, m)} e^{i m (Delta(k_x') - Delta(k_x))} gives
    U^H H(k_x) U = H(k_x') (the magnetic translation of Zak, Phys. Rev. 134,
    A1602 (1964)): the spectrum is the same at every k_x of one (g, k_w).

    At kw_scaled = 0 the (n, m) lattice H obeys H* = P H P exactly, with P
    the parity m -> -m: the m hops carry e^{+-i phase_arg[n]} and the kinetic
    diagonal is even in m.  So S = (1 + iP)/sqrt(2) is unitary and
    S^H H S = Re H - Im(H) P is real symmetric with the spectrum of H; that
    real matrix is returned.  Otherwise H itself is.
    """
    mode = polariton_route(flux, g, a1, v0, kw_scaled, mode)
    tau1, tau2 = polariton_hoppings(flux, g)
    if mode == "reduced":
        return harper_matrix(flux * (1.0 + g * g), kx_a, trunc.n_max, hop=tau1, onsite=tau2)

    trunc.dimension(fourier_dims=2)
    n_count = trunc.n_count
    n_vals = np.arange(-trunc.n_max, trunc.n_max + 1)
    phase_arg = 2.0 * math.pi / (flux * (1.0 + g * g)) * (kx_a / (2.0 * math.pi) + n_vals)
    kinetic = np.array([min(polariton_scaled_kinetic(flux, g, kw_scaled, int(m), a1, v0),
                            DIAG_SAFE_CAP) for m in n_vals])
    # (n, m) lattice of 1x1 blocks: kinetic[m] on the diagonal, tau1 hops
    # along n, tau2 e^{+-i phase_arg[n]} hops along m
    diagonal = np.broadcast_to(kinetic[:, None], (n_count,) * 2 + (1,))
    hop_n = np.full(n_count, tau1)
    hop_m = tau2 * np.exp(1j * phase_arg)
    one = np.ones((1, 1))
    terms = [((1, 0), hop_n, one), ((-1, 0), hop_n, one),
             ((0, -1), hop_m, one), ((0, 1), hop_m.conj(), one)]
    mat = _fourier_lattice_matrix(diagonal, terms)
    if kw_scaled != 0.0:
        return mat
    # Im(H) P: the m columns of Im H reversed inside each n block
    im_p = mat.imag.reshape((n_count,) * 4)[..., ::-1].reshape(mat.shape)
    return mat.real - im_p


def _solve_axis(assembler, axis, k_grid, partners, failures, label):
    """Eigenvalues of every k point of one axis value (empty where it failed).

    Each point that is its own partner is assembled and its matrix solved
    alone; every other point shares its partner's array, and its failure.
    Each failure is appended to `failures` as "<label>, k[<index>]: <message>",
    in k order."""
    row = []
    errors = {}  # k index of a failed point -> its failure message
    for k_idx, (k, partner) in enumerate(zip(k_grid, partners)):
        if partner != k_idx:
            row.append(row[partner])  # shares its partner's spectrum
        else:
            try:
                row.append(hermitian_eigvals(assembler(axis, k)))
            except (CavityBlochError, FloatingPointError) as exc:
                errors[k_idx] = str(exc)
                row.append(np.empty(0))
        if partner in errors:
            failures.append(f"{label}, k[{k_idx}]: {errors[partner]}")
    return row


def _available_cpus():
    """CPUs this process may run on: its affinity mask, which `taskset`
    narrows; 1 where the platform has no fork or no affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """BLAS threads per process, read as OpenBLAS reads them: the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that holds a
    positive integer, else one per available CPU, OpenBLAS's own default."""
    values = (os.environ.get(name, "").strip()
              for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    return next((int(v) for v in values if v.isdecimal() and int(v) > 0), _available_cpus())


class _ShareTraceback(Exception):
    """The traceback text of an exception raised in a forked sweep process,
    set as the cause of that exception where the sweep re-raises it."""


def _deliver_share(solve_share, share, procs, read_fd, write_fd):
    """Body of a forked sweep process: send solve_share(share, procs), or the
    exception it raised, as one pickle through the pipe `write_fd`.  Ends the
    process; never returns into the stack it was forked from."""
    status = 1
    try:
        os.close(read_fd)
        try:
            message = ("rows", solve_share(share, procs))
        except BaseException as exc:  # not swallowed: the parent re-raises it
            message = ("error", exc, traceback.format_exc())
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception whose arguments do not pickle
            data = pickle.dumps(("error", RuntimeError(repr(message[1])), message[2]))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _received_share(data, status, share, procs):
    """The rows a forked sweep process sent, or the exception it raised."""
    try:
        message = pickle.loads(data) if status == 0 else None
    except Exception:  # a share cut short, or an exception that does not unpickle
        message = None
    if message is None:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise NumericalError(f"the sweep process of axis[{share}::{procs}] ended "
                             f"without delivering its rows ({how})")
    if message[0] == "error":
        raise message[1] from _ShareTraceback(message[2])
    return message[1]


def _forked_shares(solve_share, procs):
    """solve_share(share, procs) for every share in range(procs), merged into
    one dict: share 0 in this process, each other share in a forked child that
    sends it back as one pickle through a pipe.  None, with the children
    already started ended, if a fork fails.

    Every child is reaped before this returns or raises; when this process's
    own share, or reading a child's, raises, the other children are killed.
    A child's exception is re-raised here with its type; a child that ends
    without delivering its share raises NumericalError."""
    children = []  # (pid, read end of its pipe, share) of each child not yet reaped
    try:
        for share in range(1, procs):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return None
            if pid == 0:
                _deliver_share(solve_share, share, procs, read_fd, write_fd)
            os.close(write_fd)  # so that the pipe ends when the child does
            children.append((pid, os.fdopen(read_fd, "rb"), share))
        shares = solve_share(0, procs)
        while children:
            pid, pipe, share = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            shares.update(_received_share(data, status, share, procs))
        return shares
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def sweep(assembler, axis_values, k_grid, partners=None):
    """Solve `assembler(axis_value, k)` -- one Hermitian matrix per point --
    over every axis value and every k of `k_grid`.

    Each matrix is solved alone by `hermitian_eigvals`.  A point whose
    matrix the assembler cannot build (it raises a package error or a
    floating-point error) or whose matrix fails to solve is recorded in the
    result's failures and keeps an empty eigenvalue array.  Any other
    exception propagates.

    Returns an output.SpectrumPayload (no columns) that carries `partners`,
    one partner map per axis value (c2_partners, polariton_partners; None
    makes each point its own partner): a point whose partner in its axis
    value's map is another, earlier point is neither assembled nor solved,
    and takes that point's eigenvalue array (the same object) or its failure
    message, under its own k label.  A map whose partner is not an earlier
    point that is its own partner raises DomainError.

    The axis values are split across P processes, P the CPUs this process
    may run on (_available_cpus) // its BLAS threads (_blas_threads), at
    least 1 and at most the number of axis values, so that BLAS threads do
    not oversubscribe the CPUs; with no BLAS thread variable set, BLAS runs
    one thread per CPU and P is 1.
    Process r solves the axis indices equal to r mod P, this process share 0
    and P - 1 forked children the others.  Each process solves the same
    matrices as a serial sweep, so the result is bitwise the same for any P.
    The sweep runs in this process alone when P is 1, when other threads run
    (fork copies only the calling thread) and when a fork fails.  An
    exception raised in a child is raised here with its type; a child that
    ends without delivering its share raises NumericalError.  Every child is
    reaped before the sweep returns or raises.
    """
    axis_values = np.asarray(axis_values, dtype=float)
    if axis_values.size == 0:
        raise DomainError("empty sweep axis")
    if np.any(np.diff(axis_values) < 0.0):
        raise DomainError("sweep axis must be monotone")
    k_grid = list(k_grid)
    if partners is None:
        partners = [range(len(k_grid))] * axis_values.size
    try:
        partners = [list(per_axis) for per_axis in partners]
    except TypeError as exc:
        raise DomainError("need one partner map per axis value") from exc
    if len(partners) != axis_values.size:
        raise DomainError("need one partner map per axis value")
    for per_axis in partners:
        if len(per_axis) != len(k_grid) or any(p > idx or per_axis[p] != p
                                               for idx, p in enumerate(per_axis)):
            raise DomainError("each k point's partner must be itself or an earlier, "
                              "solved point")

    def solve_share(share, procs):
        """{axis index: (row, its failures)} of the axis indices equal to
        `share` mod `procs`."""
        rows = {}
        for a_idx in range(share, axis_values.size, procs):
            axis = axis_values[a_idx]
            failures = []
            row = _solve_axis(assembler, axis, k_grid, partners[a_idx], failures,
                              f"axis[{a_idx}]={axis:g}")
            rows[a_idx] = (row, failures)
        return rows

    procs = min(max(1, _available_cpus() // _blas_threads()), axis_values.size)
    shares = None
    if procs > 1 and threading.active_count() == 1:
        shares = _forked_shares(solve_share, procs)
    if shares is None:
        shares = solve_share(0, 1)
    rows = [shares[a_idx] for a_idx in range(axis_values.size)]
    return SpectrumPayload(
        axis_values=axis_values,
        eigenvalues=[row for row, _ in rows],
        k_labels=[tuple(np.atleast_1d(k)) for k in k_grid],
        partners=partners,
        failures=[message for _, failures in rows for message in failures],
    )


def midpoint_kx_grid(points):
    """k_x * a1 values at midpoints of a uniform Brillouin-zone grid.

    Midpoints avoid the measure-zero band-touching momenta of even-q
    Hofstadter spectra, keeping gap counting well defined on finite grids.
    The grid is exactly antisymmetric, k[points - 1 - i] == -k[i], with the
    middle point of an odd grid exactly 0.0, so c2_partners pairs every point.
    """
    if points < 1:
        raise DomainError("need at least one k point")
    step = 2.0 * math.pi / points
    half = (-math.pi + (np.arange(points // 2) + 0.5) * step).tolist()
    return half + [0.0] * (points % 2) + [-k for k in reversed(half)]


def c2_symmetric(pot):
    """True if `pot` is symmetric under the C2 rotation r -> -r:
    V_{-dn,-dm} == V_{dn,dm} exactly for every coefficient.

    In the Landau gauge C2 maps k_x to -k_x.  The coefficient (-dn, -dm) has
    -G and -G^x, so at -k_x and the reversed Fourier index it carries the
    phases of (dn, dm) and the amplitude -beta (or -alpha); with
    D(-beta) = P D(beta) P, P = diag((-1)^j), the LLB and reduced central
    matrices obey A(-k_x) = U A(k_x) U^T with U = J (x) P, J reversing n.
    Every bravais_cosine_potential passes; mirrors _x_mirror.
    """
    coeff = pot.coefficients
    return all(coeff.get((-dn, -dm)) == v for (dn, dm), v in coeff.items())


def c2_partners(k_grid):
    """For each point of `k_grid`, the index of the point it shares its
    spectrum with under C2 (k -> -k): the earlier point equal to -k exactly,
    resolved to a point that is its own partner, else its own index.

    A (kx, kw) tuple maps to (-kx, -kw).  Spectra agree at the partners of a
    Harper chain (harper_matrix(F, -k) = J H(F, k) J, J reversing n), of the
    polariton matrix at kw = 0 (the (n, m) order reversed) and of the LLB and
    reduced central matrices of a c2_symmetric potential.  The sweep takes
    one map per axis value; polariton_partners shares more on the polariton
    matrix, whose spectrum does not depend on k_x.
    """
    first = {}  # k as a tuple -> its first index
    partners = []
    for idx, k in enumerate(k_grid):
        key = tuple(np.atleast_1d(k).tolist())
        partner = first.get(tuple(-x for x in key))
        partners.append(idx if partner is None else partners[partner])
        first.setdefault(key, idx)
    return partners


def polariton_partners(flux, g, k_grid, a1, v0, mode="auto"):
    """The partner map of the (kx_a, kw_scaled) points `k_grid` of one
    coupling g, for polariton_harper_matrix: each point shares the spectrum
    of the first point with the same key, which is its own partner.

    On the matrix route (polariton_route) the key is k_w: the spectrum does
    not depend on k_x (the gauge U of polariton_harper_matrix), so one point
    per k_w is solved.  The reduced chain does not depend on k_w, and at
    -k_x it is the chain at k_x reversed (c2_partners), so on the reduced
    route the key is |k_x|.
    """
    first = {}  # key -> the first index that has it
    partners = []
    for kx_a, kw_scaled in k_grid:
        if polariton_route(flux, g, a1, v0, kw_scaled, mode) == "matrix":
            key = ("matrix", kw_scaled)
        else:
            key = ("reduced", abs(kx_a))
        partners.append(first.setdefault(key, len(partners)))
    return partners


def count_bands(values, gap_threshold):
    """Number of clusters separated by gaps larger than gap_threshold."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return 0
    return int(1 + np.sum(np.diff(values) > gap_threshold))


def spectral_gaps(values, gap_threshold):
    """(lower, upper) edges of every internal gap wider than gap_threshold."""
    values = np.sort(np.asarray(values, dtype=float))
    gaps = []
    diffs = np.diff(values)
    for idx in np.nonzero(diffs > gap_threshold)[0]:
        gaps.append((float(values[idx]), float(values[idx + 1])))
    return gaps


def coupling_window_end(g_values, gap_counts, fraction=0.25):
    """Band-splitting window end from a coupling sweep's gap counts.

    The butterfly regime shows a rich plateau of spectral gaps; beyond the
    window the spectrum collapses toward the bare polariton ladder and the
    count drops.  A 3-point median tames isolated rational-flux spikes; the
    window ends at the first post-peak drop below `fraction` of the peak.
    """
    g_values = np.asarray(g_values, dtype=float)
    counts = np.asarray(gap_counts, dtype=float)
    if g_values.shape != counts.shape or g_values.size < 3:
        raise DomainError("need matching g and count arrays of length >= 3")
    smooth = np.array(
        [np.median(counts[max(0, i - 1) : i + 2]) for i in range(counts.size)]
    )
    peak_idx = int(np.argmax(smooth))
    peak = smooth[peak_idx]
    if peak < 2.0:
        return float(g_values[0])
    cutoff = fraction * peak
    for idx in range(peak_idx, counts.size):
        if smooth[idx] < cutoff:
            return float(g_values[idx])
    return float(g_values[-1])
