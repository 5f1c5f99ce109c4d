"""QED-Bloch solver: Landau polaritons, the central equation in the combined
Fourier x polariton-level basis, its no-quantized-field limit, the Harper
chain and the polaritonic Harper chain.

Assembled matrices are row-major in (Fourier index, level index); Fourier
indices run -n_max..n_max.  Energies are joules unless a function explicitly
returns scaled dimensionless values.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .constants import HBAR, M_ELECTRON, E_CHARGE
from .errors import CavityBlochError, DomainError, NumericalError
from .numerics import HERMITICITY_RTOL, displacement_matrix, hermitian_eigvals
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
        return (2.0 * self.omega_p**2 * self.omega_c**2
                / (M_ELECTRON * (self.omega_p**2 + self.omega_c**2)))

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
    return (HBAR**2 * k_z**2 / (2.0 * mass) + 0.5 * HBAR**2 * k_w**2 * params.inv_m_total
            + HBAR * params.big_omega * (j + 0.5))


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


@dataclass(frozen=True, eq=False)  # arrays compare elementwise: equality is identity
class CouplingTerms:
    """A Fourier-lattice x level matrix as a function of k_x: on the flat
    positions `index` of a dim x dim matrix, `diagonal` plus
    e^{-i freqs[t] k_x} band[t] for each term t.  On the real route each term
    stands for its real part: band rows 2t and 2t + 1 take cos and sin of
    freqs[t] k_x, and all is float64."""

    dim: int
    index: np.ndarray
    diagonal: np.ndarray
    freqs: np.ndarray
    band: np.ndarray

    def matrix(self, k_x):
        """The dense matrix at k_x, its terms added one by one in order."""
        coeffs = np.exp(-1j * (self.freqs * k_x))
        if np.isrealobj(self.band):  # cos(f_t k_x), sin(f_t k_x) for rows 2t, 2t + 1
            coeffs = coeffs.conj().view(np.float64)
        values = self.diagonal.copy()
        for coeff, row in zip(coeffs, self.band):
            values += coeff * row
        mat = np.zeros((self.dim, self.dim), dtype=self.band.dtype)
        mat.reshape(-1)[self.index] = values
        return mat


def _fourier_terms(diagonal, terms, real=False):
    """CouplingTerms on the Fourier-lattice x level basis, row-major in
    (n, [m,] level); `diagonal` has shape (n_count,)*d + (j_count,).  Each
    term (shift, freq, phases, block) adds e^{-i freq k_x} phases[n]
    block[i, j], or with real=True its real part, at ((n, ..., i),
    (n - shift[0], ..., j)) wherever the shifted Fourier indices stay inside
    the window.  The terms of one shift share its band columns."""
    shape, dim, level = diagonal.shape, diagonal.size, slice(None)
    flat = np.arange(dim).reshape(shape)
    zero, spans, stop = (0,) * (diagonal.ndim - 1), {}, 0  # shift -> (columns, rows, positions)
    for shift in dict.fromkeys([zero] + [term[0] for term in terms]):
        rows = np.ix_(*(np.arange(max(s, 0), shape[0] + min(s, 0)) for s in shift))
        cols = tuple(r - s for r, s in zip(rows, shift))
        pos = flat[(*rows, level)][..., :, None] * dim + flat[(*cols, level)][..., None, :]
        spans[shift] = (slice(stop, stop + pos.size), rows[0], pos)
        stop += pos.size
    band = np.zeros((1 + len(terms) * (1 + real), stop), np.float64 if real else np.complex128)
    blocks = band[0, spans[zero][0]].reshape(-1, shape[-1] ** 2)  # one level block a row
    blocks[:, :: shape[-1] + 1] = diagonal.reshape(blocks.shape[0], -1)
    for out, (shift, _, phases, block) in zip(band[1:].reshape(len(terms), 1 + real, stop), terms):
        columns, rows, pos = spans[shift]
        value = np.broadcast_to(phases[rows][..., None, None] * block, pos.shape).ravel()
        out[:, columns] = (value.real, value.imag) if real else (value,)
    index = np.concatenate([pos.ravel() for _, _, pos in spans.values()])
    return CouplingTerms(dim, index, band[0], np.array([t[1] for t in terms]), band[1:])


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


def _potential_terms(pot, trunc, diagonal, phase_scale, amplitude, reduce_m):
    """CouplingTerms of `diagonal` and one term per Fourier coefficient
    V_{dn,dm} of `pot` at the shift (dn,) with reduce_m (m summed out), else
    (dn, dm): frequency f = phase_scale G_{dm,dn}, phases
    exp(-i f G^x_{(n+n')/2}) (the half index n - dn/2 is exact in binary64),
    block V_{dn,dm} <phi_i|D(amplitude(dn, dm))|phi_j>.

    With reduce_m and an x -> -x mirror (_x_mirror), the partner
    (dn, c dn - dm) has -G, and its phases, amplitude and V are the complex
    conjugates of the first member's: the pair is one real-route term of
    twice the first member's block (weight 1 for its own partner,
    2 dm = c dn), so the matrix is real by construction."""
    lat = pot.lattice
    c = _x_mirror(pot) if reduce_m else None
    n_vals = np.arange(-trunc.n_max, trunc.n_max + 1)
    terms = []
    for (dn, dm), v in pot.coefficients.items():
        if c is not None and c * dn - dm < dm:
            continue  # added with its partner
        weight = 2.0 if c is not None and c * dn - dm != dm else 1.0
        freq = phase_scale * lat.g_oblique(dm, dn)
        phases = np.exp(-1j * (freq * lat.g_x((2 * n_vals - dn) / 2)))
        block = weight * v * displacement_matrix(trunc.j_max + 1, amplitude(dn, dm))
        terms.append(((dn,) if reduce_m else (dn, dm), freq, phases, block))
    return _fourier_terms(diagonal, terms, real=c is not None)


def assemble_central_matrix(pot, params, k_x, k_w, trunc, reduce_m=False):
    """QED-Bloch central-equation matrix for a 2D crystal in field + cavity.

    Basis (n, m, j): diagonal hbar^2 (k_w + G^w_{m,n})^2/2M + hbar Omega (j+1/2),
    couplings V_{dn,dm} exp(-i G^v A^{k_x}_{(n+n')/2}) <phi_i|D(alpha_{dn,dm})|phi_j>.

    With reduce_m=True the matrix is projected on the zero-Bloch-phase sector
    of the w-Fourier lattice (basis (n, j), couplings summed over dm) -- the
    sector that survives the no-quantized-field limit, where the m index
    becomes redundant.  That reduced matrix is real (float64) when the
    potential has an x -> -x mirror (_potential_terms); otherwise, and always
    without reduce_m, it is complex.
    """
    lat = pot.lattice
    trunc.dimension(fourier_dims=1 if reduce_m else 2)
    ladder = HBAR * params.big_omega * (np.arange(trunc.j_max + 1) + 0.5)
    # G^v A^{k_x}_s = (m_p/M) hbar G_{dm,dn} (k_x + G^x_s) / (2 omega_c m_e)
    scale = params.mp_over_m * HBAR / (2.0 * params.omega_c * M_ELECTRON)
    diagonal = np.broadcast_to(ladder, (trunc.n_count, ladder.size))
    if not reduce_m:  # k_w enters the diagonal only
        n_vals = np.arange(-trunc.n_max, trunc.n_max + 1)
        g_w = lat.g_oblique(n_vals[None, :], n_vals[:, None]) / (math.sqrt(2.0) * params.omega_c)
        kinetic = 0.5 * HBAR**2 * (k_w + g_w) ** 2 * params.inv_m_total
        diagonal = kinetic[:, :, None] + ladder
    return _potential_terms(pot, trunc, diagonal, scale,
                            lambda dn, dm: alpha_matrix(dn, dm, lat, params),
                            reduce_m).matrix(k_x)


def llb_terms(pot, omega_c, trunc):
    """CouplingTerms of the no-quantized-field central equation at one flux:
    Landau levels x Bloch waves, for every k_x.

    The omega_p -> 0 limit of the reduced central equation.  Basis (n, i):
    diagonal hbar omega_c (i + 1/2); couplings
    V_{dn,m'} exp(-i hbar (k_x + G^x_{(n+n')/2}) G_{m',dn} / (m_e omega_c))
    <phi_i|D(beta_{dn,m'})|phi_j>, summed over the potential's m' content.
    Real (float64) when the potential has an x -> -x mirror (square,
    rectangular and hexagonal cosine potentials), complex otherwise.
    """
    if not 0.0 < omega_c < math.inf:
        raise DomainError(f"cyclotron frequency must be positive and finite, not {omega_c:g}")
    lat = pot.lattice
    trunc.dimension(fourier_dims=1)
    ladder = HBAR * omega_c * (np.arange(trunc.j_max + 1) + 0.5)
    return _potential_terms(pot, trunc, np.broadcast_to(ladder, (trunc.n_count, ladder.size)),
                            HBAR / (M_ELECTRON * omega_c),
                            lambda dn, dm: beta_matrix(dn, dm, lat, omega_c), reduce_m=True)


def assemble_llb_matrix(pot, omega_c, k_x, trunc):
    """The Landau-level x Bloch matrix of llb_terms at k_x."""
    return llb_terms(pot, omega_c, trunc).matrix(k_x)


def harper_hopping(flux, v_amplitude):
    """Flux-dependent hopping t(Phi) = V exp(-pi Phi0 / 2 Phi)."""
    if flux <= 0.0:
        raise DomainError("flux ratio must be positive")
    return v_amplitude * math.exp(-0.5 * math.pi / flux)


def _phase_step(flux):
    """2 pi Phi0/Phi, the phase a Harper chain's onsite cosine advances per
    site; DomainError where it overflows float64 (flux below ~1e-308), as
    the chain's cosines would be NaN.  A Python float divides without
    numpy's overflow warning."""
    step = 2.0 * math.pi / float(flux)
    if not math.isfinite(step):
        raise DomainError(f"flux ratio {flux:g} is too small: 2 pi / flux overflows float64")
    return step


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
    diag = 2.0 * onsite * np.cos(_phase_step(flux) * (kx_a / (2.0 * math.pi) + n_vals))
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
    kin = (HBAR**2 * (kw_scaled + 2.0 * math.pi * m / a1) ** 2 / (2.0 * M_ELECTRON)
           * (g * g / one_plus))
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

    At kx_a = 0 as well, that real matrix R also keeps the inversion C2,
    (n, m) -> (-n, -m): R[::-1, ::-1] == R, so c2_blocks splits it into two
    half-size blocks.  polariton_harper_blocks returns what a sweep solves.
    """
    mode = polariton_route(flux, g, a1, v0, kw_scaled, mode)
    tau1, tau2 = polariton_hoppings(flux, g)
    if mode == "reduced":
        return harper_matrix(flux * (1.0 + g * g), kx_a, trunc.n_max, hop=tau1, onsite=tau2)

    trunc.dimension(fourier_dims=2)
    n_count = trunc.n_count
    n_vals = np.arange(-trunc.n_max, trunc.n_max + 1)
    phase_arg = _phase_step(flux * (1.0 + g * g)) * (kx_a / (2.0 * math.pi) + n_vals)
    kinetic = np.array([min(polariton_scaled_kinetic(flux, g, kw_scaled, int(m), a1, v0),
                            DIAG_SAFE_CAP) for m in n_vals])
    # (n, m) lattice of 1x1 blocks: kinetic[m] on the diagonal, tau1 hops
    # along n, tau2 e^{+-i phase_arg[n]} hops along m
    diagonal = np.broadcast_to(kinetic[:, None], (n_count,) * 2 + (1,))
    hop_n = np.full(n_count, tau1)
    hop_m = tau2 * np.exp(1j * phase_arg)
    one = np.ones((1, 1))
    terms = [((1, 0), 0.0, hop_n, one), ((-1, 0), 0.0, hop_n, one),
             ((0, -1), 0.0, hop_m, one), ((0, 1), 0.0, hop_m.conj(), one)]
    mat = _fourier_terms(diagonal, terms).matrix(0.0)
    if kw_scaled != 0.0:
        return mat
    # Im(H) P: the m columns of Im H reversed inside each n block
    im_p = mat.imag.reshape((n_count,) * 4)[..., ::-1].reshape(mat.shape)
    return mat.real - im_p


def c2_blocks(mat):
    """The even and odd C2 blocks of a Hermitian matrix R of odd size N = 2h + 1
    that commutes with the reversal J of its index order (R[::-1, ::-1] == R).

    In the basis (e_i + e_{N-1-i})/sqrt(2) for i < h and e_h, R is the even
    block R[:h+1, :h+1] + R[:h+1, ::-1][:, :h+1] ("top + cross"), whose middle
    row and column are sqrt(2) R[h, :h] and sqrt(2) R[:h, h] and whose corner
    is R[h, h]; in (e_i - e_{N-1-i})/sqrt(2) it is the odd block
    R[:h, :h] - R[:h, ::-1][:, :h].  Their sizes are h + 1 and h, and their
    spectra together are that of R.

    Raises NumericalError when max|R - J R J| exceeds HERMITICITY_RTOL times
    max|R|: the blocks would then drop the coupling between the sectors.
    """
    residual = np.abs(mat - mat[::-1, ::-1]).max()
    if residual > HERMITICITY_RTOL * np.abs(mat).max():
        raise NumericalError(f"matrix breaks C2: max|R - JRJ| {residual:.3e} exceeds "
                             f"{HERMITICITY_RTOL:.0e} of max|R|")
    h = mat.shape[0] // 2
    top, cross = mat[:h + 1, :h + 1], mat[:h + 1, ::-1][:, :h + 1]
    even = top + cross
    even[:h, h] = math.sqrt(2.0) * mat[:h, h]
    even[h, :h] = math.sqrt(2.0) * mat[h, :h]
    even[h, h] = mat[h, h]
    return even, top[:h, :h] - cross[:h, :h]


def polariton_harper_blocks(flux, g, kx_a, kw_scaled, trunc, a1, v0, mode="auto"):
    """What a sweep solves for polariton_harper_matrix at these arguments: on
    the matrix route (polariton_route) at kw_scaled = 0, the two c2_blocks of
    the lattice at kx_a = 0, which has the spectrum of every k_x (the gauge U
    of polariton_harper_matrix); otherwise that one matrix."""
    if kw_scaled == 0.0 and polariton_route(flux, g, a1, v0, kw_scaled, mode) == "matrix":
        return c2_blocks(polariton_harper_matrix(flux, g, 0.0, kw_scaled, trunc, a1, v0,
                                                 "matrix"))
    return polariton_harper_matrix(flux, g, kx_a, kw_scaled, trunc, a1, v0, mode)


def _solve_axis(build, axis, k_grid, partners, failures, label):
    """Eigenvalues of every k point of one axis value (empty where it failed).

    Each point that is its own partner is solved: build(axis), called at the
    first such point and again at each next one while it raises, gives the
    function of k whose matrix is solved by one hermitian_eigvals call, or
    whose tuple of blocks is solved block by block, their eigenvalues merged
    in ascending order.  Every other point shares its partner's array, and
    its failure.  Each failure is appended to `failures` as
    "<label>, k[<index>]: <message>", in k order."""
    row = []
    errors = {}  # k index of a failed point -> its failure message
    at_k = None  # what build(axis) returned, once a call has returned
    for k_idx, (k, partner) in enumerate(zip(k_grid, partners)):
        if partner != k_idx:
            row.append(row[partner])  # shares its partner's spectrum
        else:
            try:
                if at_k is None:
                    at_k = build(axis)
                matrices = at_k(k)
                if isinstance(matrices, tuple):
                    row.append(np.sort(np.concatenate([hermitian_eigvals(m)
                                                       for m in matrices])))
                else:
                    row.append(hermitian_eigvals(matrices))
            except (CavityBlochError, FloatingPointError) as exc:
                errors[k_idx] = str(exc)
                row.append(np.empty(0))
        if partner in errors:
            failures.append(f"{label}, k[{k_idx}]: {errors[partner]}")
    return row


def sweep(build, axis_values, k_grid, key=None):
    """Solve every point (axis value, k) of `axis_values` x `k_grid`.

    build(axis) returns a function of k that gives the point's Hermitian
    matrix, or a tuple of Hermitian blocks whose spectra together are the
    point's; each axis value reaches build as a Python float.  It is called
    at the axis value's first solved point, and again at each next solved
    point while it raises, so what does not depend on k is built once per
    axis value.  Each matrix or block is solved alone by `hermitian_eigvals`,
    and a point's blocks' eigenvalues are merged in ascending order.  A point
    whose build or matrix raises a package error or a floating-point error,
    or whose matrix or any of whose blocks fails to solve, is recorded in the
    result's failures and keeps an empty eigenvalue array.  Any other
    exception propagates.

    key(axis, k) names the points of one axis value that share a spectrum:
    each point's partner is the first point with an equal key, and a point
    whose partner is another is neither built nor solved; it takes that
    point's eigenvalue array (the same object) or its failure message,
    under its own k label.  Without a key every point is its own partner.
    The partner maps are made in this process before the split, and the
    returned output.SpectrumPayload (no columns) carries them as `partners`.

    The axis values are split across P processes, P as
    parallel.process_count gives it for the number of axis values.
    Process r solves the axis indices equal to r mod P, this process share 0
    and P - 1 forked children the others.  Each process solves the same
    matrices as a serial sweep, so the result is bitwise the same for any P.
    The sweep runs in this process alone when P is 1, when other threads run
    and when a fork fails (parallel.split).  An exception raised in a child
    is raised here with its type; a child that ends without delivering its
    share raises NumericalError.  Every child is reaped before the sweep
    returns or raises.
    """
    axis_values = np.asarray(axis_values, dtype=float)
    if axis_values.size == 0:
        raise DomainError("empty sweep axis")
    if np.any(np.diff(axis_values) < 0.0):
        raise DomainError("sweep axis must be monotone")
    axes, k_grid = axis_values.tolist(), list(k_grid)

    def partners_of(axis):
        first = {}  # key -> the first k index that has it
        return [first.setdefault(k_idx if key is None else key(axis, k), k_idx)
                for k_idx, k in enumerate(k_grid)]

    partners = [partners_of(axis) for axis in axes]

    def solve_share(share, procs):
        """{axis index: (row, its failures)} of the axis indices equal to
        `share` mod `procs`."""
        rows = {}
        for a_idx in range(share, len(axes), procs):
            axis = axes[a_idx]
            failures = []
            row = _solve_axis(build, axis, k_grid, partners[a_idx], failures,
                              f"axis[{a_idx}]={axis:g}")
            rows[a_idx] = (row, failures)
        return rows

    def lost(share, procs, how):
        return NumericalError(f"the sweep process of axis[{share}::{procs}] ended without "
                              f"delivering its rows ({how})")

    shares = parallel.split(solve_share, parallel.process_count(len(axes)), lost)
    rows = [shares[a_idx] for a_idx in range(len(axes))]
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
    middle point of an odd grid exactly 0.0, so the sweep key |k_x| pairs
    every point with its C2 image.
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


def polariton_key(flux, g, k, a1, v0, mode="auto"):
    """The sweep key of the point k = (kx_a, kw_scaled) of coupling g for
    polariton_harper_matrix: points of one g with equal keys have the same
    spectrum.

    On the matrix route (polariton_route) the key is ("matrix", k_w): the
    spectrum does not depend on k_x (the gauge U of polariton_harper_matrix).
    The reduced chain does not depend on k_w, and at -k_x it is the chain at
    k_x reversed (J H J, J reversing n), so on the reduced route the key is
    ("reduced", |k_x|).
    """
    kx_a, kw_scaled = k
    if polariton_route(flux, g, a1, v0, kw_scaled, mode) == "matrix":
        return ("matrix", kw_scaled)
    return ("reduced", abs(kx_a))


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
