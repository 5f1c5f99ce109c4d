"""QED-Bloch solver: Landau polaritons, the central equation in the combined
Fourier x polariton-level basis, the Harper chain and the polaritonic Harper
chain.

central_terms is the central equation's one builder.  Its omega_p = 0 case,
the quantized field switched off, is the Landau-level x Bloch problem that
the raw-joules butterfly solves.

harper_sweep, llb_sweep and polariton_sweep give each sweep its
(k_grid, build, key) for sweep: a grid over midpoint_kx_grid, whose exact
antisymmetry the C2 pairing |k_x| (_c2_key) relies on.  A point looks its
builder (harper_matrix, central_terms, CouplingTerms.matrix,
polariton_harper_matrix) up when it is built, so a rebinding of that name
(a test's spy, perfbench's tracer) sees every call.

Assembled matrices are row-major in (Fourier index, level index); Fourier
indices run -n_max..n_max.  Energies are joules unless a function explicitly
returns scaled dimensionless values.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .constants import HBAR, M_ELECTRON, E_CHARGE
from .errors import CavityBlochError, DomainError, NumericalError, derived
from .landau import cyclotron_frequency
from .lattice import field_for_flux_ratio
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
    inputs = {"b_max[T]": np.abs(b_fields).max(initial=0.0), "omega_p[rad/s]": omega_p,
              "mass_ratio[1]": setup.mass_ratio}
    with derived("Omega^2 = omega_p^2 + omega_c^2", inputs):
        omega2 = omega_p**2 + omega_c**2
    upper = np.sqrt(omega2)
    with derived("lower branch omega_p omega_c^2 / 2 Omega^2", inputs), \
            np.errstate(invalid="ignore", divide="ignore"):
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


def alpha_matrix(dn, dm, lat, omega_p, omega_c):
    """Displacement amplitude alpha_{dn,dm} of the central equation,
    sqrt(hbar/2 m_e Omega) (-G^x_dn - i (omega_c/Omega) G_{dm,dn}) with
    Omega = hypot(omega_p, omega_c).

    That is the thesis form -sqrt(mu Omega/2 hbar) A^0_dn
    - i sqrt(hbar/2 mu Omega) G^v_{dm,dn}, with A^0_dn = hbar G^x_dn/(sqrt(2) m_e)
    and G^v_{dm,dn} = m_p G_{dm,dn}/(sqrt(2) M omega_c), written so that at
    omega_p = 0 (Omega = omega_c exactly) it is the Landau-level x Bloch
    amplitude beta = sqrt(hbar/2 m_e omega_c)(-G^x_dn - i G_{dm,dn}).
    """
    big_omega = math.hypot(omega_p, omega_c)
    return math.sqrt(HBAR / (2.0 * M_ELECTRON * big_omega)) * (
        -lat.g_x(dn) - 1j * (omega_c / big_omega) * lat.g_oblique(dm, dn))


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


def central_terms(pot, omega_p, omega_c, trunc, k_w=0.0, reduce_m=True):
    """CouplingTerms of the QED-Bloch central equation of a 2D crystal in a
    magnetic field and a cavity mode, for every k_x.

    Basis (n, m, j), Omega = hypot(omega_p, omega_c): diagonal
    hbar^2 (k_w + G^w_{m,n})^2/2M + hbar Omega (j + 1/2); per Fourier
    coefficient V_{dn,dm} of `pot` one term at the shift (dn, dm),
    V_{dn,dm} exp(-i s G_{dm,dn} (k_x + G^x_{(n+n')/2})) <phi_i|D(alpha_{dn,dm})|phi_j>
    with s = hbar omega_c/(m_e Omega^2), so that the phase is G^v A^{k_x}
    (the half index n - dn/2 is exact in binary64).

    reduce_m (the default) projects on the zero-Bloch-phase sector of the
    w-Fourier lattice: basis (n, j), each term at the shift (dn,), no k_w.
    At omega_p = 0, the quantized field switched off, that is the exact
    Landau-level x Bloch problem: Omega is omega_c, s is hbar/(m_e omega_c)
    and alpha the LLB amplitude beta, all bit for bit.

    With reduce_m and an x -> -x mirror (_x_mirror), the partner
    (dn, c dn - dm) has -G, and its phases, amplitude and V are the complex
    conjugates of the first member's: the pair is one real-route term of
    twice the first member's block (weight 1 for its own partner,
    2 dm = c dn), so the matrix is real (float64) by construction;
    otherwise, and always without reduce_m, it is complex.
    """
    if not 0.0 < omega_c < math.inf:
        raise DomainError(f"cyclotron frequency must be positive and finite, not {omega_c:g}")
    if not 0.0 <= omega_p < math.inf:
        raise DomainError(f"omega_p must be non-negative and finite, not {omega_p:g}")
    lat = pot.lattice
    trunc.dimension(fourier_dims=1 if reduce_m else 2)
    big_omega = math.hypot(omega_p, omega_c)
    ladder = HBAR * big_omega * (np.arange(trunc.j_max + 1) + 0.5)
    phase_scale = HBAR / (M_ELECTRON * big_omega) * (omega_c / big_omega)
    n_vals = np.arange(-trunc.n_max, trunc.n_max + 1)
    diagonal = np.broadcast_to(ladder, (trunc.n_count, ladder.size))
    if not reduce_m:  # k_w enters the diagonal only; 1/M as PolaritonParams.inv_m_total
        inv_m_total = 2.0 * omega_p**2 * omega_c**2 / (M_ELECTRON * (omega_p**2 + omega_c**2))
        g_w = lat.g_oblique(n_vals[None, :], n_vals[:, None]) / (math.sqrt(2.0) * omega_c)
        kinetic = 0.5 * HBAR**2 * (k_w + g_w) ** 2 * inv_m_total
        diagonal = kinetic[:, :, None] + ladder
    c = _x_mirror(pot) if reduce_m else None
    terms = []
    for (dn, dm), v in pot.coefficients.items():
        if c is not None and c * dn - dm < dm:
            continue  # added with its partner
        weight = 2.0 if c is not None and c * dn - dm != dm else 1.0
        freq = phase_scale * lat.g_oblique(dm, dn)
        phases = np.exp(-1j * (freq * lat.g_x((2 * n_vals - dn) / 2)))
        amplitude = alpha_matrix(dn, dm, lat, omega_p, omega_c)
        block = weight * v * displacement_matrix(trunc.j_max + 1, amplitude)
        terms.append(((dn,) if reduce_m else (dn, dm), freq, phases, block))
    return _fourier_terms(diagonal, terms, real=c is not None)


def assemble_central_matrix(pot, params, k_x, k_w, trunc, reduce_m=False):
    """The central-equation matrix of central_terms at (k_x, k_w)."""
    return central_terms(pot, params.omega_p, params.omega_c, trunc, k_w, reduce_m).matrix(k_x)


def assemble_llb_matrix(pot, omega_c, k_x, trunc):
    """The Landau-level x Bloch matrix, central_terms at omega_p = 0, at k_x."""
    return central_terms(pot, 0.0, omega_c, trunc).matrix(k_x)


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


def _coupling_powers(g):
    """(sqrt(1 + g^2), (1 + g^2)^(3/2)) as float64 gives them, or None where
    the 3/2 power overflows (from g ~ 5.6e102; 1 + g^2 == g^2 there)."""
    one_plus = 1.0 + g * g
    try:
        cube = one_plus**1.5
    except OverflowError:
        return None
    return None if math.isinf(cube) else (math.sqrt(one_plus), cube)


def _log_t2_minus_log_t1(flux, g):
    base = 0.5 * math.pi / flux
    powers = _coupling_powers(g)
    if powers is None:  # g^-3 lies below an ulp of g^-1
        return base / g
    root, cube = powers
    return base * (1.0 / root - 1.0 / cube)


def _log_s_over_v0(flux, g):
    """ln(S / V0) with S = t1 + t2."""
    base = 0.5 * math.pi / flux
    powers = _coupling_powers(g)
    log_t2 = -base * (1.0 / g) ** 3 if powers is None else -base / powers[1]
    delta = _log_t2_minus_log_t1(flux, g)
    return log_t2 + math.log1p(math.exp(-min(delta, 700.0)))


def polariton_scaled_kinetic(flux, g, kw_scaled, m, a1, v0):
    """Scaled diagonal kinetic term kinetic/S of the polariton lattice.

    kinetic = hbar^2 (kw_scaled + 2 pi m/a1)^2 / (2 m_e (1 + g^-2)) with
    kw_scaled = sqrt(2) omega_c k_w (1/m units); returns inf on float overflow.
    Where g^2 overflows float64 (from g ~ 1.3e154) g^2/(1 + g^2) is its
    limit 1, the value float64 gives it from g ~ 1e8 up.
    """
    if g == 0.0:
        return 0.0
    one_plus = 1.0 + g * g
    ratio = 1.0 if math.isinf(one_plus) else g * g / one_plus
    kin = HBAR**2 * (kw_scaled + 2.0 * math.pi * m / a1) ** 2 / (2.0 * M_ELECTRON) * ratio
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
    (n, m) -> (-n, -m): R[::-1, ::-1] == R, so hermitian_eigvals splits it
    into two half-size blocks.  polariton_sweep builds what a sweep solves.
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


def _solve_axis(build, axis, k_grid, partners, failures, label):
    """Eigenvalues of every k point of one axis value (empty where it failed).

    Each point that is its own partner is solved: build(axis), called at the
    first such point and again at each next one while it raises, gives the
    function of k whose matrix is solved by one hermitian_eigvals call.
    Every other point shares its partner's array, and its failure.  Each
    failure is appended to `failures` as "<label>, k[<index>]: <message>",
    in k order."""
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
                row.append(hermitian_eigvals(at_k(k)))
            except (CavityBlochError, ArithmeticError) as exc:
                errors[k_idx] = str(exc)
                row.append(np.empty(0))
        if partner in errors:
            failures.append(f"{label}, k[{k_idx}]: {errors[partner]}")
    return row


def sweep(build, axis_values, k_grid, key=None):
    """Solve every point (axis value, k) of `axis_values` x `k_grid`.

    build(axis) returns a function of k that gives the point's Hermitian
    matrix; each axis value reaches build as a Python float.  It is called
    at the axis value's first solved point, and again at each next solved
    point while it raises, so what does not depend on k is built once per
    axis value.  Each matrix is solved alone by `hermitian_eigvals`, which
    picks the LAPACK calls from the matrix itself.  A point whose build or
    matrix raises a package error or an ArithmeticError, or whose matrix
    fails to solve, is recorded in the result's failures and keeps an empty
    eigenvalue array.  Any other exception propagates.

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
    phases of (dn, dm) and the amplitude -alpha; with
    D(-alpha) = P D(alpha) P, P = diag((-1)^j), the LLB and reduced central
    matrices obey A(-k_x) = U A(k_x) U^T with U = J (x) P, J reversing n.
    Every bravais_cosine_potential passes; mirrors _x_mirror.
    """
    coeff = pot.coefficients
    return all(coeff.get((-dn, -dm)) == v for (dn, dm), v in coeff.items())


def _c2_key(_axis, kx_a):
    """The sweep key of a chain whose spectrum at -k_x is the one at k_x
    (C2 in the Landau gauge).  midpoint_kx_grid is exactly antisymmetric,
    so |k_x| pairs each of its points with its mirror and with no other."""
    return abs(kx_a)


def harper_sweep(n_max, kx_points):
    """(k_grid, build, key) of a flux sweep of the Harper chain up to n_max
    over midpoint_kx_grid(kx_points).  At -k_x the chain is the chain at
    k_x reversed, so the key pairs +-k_x."""
    def build(flux):
        return lambda kx_a: harper_matrix(flux, kx_a, n_max)

    return midpoint_kx_grid(kx_points), build, _c2_key


def llb_sweep(pot, trunc, kx_points):
    """(k_grid, build, key) of a flux sweep of the Landau-level x Bloch
    matrix of `pot`, central_terms at omega_p = 0, over
    midpoint_kx_grid(kx_points) (k_x a1).  build(flux) builds the flux's
    terms once, and each point evaluates them at k_x.  The key pairs +-k_x
    when `pot` keeps C2 (c2_symmetric); otherwise every point is solved."""
    lat = pot.lattice

    def build(flux):
        terms = central_terms(pot, 0.0, cyclotron_frequency(field_for_flux_ratio(lat, flux)),
                              trunc)
        return lambda kx_a: terms.matrix(kx_a / lat.a1)

    return midpoint_kx_grid(kx_points), build, _c2_key if c2_symmetric(pot) else None


def polariton_sweep(flux, trunc, a1, v0, mode, kx_points, kw_points):
    """(k_grid, build, key) of a sweep over the coupling g of
    polariton_harper_matrix at `flux`.  The points are k = (kx_a, kw_scaled)
    over midpoint_kx_grid(kx_points) and kw_points values of k_w spaced
    evenly over [0, 2 pi/a1), k_w varying fastest; each point takes the
    route polariton_route gives for (g, k_w).

    On the matrix route the spectrum does not depend on k_x (the gauge U of
    polariton_harper_matrix): the key is ("matrix", k_w), and at k_w = 0 the
    point's matrix is the C2 lattice at kx_a = 0.  The reduced chain does not
    depend on k_w, and at -k_x it is the chain at k_x reversed (J H J, J
    reversing n): the key is ("reduced", |k_x|).  Any other point's matrix is
    polariton_harper_matrix at the point.
    """
    kw_grid = np.linspace(0.0, 2.0 * math.pi / a1, kw_points, endpoint=False).tolist()
    k_grid = [(kx, kw) for kx in midpoint_kx_grid(kx_points) for kw in kw_grid]

    def key(g, k):
        kx_a, kw_scaled = k
        if polariton_route(flux, g, a1, v0, kw_scaled, mode) == "matrix":
            return ("matrix", kw_scaled)
        return ("reduced", _c2_key(g, kx_a))

    def matrix(g, k):
        kx_a, kw_scaled = k
        route = polariton_route(flux, g, a1, v0, kw_scaled, mode)
        if route == "matrix" and kw_scaled == 0.0:
            kx_a = 0.0  # the spectrum of every k_x, from the lattice that keeps C2
        return polariton_harper_matrix(flux, g, kx_a, kw_scaled, trunc, a1, v0, route)

    return k_grid, (lambda g: lambda k: matrix(g, k)), key


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
