"""Independent oracles the tests check the package against.

Each evaluates a quantity by a route other than the package's own: closed
forms in place of complex arithmetic, a principal-value Hilbert transform, a
discrete mode sum, Laguerre polynomials (an exact finite sum, not the
package's recurrence) / displacement elements one at a time, and the Harper
spectrum as exact band edges and sampled densely over its Bloch cell, from
its q x q Bloch reduction.
"""

import math
from fractions import Fraction

import numpy as np

from cavity_bloch.constants import C_LIGHT, EPSILON_0
from cavity_bloch.errors import DomainError, NumericalError
from cavity_bloch.response import ResponseSample


def conductivity_real_imag_closed_form(w_grid, eta, setup):
    """Real and imaginary parts of sigma(w) from the explicit closed forms.

    Kept separate from optical_conductivity (which uses complex arithmetic)
    so the two routes can check each other.
    """
    w = np.asarray(w_grid, dtype=float)
    wp = setup.omega_p
    wt = setup.omega_tilde
    d2 = w**2 + eta**2
    plus = (w + wt) ** 2 + eta**2
    minus = (w - wt) ** 2 + eta**2
    re = EPSILON_0 * eta * wp**2 / d2 - eta * EPSILON_0 * wp**4 / (2.0 * wt * d2) * (
        (2.0 * w + wt) / plus - (2.0 * w - wt) / minus
    )
    im = EPSILON_0 * w * wp**2 / d2 - EPSILON_0 * wp**4 / (2.0 * wt * d2) * (
        (w**2 - eta**2 + w * wt) / plus - (w**2 - eta**2 - w * wt) / minus
    )
    return re, im


def kramers_kronig_real(sample):
    """Real part reconstructed from Im via a principal-value Hilbert transform.

    Odd-symmetric trapezoid with exclusion of the pole point; adequate at the
    percent level on the default grids.
    """
    w = sample.w
    im = sample.value.imag
    re = np.empty_like(w)
    for idx, w0 in enumerate(w):
        integrand = np.zeros_like(w)
        mask = np.ones_like(w, dtype=bool)
        mask[idx] = False
        integrand[mask] = im[mask] / (w[mask] - w0)
        re[idx] = np.trapezoid(integrand, w) / math.pi
    return re


def eft_chi_aa_mode_sum(w_grid, eta, setup, grid_points=400):
    """Discrete in-plane mode-sum evaluation of the continuum response.

    Midpoint sum of the single-mode propagator over a grid_points^2 Cartesian
    kappa grid covering the disc c^2 kappa^2 <= Lambda - wt^2(kz); serves as
    the independent oracle for eft_chi_aa.
    """
    w = np.asarray(w_grid, dtype=float)
    wt_kz2 = setup.omega_tilde_kz**2
    kappa_max = math.sqrt(setup.cutoff - wt_kz2) / C_LIGHT
    if kappa_max <= 0.0:
        return ResponseSample(w=w, value=np.zeros_like(w, dtype=complex), eta=eta)
    edges = np.linspace(-kappa_max, kappa_max, grid_points + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    cell = (edges[1] - edges[0]) ** 2
    kx, ky = np.meshgrid(centers, centers, indexing="ij")
    kappa2 = kx**2 + ky**2
    mask = C_LIGHT**2 * kappa2 <= setup.cutoff - wt_kz2
    wt_modes = np.sqrt(C_LIGHT**2 * kappa2[mask] + wt_kz2)
    pref = cell / (4.0 * math.pi**2) / (2.0 * EPSILON_0 * setup.l_z)
    value = np.zeros_like(w, dtype=complex)
    for start in range(0, wt_modes.size, 8192):
        block = wt_modes[start : start + 8192][:, None]
        pair = 1.0 / (w[None, :] + block + 1j * eta) - 1.0 / (w[None, :] - block + 1j * eta)
        value -= pref * np.sum(pair / block, axis=0)
    return ResponseSample(w=w, value=value, eta=eta)


def laguerre_assoc(j, a, x):
    """Associated Laguerre polynomial L_j^(a)(x) from the finite sum
    sum_i (-1)^i C(j+a, j-i) x^i / i!, which holds for every integer a >= -j.

    The sum runs in exact rational arithmetic on the exact value of x and is
    rounded once, so cancellation between its terms costs no accuracy.

    Parameters
    ----------
    j : int
        Degree, j >= 0.
    a : int
        Integer order, a >= -j.
    x : float
        Argument, x >= 0.
    """
    if j < 0:
        raise DomainError(f"laguerre degree must be >= 0, got {j}")
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"laguerre argument must be finite and >= 0, got {x}")
    if a < -j:
        raise DomainError(f"laguerre order must be >= -j = {-j}, got {a}")
    x = Fraction(float(x))
    # C(j+a, j-i) is 0 for j - i > j + a: the terms below i = -a of a < 0 vanish
    return float(sum(Fraction((-1) ** i * math.comb(j + a, j - i), math.factorial(i)) * x**i
                     for i in range(j + 1)))


def displacement_matrix_element(i, j, alpha):
    """Fock matrix element <i|D(alpha)|j> of the displacement operator."""
    if i < 0 or j < 0:
        raise DomainError("Fock indices must be >= 0")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError("displacement amplitude must be finite")
    x = abs(alpha) ** 2
    if i >= j:
        ratio = math.exp(0.5 * (math.lgamma(j + 1.0) - math.lgamma(i + 1.0)))
        return ratio * alpha ** (i - j) * math.exp(-0.5 * x) * laguerre_assoc(j, i - j, x)
    return (-1.0) ** (j - i) * np.conj(displacement_matrix_element(j, i, alpha))


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


def harper_bloch_union(p, q, samples=200000):
    """Low-discrepancy sampling of the exact Harper spectrum at p/q, the
    dense-sampling check of harper_exact_bands.

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
