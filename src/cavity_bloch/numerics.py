"""Special functions and the dense Hermitian eigensolver contract.

The physics modules funnel their eigenproblems through
:func:`hermitian_eigvals`, which solves one matrix with one LAPACK call
routed by dtype, so determinism and Hermiticity policy live in one place.
Two call eigvalsh or eigh directly: the Harper band oracles
(qed_bloch.harper_exact_bands and harper_bloch_union), which check the
Harper spectra the sweep solves through this function and so must not share
it, and cavity_gas.many_mode_spectrum, which needs eigenvectors.
"""

import hashlib
import math

import numpy as np

from .errors import DomainError, NumericalError

#: largest relative Hermiticity residual a matrix may have; LAPACK reads only
#: its lower triangle, so a larger asymmetry would be silently dropped
HERMITICITY_RTOL = 1e-10


def _laguerre_table(j_count, a_count, x):
    """Associated Laguerre values L_j^{(a)}(x) for 0 <= j < j_count, 0 <= a < a_count.

    Upward three-term recurrence in j, vectorized over the integer order a:
    (j+1) L_{j+1}^{(a)} = (2j + a + 1 - x) L_j^{(a)} - (j + a) L_{j-1}^{(a)}.
    """
    a = np.arange(a_count).astype(np.float64)
    out = np.empty((j_count, a_count), dtype=np.float64)
    out[0, :] = 1.0
    if j_count > 1:
        out[1, :] = 1.0 + a - x
    # an overflow reaches the matrix as a non-finite entry, which
    # hermitian_eigvals reports per point; numpy's warning would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, j_count - 1):
            out[j + 1, :] = ((2.0 * j + a + 1.0 - x) * out[j, :]
                             - (j + a) * out[j - 1, :]) / (j + 1.0)
    return out


def displacement_matrix(dim, alpha):
    """Truncated dim x dim displacement matrix {<i|D(alpha)|j>}.

    Lower triangle (row i >= col j):
        sqrt(j!/i!) * alpha^(i-j) * exp(-|alpha|^2/2) * L_j^{(i-j)}(|alpha|^2),
    upper triangle from D^dagger(alpha) = D(-alpha):
        D[i, j] = (-1)^(j-i) * conj(D[j, i]).
    Factorial ratios go through lgamma so levels up to a few hundred are safe.
    """
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError("displacement amplitude must be finite")
    x = (alpha * np.conj(alpha)).real
    lag = _laguerre_table(dim, dim, x)
    pref = math.exp(-0.5 * x)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        apow = 1.0 + 0.0j
        for i in range(j, dim):
            d = i - j
            ratio = math.exp(0.5 * (math.lgamma(j + 1.0) - math.lgamma(i + 1.0)))
            val = ratio * apow * pref * lag[j, d]
            out[i, j] = val
            if i != j:
                sign = -1.0 if (d % 2) else 1.0
                out[j, i] = sign * np.conj(val)
            apow = apow * alpha
    return out


def hermiticity_residual(m):
    """Max |M - M^H| of a square matrix relative to its scale (1e-300 floor
    for a zero matrix); NaN when an entry is not finite."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    # a non-finite entry gives a NaN residual, which the caller reports
    with np.errstate(invalid="ignore"):
        # scale first and magnitude in place: one matrix-sized temporary at a
        # time, 3x faster on real matrices from dim 183 up
        scale = max(np.abs(m).max(), 1e-300)
        diff = m - m.conj().T
        mag = np.abs(diff, out=diff) if np.isrealobj(diff) else np.abs(diff)
        return float(mag.max() / scale)


def _fingerprint(m):
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()[:16]


def hermitian_eigvals(m):
    """All eigenvalues of one Hermitian matrix, ascending (LAPACK order) and
    deterministic.

    One ``eigvalsh`` call solves it, a real matrix by the real symmetric
    LAPACK route and a complex one by the Hermitian route.  LAPACK reads
    only the lower triangle, so no symmetrized copy is made; instead a
    matrix whose residual exceeds ``HERMITICITY_RTOL`` is rejected.

    Anything but a square matrix raises DomainError.  A non-finite entry, a
    rejected matrix, a LAPACK failure or a non-finite eigenvalue raises
    NumericalError.
    """
    m = np.asarray(m)
    res = hermiticity_residual(m)
    # a non-finite entry makes the residual NaN, which no bound rejects
    if not math.isfinite(res):
        raise NumericalError(f"non-finite matrix entries (fingerprint {_fingerprint(m)})")
    if res > HERMITICITY_RTOL:
        raise NumericalError(
            f"matrix is not Hermitian: residual {res:.3e} > {HERMITICITY_RTOL:.0e} "
            f"(fingerprint {_fingerprint(m)})"
        )
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed to converge (fingerprint {_fingerprint(m)}): {exc}"
        ) from exc
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"non-finite eigenvalues (fingerprint {_fingerprint(m)})")
    return vals
