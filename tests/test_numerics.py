"""Special-function and eigensolver tests, with independent oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cavity_bloch import numerics
from cavity_bloch.constants import ANGSTROM, EV
from cavity_bloch.errors import DomainError, NumericalError
from cavity_bloch.landau import cyclotron_frequency
from cavity_bloch.lattice import bravais_cosine_potential, bravais_lattice, field_for_flux_ratio
from cavity_bloch.numerics import (
    c2_blocks,
    displacement_matrix,
    hermitian_eigvals,
    hermiticity_residual,
)
from cavity_bloch.qed_bloch import BasisTruncation, assemble_llb_matrix, harper_matrix, sweep

from oracles import displacement_matrix_element, laguerre_assoc


def table_value(j, a, x):
    """L_j^(a)(x) read from the package's recurrence table."""
    return float(numerics._laguerre_table(j + 1, a + 1, x)[j, a])


class TestLaguerre:
    """The package's recurrence table against laguerre_assoc, the exact
    finite-sum oracle."""

    def test_degree_zero_is_one(self):
        for a in (0, 1, 5, -0):
            for x in (0.0, 0.3, 7.0):
                assert table_value(0, a, x) == 1.0

    def test_degree_one_closed_form(self):
        for x in (0.0, 0.5, 2.0, 10.0):
            assert table_value(1, 0, x) == pytest.approx(1.0 - x, abs=1e-14)

    def test_against_series_oracle(self):
        assert table_value(5, 2, 0.7) == pytest.approx(laguerre_assoc(5, 2, 0.7), rel=1e-12)
        for j, a, x in [(3, 0, 1.2), (8, 4, 0.05), (12, 1, 3.3), (6, 3, 9.0)]:
            assert table_value(j, a, x) == pytest.approx(laguerre_assoc(j, a, x), rel=1e-11)

    def test_negative_order_identity(self):
        # L_j^(-m)(x) = (-x)^m (j-m)!/j! L_{j-m}^(m)(x): the oracle's sum at
        # negative order against the table at positive order
        for j, m, x in [(4, 2, 0.9), (6, 1, 2.5), (5, 5, 1.1)]:
            expect = (-x) ** m * math.factorial(j - m) / math.factorial(j) * table_value(
                j - m, m, x
            )
            assert laguerre_assoc(j, -m, x) == pytest.approx(expect, rel=1e-11, abs=1e-13)

    def test_recurrence_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            j = int(rng.integers(1, 32))
            a = int(rng.integers(0, 6))
            x = float(rng.uniform(0.0, 50.0))
            lhs = (j + 1) * table_value(j + 1, a, x)
            rhs = (2 * j + a + 1 - x) * table_value(j, a, x) - (j + a) * table_value(
                j - 1, a, x
            )
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laguerre_assoc(-1, 0, 1.0)
        with pytest.raises(DomainError):
            laguerre_assoc(2, 0, -0.5)
        with pytest.raises(DomainError):
            laguerre_assoc(2, -3, 0.5)

    def test_large_degree_supported(self):
        val = table_value(64, 3, 10.0)
        assert math.isfinite(val)


def ladder_operators(dim):
    b = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return b, b.conj().T


class TestDisplacement:
    def test_identity_at_zero(self):
        for i in range(5):
            for j in range(5):
                expect = 1.0 if i == j else 0.0
                assert displacement_matrix_element(i, j, 0.0) == pytest.approx(expect, abs=1e-15)

    def test_vacuum_element(self):
        for alpha in (0.5, 0.3 + 0.2j, 2.0j):
            expect = math.exp(-0.5 * abs(alpha) ** 2)
            assert displacement_matrix_element(0, 0, alpha) == pytest.approx(expect, rel=1e-14)

    def test_against_matrix_exponential_oracle(self):
        # expm(alpha b^dag - conj(alpha) b) on an 80-level ladder, top 40x40 block
        alpha = 0.3 + 0.2j
        big = 80
        b, bdag = ladder_operators(big)
        oracle = expm(alpha * bdag - np.conj(alpha) * b)[:40, :40]
        ours = displacement_matrix(40, alpha)
        assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_conjugation_rule(self):
        alpha = 0.7 - 0.4j
        for i in range(6):
            for j in range(6):
                rule = (-1.0) ** (j - i) * np.conj(displacement_matrix_element(j, i, alpha))
                assert displacement_matrix_element(i, j, alpha) == pytest.approx(rule, rel=1e-12)

    def test_truncated_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            alpha = complex(*rng.uniform(-0.7, 0.7, 2))
            d = displacement_matrix(64, alpha)
            block = (d @ d.conj().T)[:16, :16]
            assert np.max(np.abs(block - np.eye(16))) < 1e-8

    def test_element_matches_block(self):
        alpha = 1.1 + 0.3j
        block = displacement_matrix(12, alpha)
        for i in (0, 3, 11):
            for j in (0, 5, 11):
                assert block[i, j] == pytest.approx(
                    displacement_matrix_element(i, j, alpha), rel=1e-12, abs=1e-15
                )

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            displacement_matrix_element(1, 0, complex("inf"))
        with pytest.raises(DomainError):
            displacement_matrix(0, 0.1)


class TestHermitianEigvals:
    def test_identity(self):
        assert np.allclose(hermitian_eigvals(np.eye(3)), [1.0, 1.0, 1.0])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigvals(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])

    def test_trace_identity_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        herm = 0.5 * (a + a.conj().T)
        vals = hermitian_eigvals(herm)
        assert np.sum(vals) == pytest.approx(np.trace(herm).real, abs=1e-10)

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = 0.5 * (a + a.conj().T)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        rotated = q @ herm @ q.conj().T
        assert np.max(np.abs(hermitian_eigvals(herm) - hermitian_eigvals(rotated))) < 1e-10

    def test_reality(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        vals = hermitian_eigvals(0.5 * (a + a.conj().T))
        assert np.isrealobj(vals)

    def test_determinism(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        herm = 0.5 * (a + a.conj().T)
        first = hermitian_eigvals(herm)
        second = hermitian_eigvals(herm.copy())
        assert np.array_equal(first, second)

    def test_non_hermitian_rejected_with_fingerprint(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(NumericalError, match="fingerprint"):
            hermitian_eigvals(bad)

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, 2.0, np.nan]),
        np.array([[1.0, np.inf], [np.inf, 2.0]]),
    ], ids=["nan-diagonal", "inf-off-diagonal"])
    def test_non_finite_entries_rejected(self, bad):
        # their residual is NaN, which passes any `>` bound
        with pytest.raises(NumericalError, match=r"non-finite matrix entries \(fingerprint"):
            hermitian_eigvals(bad)

    @pytest.mark.parametrize("bad", [
        np.stack([np.eye(3), 2.0 * np.eye(3)]),
        np.zeros((2, 3)),
        np.zeros(3),
        np.zeros((0, 0)),
    ], ids=["stack-of-two", "non-square", "vector", "empty"])
    def test_only_one_square_matrix_accepted(self, bad):
        # each call solves one matrix: a stack of Hermitian ones is refused
        for func in (hermitian_eigvals, hermiticity_residual):
            with pytest.raises(DomainError, match=r"expected a square matrix, got shape"):
                func(bad)

    def test_residual_measure(self):
        assert hermiticity_residual(np.eye(4)) == 0.0
        assert hermiticity_residual(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def c2_symmetrized(a):
    """The Hermitian part of the square matrix `a` plus its index reversal:
    Hermitian and exactly equal to its reversal m[::-1, ::-1]."""
    herm = a + a.conj().T
    return herm + herm[::-1, ::-1]


class TestC2Route:
    """hermitian_eigvals solves a matrix of odd size N > 1 that exactly equals
    its reversal as its two C2 blocks, and any other matrix whole."""

    @staticmethod
    def spy(monkeypatch):
        """The shapes eigvalsh is called on, in call order, from now on."""
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(m):
            seen.append(m.shape)
            return eigvalsh(m)

        monkeypatch.setattr(numerics.np.linalg, "eigvalsh", recording)
        return seen

    @staticmethod
    def c2_matrices():
        """Exactly C2 matrices of odd size: real, complex and a Harper chain
        at k_x = 0."""
        rng = np.random.default_rng(21)
        return [c2_symmetrized(rng.normal(size=(9, 9))),
                c2_symmetrized(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))),
                harper_matrix(1.4, 0.0, 6)]

    def test_c2_matrix_is_two_block_solves_merged(self, monkeypatch):
        mats = self.c2_matrices()
        merged = [np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in c2_blocks(m)]))
                  for m in mats]
        whole = [np.linalg.eigvalsh(m) for m in mats]
        seen = self.spy(monkeypatch)
        for mat, want, full in zip(mats, merged, whole):
            seen.clear()
            vals = hermitian_eigvals(mat)
            half = mat.shape[0] // 2
            assert seen == [(half + 1, half + 1), (half, half)]
            assert np.array_equal(vals, want)
            assert np.max(np.abs(vals - full)) <= 1e-12 * (full[-1] - full[0])

    @pytest.mark.parametrize("entry", [(0, 1), (2, 3)], ids=["first-row", "inner"])
    def test_matrix_one_entry_pair_off_c2_is_one_solve(self, monkeypatch, entry):
        mats = self.c2_matrices()
        for mat in mats:
            mat[entry] += 1e-9
            mat[entry[::-1]] += 1e-9
        whole = [np.linalg.eigvalsh(m) for m in mats]
        seen = self.spy(monkeypatch)
        for mat, want in zip(mats, whole):
            seen.clear()
            assert np.array_equal(hermitian_eigvals(mat), want)
            assert seen == [mat.shape]

    def test_even_size_and_single_entry_are_one_solve(self, monkeypatch):
        mats = [c2_symmetrized(np.random.default_rng(22).normal(size=(8, 8))),
                np.array([[7.0]])]
        assert all(np.array_equal(m, m[::-1, ::-1]) for m in mats)
        whole = [np.linalg.eigvalsh(m) for m in mats]
        seen = self.spy(monkeypatch)
        assert all(np.array_equal(hermitian_eigvals(m), want) for m, want in zip(mats, whole))
        assert seen == [(8, 8), (1, 1)]


def llb_matrices(count):
    """`count` complex oblique LLB matrices (dim 3 * 7) at one flux, varying k_x.

    Oblique has no x -> -x mirror, so its LLB matrices stay complex and take
    the complex Hermitian route.
    """
    lat = bravais_lattice("oblique", 2.0 * ANGSTROM, 3.0 * ANGSTROM, math.radians(70.0))
    pot = bravais_cosine_potential("oblique", 3.0 * EV, lat)
    w_c = cyclotron_frequency(field_for_flux_ratio(lat, 0.7))
    trunc = BasisTruncation(n_max=3, j_max=2)
    mats = [assemble_llb_matrix(pot, w_c, kxa / lat.a1, trunc)
            for kxa in np.linspace(-3.0, 3.0, count)]
    assert all(mat.dtype == np.complex128 for mat in mats)
    return mats


def harper_chains(count):
    """`count` real Harper chains (dim 13) at one flux, varying k_x; for odd
    `count` the middle one is at k_x = 0, where the chain is C2."""
    return [harper_matrix(1.4, kxa, 6) for kxa in np.linspace(-2.0, 2.0, count)]


def sweep_points(mats):
    """The sweep of one axis value whose k points are the matrices `mats`."""
    return sweep(lambda _axis: lambda k_idx: mats[k_idx], [1.0], range(len(mats)))


class TestSolveFailures:
    """The sweep solves each point's matrix alone, so each failure stays
    with its own point."""

    def test_non_hermitian_matrix_fails_only_its_own_point(self):
        mats = llb_matrices(4)
        mats[2][0, 1] += 1e-3 * np.max(np.abs(mats[2]))
        with pytest.raises(NumericalError) as single:
            hermitian_eigvals(mats[2])
        grid = sweep_points(mats)
        assert grid.failures == [f"axis[0]=1, k[2]: {single.value}"]
        assert "matrix is not Hermitian" in str(single.value)
        assert grid.eigenvalues[0][2].size == 0
        for idx in (0, 1, 3):
            assert np.array_equal(grid.eigenvalues[0][idx], hermitian_eigvals(mats[idx]))

    def test_linalg_error_in_a_block_fails_only_its_own_point(self, monkeypatch):
        # the chain at k_x = 0 (mats[2]) is C2: its even block fails
        mats = harper_chains(5)
        want = [hermitian_eigvals(mat) for mat in mats]
        even, _ = c2_blocks(mats[2])
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def even_block_fails(m):
            seen.append(m.shape)
            if np.array_equal(m, even):
                raise np.linalg.LinAlgError("synthetic non-convergence")
            return eigvalsh(m)

        monkeypatch.setattr(numerics.np.linalg, "eigvalsh", even_block_fails)
        with pytest.raises(NumericalError) as single:
            hermitian_eigvals(mats[2])
        assert seen == [(7, 7)]
        grid = sweep_points(mats)
        assert grid.failures == [f"axis[0]=1, k[2]: {single.value}"]
        assert str(single.value) == (
            f"eigensolver failed to converge (fingerprint {numerics._fingerprint(mats[2])}): "
            "synthetic non-convergence")
        assert grid.eigenvalues[0][2].size == 0
        for idx in (0, 1, 3, 4):
            assert np.array_equal(grid.eigenvalues[0][idx], want[idx])

    def test_non_finite_block_eigenvalue_fails_only_its_own_point(self, monkeypatch):
        # the chain at k_x = 0 (mats[1]) is C2: its odd block gives a NaN
        mats = harper_chains(3)
        want = [hermitian_eigvals(mat) for mat in mats]
        _, odd = c2_blocks(mats[1])
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def odd_block_nan(m):
            seen.append(m.shape)
            vals = eigvalsh(m)
            if np.array_equal(m, odd):
                vals[0] = np.nan
            return vals

        monkeypatch.setattr(numerics.np.linalg, "eigvalsh", odd_block_nan)
        with pytest.raises(NumericalError) as single:
            hermitian_eigvals(mats[1])
        assert seen == [(7, 7), (6, 6)]
        grid = sweep_points(mats)
        assert grid.failures == [f"axis[0]=1, k[1]: {single.value}"]
        assert str(single.value) == (
            f"non-finite eigenvalues (fingerprint {numerics._fingerprint(mats[1])})")
        assert grid.eigenvalues[0][1].size == 0
        for idx in (0, 2):
            assert np.array_equal(grid.eigenvalues[0][idx], want[idx])

    def test_non_finite_matrix_fails_only_its_own_point(self):
        mats = llb_matrices(4)
        mats[1][2, 2] = np.nan
        with pytest.raises(NumericalError) as single:
            hermitian_eigvals(mats[1])
        assert str(single.value).startswith("non-finite matrix entries")
        grid = sweep_points(mats)
        assert grid.failures == [f"axis[0]=1, k[1]: {single.value}"]
        assert grid.eigenvalues[0][1].size == 0
        for idx in (0, 2, 3):
            assert np.array_equal(grid.eigenvalues[0][idx], hermitian_eigvals(mats[idx]))
