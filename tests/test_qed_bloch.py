"""QED-Bloch solver tests: polariton parameters, screening identity, coupling
matrices, central-equation limits, Harper bands and the polaritonic windows."""

import cmath
import errno
import functools
import itertools
import math
import os
import re
import signal
import threading
import time

import numpy as np
import pytest

from cavity_bloch import numerics, parallel, qed_bloch

from cavity_bloch.cavity_gas import CavitySetup
from cavity_bloch.constants import EV, HBAR, M_ELECTRON
from cavity_bloch.errors import DomainError, NumericalError
from cavity_bloch.landau import cyclotron_frequency
from cavity_bloch.lattice import (
    FourierPotential,
    Lattice2D,
    bravais_cosine_potential,
    field_for_flux_ratio,
)
from cavity_bloch.numerics import c2_blocks, hermitian_eigvals, hermiticity_residual
from cavity_bloch.qed_bloch import (
    DIAG_SAFE_CAP,
    BasisTruncation,
    PolaritonParams,
    alpha_matrix,
    assemble_central_matrix,
    assemble_llb_matrix,
    count_bands,
    coupling_window_end,
    harper_hopping,
    harper_matrix,
    landau_polariton_branches,
    landau_polariton_energy,
    midpoint_kx_grid,
    polariton_harper_matrix,
    polariton_hoppings,
    polariton_scaled_kinetic,
    polariton_sweep,
    screening_chi,
    spectral_gaps,
    sweep,
)

from oracles import (
    displacement_matrix_element,
    harper_bloch_matrix,
    harper_bloch_union,
    harper_exact_bands,
)

A = 2e-10
SQUARE = Lattice2D(A, A, math.pi / 2)


def square_setup(flux):
    b = field_for_flux_ratio(SQUARE, flux)
    return b, cyclotron_frequency(b)


def pointwise(assembler):
    """A sweep's build for assembler(axis, k): at each axis value, the
    function of k that calls it."""
    return lambda axis: functools.partial(assembler, axis)


def c2_key(_axis, kx_a):
    """The butterfly's sweep key: C2 gives k_x and -k_x one spectrum."""
    return abs(kx_a)


def flux_one_sweep(v0, mode="auto", n_max=3, kx_points=4, kw_points=1):
    """The polariton-butterfly's sweep (k_grid, build, key) at flux 1 on the
    square lattice of spacing A, at potential v0, in `mode` and up to n_max,
    over kx_points x kw_points k points."""
    return polariton_sweep(1.0, BasisTruncation(n_max=n_max), A, v0, mode, kx_points,
                           kw_points)


def flux_one_key(v0, mode="auto"):
    """The key of flux_one_sweep."""
    return flux_one_sweep(v0, mode)[2]


def partners_of(key, k_grid, axis=1.0):
    """The partner map a sweep makes from `key` at one axis value."""
    return sweep(lambda _axis: lambda _k: np.zeros((1, 1)), [axis], k_grid, key).partners[0]


class TestPolaritonParams:
    def test_balanced_coupling(self):
        w = 1e12
        params = PolaritonParams(w, w)
        assert params.big_omega == pytest.approx(math.sqrt(2.0) * w, rel=1e-14)
        assert params.g == 1.0

    def test_no_field_limit_mass(self):
        # 1/M ~ 2 omega_p^2 / m_e for omega_p << omega_c: vanishes as the
        # quantized field decouples, quadratically in omega_p
        params = PolaritonParams(1e4, 1e12)
        assert params.inv_m_total == pytest.approx(
            2.0 * params.omega_p**2 / M_ELECTRON, rel=1e-12
        )
        smaller = PolaritonParams(1e2, 1e12)
        assert smaller.inv_m_total / params.inv_m_total == pytest.approx(1e-4, rel=1e-10)

    def test_mu_omega_identity(self):
        params = PolaritonParams(0.7e12, 1.9e12)
        assert params.mu * params.big_omega**2 == pytest.approx(2.0 * M_ELECTRON, rel=1e-12)
        assert params.big_omega**2 == pytest.approx(
            params.omega_p**2 + params.omega_c**2, rel=1e-12
        )

    def test_singular_inputs_rejected(self):
        with pytest.raises(DomainError):
            PolaritonParams(0.0, 1e12)


class TestLandauPolaritonBranches:
    def keller(self):
        return CavitySetup(omega_cav=2 * math.pi * 0.208e12, n2d=1.3e16, mass_ratio=0.336)

    def test_upper_asymptote_is_cyclotron(self):
        setup = self.keller()
        b = np.array([0.1, 1.0, 30.0])
        branches = landau_polariton_branches(b, setup)
        assert branches["upper"][-1] / branches["omega_c"][-1] == pytest.approx(1.0, rel=1e-3)

    def test_lower_ceiling_value(self):
        setup = self.keller()
        branches = landau_polariton_branches(np.linspace(0.01, 60.0, 500), setup)
        ceiling = branches["lp_ceiling"]
        assert ceiling == pytest.approx(0.146e12, rel=5e-3)
        assert np.all(branches["lower"] < ceiling)
        assert branches["lower"][-1] == pytest.approx(ceiling, rel=1e-2)

    def test_polariton_gap(self):
        # the lower branch never reaches the bare cavity frequency
        setup = self.keller()
        assert 0.5 * setup.omega_p < setup.omega_cav

    def test_energy_formula(self):
        params = PolaritonParams(0.5e12, 1.2e12)
        e0 = landau_polariton_energy(params, 0.0, 0.0, 0)
        assert e0 == pytest.approx(0.5 * HBAR * params.big_omega, rel=1e-14)
        e1 = landau_polariton_energy(params, 0.0, 0.0, 1)
        assert e1 - e0 == pytest.approx(HBAR * params.big_omega, rel=1e-12)


class TestScreening:
    def test_no_coupling(self):
        assert screening_chi(0.0) == 1.0

    def test_monotone_decreasing(self):
        samples = [screening_chi(g) for g in np.linspace(0.0, 10.0, 200)]
        assert all(b < a for a, b in zip(samples, samples[1:]))

    def test_large_coupling_asymptote(self):
        g = 1e3
        assert screening_chi(g) * (2.0 * g / 3.0) == pytest.approx(1.0, rel=1e-3)

    def test_ladder_decomposition_identity(self):
        # Omega [1 - x^2/2 - x^4/2] with x = omega_p/Omega equals omega_c chi(g)
        for g in (0.1, 0.7, 2.3):
            omega_c = 1e12
            omega_p = g * omega_c
            big = math.hypot(omega_p, omega_c)
            x2 = (omega_p / big) ** 2
            electronic = big * (1.0 - 0.5 * x2 - 0.5 * x2**2)
            assert electronic == pytest.approx(omega_c * screening_chi(g), rel=1e-12)


class TestCouplingMatrices:
    def test_zero_offset_vanishes(self):
        _, w_c = square_setup(1.0)
        params = PolaritonParams(0.3 * w_c, w_c)
        assert alpha_matrix(0, 0, SQUARE, params.omega_p, params.omega_c) == 0.0
        assert alpha_matrix(0, 0, SQUARE, 0.0, w_c) == 0.0

    def test_alpha_star_magnitudes(self):
        flux = 1.3
        _, w_c = square_setup(flux)
        g = 0.45
        params = PolaritonParams(g * w_c, w_c)
        expect_10 = math.pi / flux / math.sqrt(1.0 + g * g)
        expect_01 = math.pi / flux / (1.0 + g * g) ** 1.5
        assert abs(alpha_matrix(1, 0, SQUARE, params.omega_p, params.omega_c)) ** 2 \
            == pytest.approx(expect_10, rel=1e-12)
        assert abs(alpha_matrix(0, 1, SQUARE, params.omega_p, params.omega_c)) ** 2 \
            == pytest.approx(expect_01, rel=1e-12)

    def test_beta_star_magnitudes(self):
        flux = 0.8
        _, w_c = square_setup(flux)
        for dn, dm in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert abs(alpha_matrix(dn, dm, SQUARE, 0.0, w_c)) ** 2 == pytest.approx(
                math.pi / flux, rel=1e-12
            )

    def test_alpha_reduces_to_beta(self):
        _, w_c = square_setup(0.7)
        params = PolaritonParams(1e-9 * w_c, w_c)
        for dn, dm in ((1, 0), (0, 1), (1, -1), (-2, 1)):
            assert alpha_matrix(dn, dm, SQUARE, params.omega_p, params.omega_c) == pytest.approx(
                alpha_matrix(dn, dm, SQUARE, 0.0, w_c), rel=1e-10
            )

    #: cyclotron frequencies (rad/s) at which the amplitudes are compared
    OMEGA_C = np.logspace(10, 17, 200).tolist()
    OFFSETS = list(itertools.product(range(-2, 3), repeat=2))

    @pytest.mark.parametrize("kind", ["square", "rectangular", "hexagonal", "oblique",
                                      "centered-rectangular"])
    def test_alpha_at_zero_omega_p_is_beta_bit_for_bit(self, kind):
        # the Landau-level x Bloch amplitude beta, written out, for every
        # offset: the raw-joules butterfly keeps its bytes
        lat = TestFourierLatticeOracle.LATTICES[kind]
        for w_c in self.OMEGA_C:
            length = math.sqrt(HBAR / (2.0 * M_ELECTRON * w_c))
            beta = [length * (-lat.g_x(dn) - 1j * lat.g_oblique(dm, dn))
                    for dn, dm in self.OFFSETS]
            alpha = [alpha_matrix(dn, dm, lat, 0.0, w_c) for dn, dm in self.OFFSETS]
            assert np.array(alpha).tobytes() == np.array(beta).tobytes(), w_c

    @pytest.mark.parametrize("g", [1e-6, 0.3, 1.0, 3.0, 50.0])
    @pytest.mark.parametrize("kind", ["square", "rectangular", "hexagonal", "oblique",
                                      "centered-rectangular"])
    def test_alpha_matches_the_thesis_form(self, kind, g):
        # -sqrt(mu Omega/2 hbar) A^0 - i sqrt(hbar/2 mu Omega) G^v with
        # A^0 = hbar G^x/(sqrt(2) m_e), G^v = (m_p/M) G/(sqrt(2) omega_c)
        lat = TestFourierLatticeOracle.LATTICES[kind]
        for w_c in self.OMEGA_C[::10]:
            params = PolaritonParams(g * w_c, w_c)
            mu_omega = params.mu * params.big_omega
            for dn, dm in self.OFFSETS:
                a0 = HBAR * lat.g_x(dn) / (math.sqrt(2.0) * M_ELECTRON)
                gv = (params.m_p / params.m_total * lat.g_oblique(dm, dn)
                      / (math.sqrt(2.0) * w_c))
                thesis = (-math.sqrt(mu_omega / (2.0 * HBAR)) * a0
                          - 1j * math.sqrt(HBAR / (2.0 * mu_omega)) * gv)
                alpha = alpha_matrix(dn, dm, lat, params.omega_p, w_c)
                assert abs(alpha - thesis) <= 1e-15 * abs(thesis), (w_c, dn, dm)

    def test_beta_antisymmetry(self):
        # the general Hermiticity-supporting identity is linear antisymmetry;
        # the conjugated variant holds where beta is real, e.g. the (+-1, 0)
        # star of the orthogonal square lattice
        _, w_c = square_setup(0.7)
        for dn, dm in ((1, 0), (0, 1), (2, -1)):
            assert alpha_matrix(-dn, -dm, SQUARE, 0.0, w_c) == pytest.approx(
                -alpha_matrix(dn, dm, SQUARE, 0.0, w_c), rel=1e-12
            )
        real_star = alpha_matrix(1, 0, SQUARE, 0.0, w_c)
        assert abs(real_star.imag) < 1e-12 * abs(real_star)
        assert alpha_matrix(-1, 0, SQUARE, 0.0, w_c) == pytest.approx(
            -np.conj(real_star), rel=1e-12
        )


class TestAssembly:
    def potential(self, v0_ev=3.0):
        return bravais_cosine_potential("square", v0_ev * EV, SQUARE)

    def test_llb_free_limit(self):
        # vanishing potential strength: Landau-level ladder on the diagonal
        _, w_c = square_setup(1.0)
        pot = self.potential(1e-12)
        trunc = BasisTruncation(n_max=3, j_max=2)
        vals = hermitian_eigvals(assemble_llb_matrix(pot, w_c, 0.0, trunc))
        ladder = HBAR * w_c * (np.arange(3) + 0.5)
        for level in ladder:
            assert np.min(np.abs(vals - level)) < 1e-6 * HBAR * w_c

    def test_central_free_limit(self):
        _, w_c = square_setup(1.0)
        params = PolaritonParams(0.4 * w_c, w_c)
        pot = self.potential(1e-12)
        trunc = BasisTruncation(n_max=2, j_max=1)
        mat = assemble_central_matrix(pot, params, 0.0, 0.0, trunc)
        vals = hermitian_eigvals(mat)
        e0 = landau_polariton_energy(params, 0.0, 0.0, 0)
        assert np.min(np.abs(vals - e0)) < 1e-6 * HBAR * w_c

    def test_hermiticity_property_random(self):
        # 1000 random (flux, coupling, k) draws: assembly residual at zero
        rng = np.random.default_rng(53)
        pot = self.potential()
        trunc = BasisTruncation(n_max=2, j_max=1)
        for draw in range(1000):
            flux = float(rng.uniform(0.3, 3.0))
            _, w_c = square_setup(flux)
            g = float(rng.uniform(0.01, 2.0))
            params = PolaritonParams(g * w_c, w_c)
            kx = float(rng.uniform(-math.pi, math.pi)) / A
            kw = float(rng.uniform(0.0, 1.0)) * 2 * math.pi / A
            full = assemble_central_matrix(pot, params, kx, kw, trunc)
            assert hermiticity_residual(full) < 1e-10
            llb = assemble_llb_matrix(pot, w_c, kx, trunc)
            assert hermiticity_residual(llb) < 1e-10
            if draw % 100 == 0:
                assert np.all(np.isreal(hermitian_eigvals(full)))

    def test_hexagonal_assembly_hermitian(self):
        lat = Lattice2D(A, A, math.pi / 3)
        pot = bravais_cosine_potential("hexagonal", 3.0 * EV, lat)
        b = field_for_flux_ratio(lat, 0.9)
        w_c = cyclotron_frequency(b)
        mat = assemble_llb_matrix(pot, w_c, 0.2 / A, BasisTruncation(n_max=4, j_max=2))
        assert hermiticity_residual(mat) < 1e-10

    def test_limit_chain_central_llb_harper(self):
        # central (g -> 0, m collapsed) = LLB = Harper at 8 random points
        rng = np.random.default_rng(54)
        pot = self.potential()
        trunc = BasisTruncation(n_max=16, j_max=0)
        for _ in range(8):
            flux = float(rng.choice([0.5, 1.0 / 3.0, 2.0 / 3.0, 1.0]))
            kxa = float(rng.uniform(-math.pi, math.pi))
            b, w_c = square_setup(flux)
            params = PolaritonParams(1e-8 * w_c, w_c)
            t_hop = harper_hopping(flux, 1.5 * EV)  # V0/2 per coefficient
            central = hermitian_eigvals(
                assemble_central_matrix(pot, params, kxa / A, 0.0, trunc, reduce_m=True)
            )
            llb = hermitian_eigvals(assemble_llb_matrix(pot, w_c, kxa / A, trunc))
            harper = hermitian_eigvals(harper_matrix(flux, kxa, trunc.n_max))
            scaled_central = (central - 0.5 * HBAR * params.big_omega) / t_hop
            scaled_llb = (llb - 0.5 * HBAR * w_c) / t_hop
            assert np.max(np.abs(scaled_central - harper)) < 1e-5
            assert np.max(np.abs(scaled_llb - harper)) < 1e-5

    def test_truncation_convergence_n_direction(self):
        # union band-support drift under n_max -> n_max + 10; open-boundary
        # re-quantization limits this to the 1/L^2 scale
        flux = 1.0
        _, w_c = square_setup(flux)
        pot = self.potential()
        kxs = midpoint_kx_grid(8)
        supports = []
        for n_max in (20, 30):
            union = np.concatenate(
                [
                    hermitian_eigvals(
                        assemble_llb_matrix(pot, w_c, k / A, BasisTruncation(n_max=n_max))
                    )
                    for k in kxs
                ]
            )
            supports.append((union.min(), union.max()))
        drift = max(abs(a - b) for a, b in zip(*supports))
        assert drift < 1e-3 * 3.0 * EV

    def test_truncation_convergence_level_mixing(self):
        # in the level-mixing-converged regime the ground state drifts below
        # 1e-4 relative under (n_max, j_max) -> (n_max + 8, j_max + 2)
        _, w_c = square_setup(4.0)
        pot = self.potential()
        kxa = 0.37
        coarse = hermitian_eigvals(
            assemble_llb_matrix(pot, w_c, kxa / A, BasisTruncation(n_max=22, j_max=4))
        )
        fine = hermitian_eigvals(
            assemble_llb_matrix(pot, w_c, kxa / A, BasisTruncation(n_max=30, j_max=6))
        )
        assert abs(coarse[0] - fine[0]) / fine[0] < 1e-4

    def test_bravais_sweeps_gap_opening(self):
        # all five cosine lattices at V0 = 3 eV, a ~ 2 angstrom: the lowest
        # Landau band develops visible gaps approaching one flux quantum
        cases = {
            "square": Lattice2D(2e-10, 2e-10, math.pi / 2),
            "rectangular": Lattice2D(3e-10, 2e-10, math.pi / 2),
            "oblique": Lattice2D(3e-10, 2e-10, math.pi / 3),
            "centered-rectangular": Lattice2D(2e-10, 2e-10, math.radians(75.0)),
            "hexagonal": Lattice2D(2e-10, 2e-10, math.pi / 3),
        }
        trunc = BasisTruncation(n_max=12, j_max=0)
        for kind, lat in cases.items():
            pot = bravais_cosine_potential(kind, 3.0 * EV, lat)
            gap_sizes = {}
            for flux in (0.2, 1.2):
                b = field_for_flux_ratio(lat, flux)
                w_c = cyclotron_frequency(b)
                union = np.concatenate(
                    [
                        hermitian_eigvals(assemble_llb_matrix(pot, w_c, kxa / lat.a1, trunc))
                        for kxa in midpoint_kx_grid(8)
                    ]
                )
                band = np.sort(union) - 0.5 * HBAR * w_c
                diffs = np.diff(band)
                gap_sizes[flux] = float(diffs.max()) / EV
            assert gap_sizes[1.2] > gap_sizes[0.2], kind
            assert gap_sizes[1.2] > 0.01, kind  # visible on the eV scale

    def test_unscaled_envelope_monotone_at_high_field(self):
        # omega_c dominance: the minimum LLB eigenvalue grows with B
        pot = self.potential()
        trunc = BasisTruncation(n_max=12, j_max=0)
        minima = []
        for flux in (2.0, 3.0, 4.5, 7.0):
            _, w_c = square_setup(flux)
            minima.append(hermitian_eigvals(assemble_llb_matrix(pot, w_c, 0.0, trunc))[0])
        assert all(b > a for a, b in zip(minima, minima[1:]))


def loop_matrix(n_max, fourier_dims, j_count, entry):
    """Reference matrix, one explicit entry(row, col, i, j) call per element.

    Rows and columns run row-major over (n, [m,] level) with Fourier indices
    -n_max..n_max; row and col are tuples of Fourier indices.
    """
    fourier = list(itertools.product(range(-n_max, n_max + 1), repeat=fourier_dims))
    dim = len(fourier) * j_count
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for r, row in enumerate(fourier):
        for c, col in enumerate(fourier):
            for i in range(j_count):
                for j in range(j_count):
                    mat[r * j_count + i, c * j_count + j] = entry(row, col, i, j)
    return mat


def assert_entrywise_close(mat, ref):
    assert mat.shape == ref.shape
    assert np.max(np.abs(mat - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFourierLatticeOracle:
    """Every assembled entry against the docstring formulas, loop by loop.

    Hexagonal puts two cosine stars on each dn != 0; oblique has an
    irrational G_{m,n} mixing and a nonzero G^x on both stars.  The LLB and
    reduced central matrices of potentials with an x -> -x mirror are built
    real from mirror pairs; the oracle sums every coefficient as a complex
    number, so it checks the pairing.  The C2 checks show that the sweep may
    take the spectrum at -k_x from the one at k_x.
    """

    LATTICES = {
        "square": Lattice2D(A, A, math.pi / 2.0),
        "rectangular": Lattice2D(A, 1.3 * A, math.pi / 2.0),
        "hexagonal": Lattice2D(A, A, math.pi / 3.0),
        "oblique": Lattice2D(A, 1.3 * A, math.radians(70.0)),
        "centered-rectangular": Lattice2D(A, A, math.radians(75.0)),
    }
    #: square potentials with the b2 or the b1 cosine shifted by a phase: the
    #: first keeps the x -> -x mirror with complex V, the second breaks it
    SHIFTED = {"square-shifted-b2": (0, 1), "square-shifted-b1": (1, 0)}
    #: potentials whose LLB and reduced central matrices are real
    MIRROR = ("square", "rectangular", "hexagonal", "square-shifted-b2")
    KINDS = tuple(LATTICES) + tuple(SHIFTED)
    N_MAX, J_MAX = 3, 2

    def setup_for(self, kind):
        lat = self.LATTICES.get(kind, self.LATTICES["square"])
        pot = bravais_cosine_potential(kind if kind in self.LATTICES else "square", 3.0 * EV, lat)
        if kind in self.SHIFTED:
            dn, dm = self.SHIFTED[kind]
            coeff = dict(pot.coefficients)
            coeff[(dn, dm)] = 1.5 * EV * cmath.exp(0.4j)
            coeff[(-dn, -dm)] = 1.5 * EV * cmath.exp(-0.4j)
            pot = FourierPotential(coefficients=coeff, lattice=lat)
        w_c = cyclotron_frequency(field_for_flux_ratio(lat, 0.7))
        return lat, pot, w_c, BasisTruncation(n_max=self.N_MAX, j_max=self.J_MAX)

    def expected_dtype(self, kind, reduce_m=True):
        return np.float64 if kind in self.MIRROR and reduce_m else np.complex128

    @staticmethod
    def gx_half(lat, n, n_pr):
        return 2.0 * math.pi * ((n + n_pr) / 2.0) / lat.a1

    def llb_reference(self, kind, k_x):
        """The LLB matrix of `kind` at k_x, entry by entry."""
        lat, pot, w_c, _ = self.setup_for(kind)
        length = math.sqrt(HBAR / (2.0 * M_ELECTRON * w_c))

        def entry(row, col, i, j):
            (n,), (n_pr,) = row, col
            value = HBAR * w_c * (i + 0.5) if (n == n_pr and i == j) else 0.0
            for (dn, dm), v in pot.coefficients.items():
                if n - n_pr == dn:
                    g = lat.g_oblique(dm, dn)
                    phase = cmath.exp(
                        -1j * HBAR * (k_x + self.gx_half(lat, n, n_pr)) * g / (M_ELECTRON * w_c)
                    )
                    beta = length * (-lat.g_x(dn) - 1j * g)
                    value += v * phase * displacement_matrix_element(i, j, beta)
            return value

        return loop_matrix(self.N_MAX, 1, self.J_MAX + 1, entry)

    def central_reference(self, kind, reduce_m, k_x, k_w):
        """The central-equation matrix of `kind` at (k_x, k_w), entry by entry."""
        lat, pot, w_c, _ = self.setup_for(kind)
        params = PolaritonParams(0.6 * w_c, w_c)
        mu_omega = params.mu * params.big_omega
        mp_over_m = params.m_p / params.m_total

        def coupling(n, n_pr, dn, dm, v, i, j):
            g = lat.g_oblique(dm, dn)
            a0 = HBAR * lat.g_x(dn) / (math.sqrt(2.0) * M_ELECTRON)
            gv = mp_over_m * g / (math.sqrt(2.0) * params.omega_c)
            a_kx = HBAR * (k_x + self.gx_half(lat, n, n_pr)) / (math.sqrt(2.0) * M_ELECTRON)
            alpha = (
                -math.sqrt(mu_omega / (2.0 * HBAR)) * a0
                - 1j * math.sqrt(HBAR / (2.0 * mu_omega)) * gv
            )
            return v * cmath.exp(-1j * gv * a_kx) * displacement_matrix_element(i, j, alpha)

        def entry(row, col, i, j):
            n, n_pr = row[0], col[0]
            value = 0.0
            if row == col and i == j:
                value = HBAR * params.big_omega * (i + 0.5)
                if not reduce_m:
                    g_w = lat.g_oblique(row[1], n) / (math.sqrt(2.0) * params.omega_c)
                    value += HBAR**2 * (k_w + g_w) ** 2 / (2.0 * params.m_total)
            for (dn, dm), v in pot.coefficients.items():
                if n - n_pr == dn and (reduce_m or row[1] - col[1] == dm):
                    value += coupling(n, n_pr, dn, dm, v, i, j)
            return value

        return loop_matrix(self.N_MAX, 1 if reduce_m else 2, self.J_MAX + 1, entry)

    @pytest.mark.parametrize("kind", KINDS)
    def test_llb_entries(self, kind):
        lat, pot, w_c, trunc = self.setup_for(kind)
        k_x = 0.37 / lat.a1
        mat = assemble_llb_matrix(pot, w_c, k_x, trunc)
        assert mat.dtype == self.expected_dtype(kind)
        assert_entrywise_close(mat, self.llb_reference(kind, k_x))

    #: k_x a1 values at which one flux's coupling terms are checked
    TERMS_KXA = (0.0, 0.37, -0.37, 2.9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_llb_terms_give_every_kx(self, kind):
        # the terms of one flux, built once, hold every k_x's matrix
        lat, pot, w_c, trunc = self.setup_for(kind)
        terms = qed_bloch.central_terms(pot, 0.0, w_c, trunc)
        for kx_a in self.TERMS_KXA:
            mat = terms.matrix(kx_a / lat.a1)
            assert mat.dtype == self.expected_dtype(kind)
            assert_entrywise_close(mat, self.llb_reference(kind, kx_a / lat.a1))

    @pytest.mark.parametrize("omega_c", [0.0, -1.0, math.inf, math.nan])
    def test_llb_terms_need_a_positive_finite_cyclotron_frequency(self, omega_c):
        # an overflowed omega_c (huge flux) is refused, not built into inf entries
        _, pot, _, trunc = self.setup_for("square")
        with pytest.raises(DomainError, match=f"positive and finite, not {omega_c:g}$"):
            qed_bloch.central_terms(pot, 0.0, omega_c, trunc)

    @pytest.mark.parametrize("omega_p", [-1.0, math.inf, math.nan])
    def test_central_terms_need_a_non_negative_finite_omega_p(self, omega_p):
        _, pot, w_c, trunc = self.setup_for("square")
        with pytest.raises(DomainError, match=f"non-negative and finite, not {omega_p:g}$"):
            qed_bloch.central_terms(pot, omega_p, w_c, trunc)

    @pytest.mark.parametrize("reduce_m", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_central_entries(self, kind, reduce_m):
        lat, pot, w_c, trunc = self.setup_for(kind)
        params = PolaritonParams(0.6 * w_c, w_c)
        k_w = 0.3 * lat.g_y(1) / (math.sqrt(2.0) * w_c)
        for kx_a in (-1.2,) + self.TERMS_KXA:
            k_x = kx_a / lat.a1
            mat = assemble_central_matrix(pot, params, k_x, k_w, trunc, reduce_m=reduce_m)
            assert mat.dtype == self.expected_dtype(kind, reduce_m)
            assert_entrywise_close(mat, self.central_reference(kind, reduce_m, k_x, k_w))

    @pytest.mark.parametrize("kind, c", [("square", 0), ("rectangular", 0), ("hexagonal", 1),
                                         ("square-shifted-b2", 0)])
    def test_mirror_partner_negates_g(self, kind, c):
        # the partner (dn, c dn - dm) of every coefficient is a coefficient
        # with the conjugate V, and G_{c dn - dm, dn} = -G_{dm, dn}
        lat, pot, _, _ = self.setup_for(kind)
        assert 2.0 * lat.a2 * math.cos(lat.theta) / lat.a1 == pytest.approx(c, abs=1e-15)
        scale = max(abs(lat.g_oblique(dm, dn)) for dn, dm in pot.coefficients)
        for (dn, dm), v in pot.coefficients.items():
            assert pot.coefficients[(dn, c * dn - dm)] == np.conj(v)
            assert abs(lat.g_oblique(c * dn - dm, dn) + lat.g_oblique(dm, dn)) <= 1e-15 * scale

    #: k_x a1 values of the C2 checks; -k_x a1 is built beside each
    C2_KXA = (0.37, -1.2, 2.9)

    def c2_image(self, mat):
        """U A U^T with U = J (x) diag((-1)^j), J reversing the Fourier index n."""
        n_count, j_count = 2 * self.N_MAX + 1, self.J_MAX + 1
        sign = (-1.0) ** np.arange(j_count)
        blocks = mat.reshape(n_count, j_count, n_count, j_count)[::-1, :, ::-1, :]
        return (blocks * sign[:, None, None] * sign).reshape(mat.shape)

    def assert_c2_image(self, kind, minus, mat):
        # bitwise, except that the hexagonal mirror pairs are summed from the
        # other member at -k_x, which reorders a rounding
        image = self.c2_image(mat)
        if kind == "hexagonal":
            assert np.max(np.abs(minus - image)) <= 1e-15 * np.max(np.abs(mat))
        else:
            assert np.array_equal(minus, image)

    @pytest.mark.parametrize("kind", tuple(LATTICES))
    def test_llb_at_minus_kx_is_c2_image(self, kind):
        lat, pot, w_c, trunc = self.setup_for(kind)
        assert qed_bloch.c2_symmetric(pot)
        for kx_a in self.C2_KXA:
            mat = assemble_llb_matrix(pot, w_c, kx_a / lat.a1, trunc)
            minus = assemble_llb_matrix(pot, w_c, -kx_a / lat.a1, trunc)
            assert minus.dtype == mat.dtype == self.expected_dtype(kind)
            self.assert_c2_image(kind, minus, mat)

    @pytest.mark.parametrize("kind", tuple(LATTICES))
    def test_reduced_central_at_minus_kx_is_c2_image(self, kind):
        lat, pot, w_c, trunc = self.setup_for(kind)
        params = PolaritonParams(0.6 * w_c, w_c)
        for kx_a in self.C2_KXA:
            mat = assemble_central_matrix(pot, params, kx_a / lat.a1, 0.0, trunc, reduce_m=True)
            minus = assemble_central_matrix(pot, params, -kx_a / lat.a1, 0.0, trunc,
                                            reduce_m=True)
            self.assert_c2_image(kind, minus, mat)

    def test_potential_without_c2_needs_every_kx(self):
        # the b2-shifted square potential keeps the x -> -x mirror but not
        # C2: its spectra at +-k_x differ, so the sweep must solve both
        lat, pot, w_c, trunc = self.setup_for("square-shifted-b2")
        assert not qed_bloch.c2_symmetric(pot)
        plus = hermitian_eigvals(assemble_llb_matrix(pot, w_c, 0.37 / lat.a1, trunc))
        minus = hermitian_eigvals(assemble_llb_matrix(pot, w_c, -0.37 / lat.a1, trunc))
        assert np.max(np.abs(plus - minus)) > 1e-3 * (plus[-1] - plus[0])

    def test_polariton_matrix_mode_entries(self):
        flux, g, kx_a, kw_scaled, v0 = 1.3, 0.8, 0.41, 0.3 / A, 1.5 * EV
        mat = polariton_harper_matrix(
            flux, g, kx_a, kw_scaled, BasisTruncation(n_max=self.N_MAX), a1=A, v0=v0,
            mode="matrix",
        )
        tau1, tau2 = polariton_hoppings(flux, g)

        def entry(row, col, _i, _j):
            (n, m), (n_pr, m_pr) = row, col
            phase = 2.0 * math.pi / (flux * (1.0 + g * g)) * (kx_a / (2.0 * math.pi) + n)
            if row == col:
                return min(polariton_scaled_kinetic(flux, g, kw_scaled, m, A, v0), DIAG_SAFE_CAP)
            if m == m_pr and abs(n - n_pr) == 1:
                return tau1
            if n == n_pr and m_pr - m == 1:
                return tau2 * cmath.exp(1j * phase)
            if n == n_pr and m - m_pr == 1:
                return tau2 * cmath.exp(-1j * phase)
            return 0.0

        assert_entrywise_close(mat, loop_matrix(self.N_MAX, 2, 1, entry))


class TestHarper:
    def test_integer_reciprocal_flux_plane_wave_oracle(self):
        # at integer Phi0/Phi the cosine term is n-independent: the chain is a
        # free hopping chain, eigenvalues 2 cos(j pi/(L+1)) + 2 cos(q kx a)
        n_max = 20
        size = 2 * n_max + 1
        for recip in (1, 2):
            flux = 1.0 / recip
            kxa = 0.613
            vals = hermitian_eigvals(harper_matrix(flux, kxa, n_max))
            free = 2.0 * np.cos(np.arange(1, size + 1) * math.pi / (size + 1))
            expect = np.sort(free + 2.0 * math.cos(recip * kxa))
            assert np.max(np.abs(vals - expect)) < 1e-10

    def test_union_symmetric(self):
        # k-union spectrum symmetric under E -> -E on the square lattice; the
        # grid must cover whole periods of the k_x modulation (48 points at
        # reciprocal flux 3) for the finite-sample union to close under the
        # sign map
        flux = 1.0 / 3.0
        union = np.sort(
            np.concatenate([hermitian_eigvals(harper_matrix(flux, kxa, 20))
                            for kxa in midpoint_kx_grid(48)])
        )
        assert np.max(np.abs(union + union[::-1])) < 1e-6

    def test_exact_band_count_rationals(self):
        for q in (2, 3, 4, 5):
            for p in (1, q - 1):
                if math.gcd(p, q) != 1:
                    continue
                bands = harper_exact_bands(p, q)
                assert bands.shape == (q, 2)
                assert np.all(bands[:, 1] >= bands[:, 0] - 1e-9)

    def test_chain_union_inside_exact_bands(self):
        # bulk of the finite-chain union lies inside the exact band intervals
        for p, q in ((1, 3), (1, 5)):
            bands = harper_exact_bands(p, q)
            union = np.concatenate(
                [hermitian_eigvals(harper_matrix(q / p, kxa, 30))
                 for kxa in midpoint_kx_grid(16)]
            )
            inside = np.zeros(union.shape, dtype=bool)
            for lo, hi in bands:
                inside |= (union >= lo - 1e-6) & (union <= hi + 1e-6)
            assert inside.mean() > 0.95

    @pytest.mark.parametrize("kx_a", [0.37, -1.2, 0.0])
    def test_matrix_matches_diag_reference(self, kx_a):
        flux, n_max, hop, onsite = 0.7, 6, 0.4, 1.3
        n_vals = np.arange(-n_max, n_max + 1)
        diag = 2.0 * onsite * np.cos(2.0 * math.pi / flux * (kx_a / (2.0 * math.pi) + n_vals))
        bonds = np.full(n_vals.size - 1, hop)
        ref = np.diag(diag) + np.diag(bonds, 1) + np.diag(bonds, -1)
        assert np.array_equal(harper_matrix(flux, kx_a, n_max, hop=hop, onsite=onsite), ref)

    def test_chain_at_minus_kx_is_the_reversed_chain(self):
        # harper_matrix(F, -k) = J harper_matrix(F, k) J with J reversing n
        for flux in (0.3, 0.7, 1.9):
            for kx_a in (0.37, -1.2, 2.9):
                mat = harper_matrix(flux, kx_a, 30)
                assert np.array_equal(harper_matrix(flux, -kx_a, 30), mat[::-1, ::-1])

    def test_bloch_union_matches_exact_support(self):
        union = harper_bloch_union(1, 3, samples=20000)
        bands = harper_exact_bands(1, 3)
        assert union.min() == pytest.approx(bands[0, 0], abs=1e-3)
        assert union.max() == pytest.approx(bands[-1, 1], abs=1e-3)

    def test_bloch_matrix_stack_matches_explicit_fill(self):
        # every (kappa, theta) of a broadcast stack holds the q x q reduction
        # written out hop by hop; q = 1 and 2 alias both hops onto one entry
        rng = np.random.default_rng(7)
        kappa = rng.uniform(0.0, 2.0 * math.pi, (3, 1))
        theta = rng.uniform(0.0, 2.0 * math.pi, 4)
        for p, q in ((1, 1), (1, 2), (2, 5)):
            stack = harper_bloch_matrix(p, q, kappa, theta)
            assert stack.shape == (3, 4, q, q)
            for i, j in itertools.product(range(3), range(4)):
                ref = np.zeros((q, q), dtype=complex)
                for r in range(q):
                    ref[r, r] += 2.0 * math.cos(2.0 * math.pi * p * r / q + theta[j])
                    ref[r, (r + 1) % q] += cmath.exp(1j * kappa[i, 0])
                    ref[r, (r - 1) % q] += cmath.exp(-1j * kappa[i, 0])
                assert np.max(np.abs(stack[i, j] - ref)) < 1e-14
        one = harper_bloch_matrix(1, 1, 0.4, 1.1)
        assert one.shape == (1, 1)
        assert one[0, 0].real == pytest.approx(2.0 * math.cos(0.4) + 2.0 * math.cos(1.1))


class TestPolaritonHarper:
    def test_reduced_mode_is_anisotropic_harper_chain(self):
        # reduced mode: t1/S on the bonds and 2 (t2/S) cos(...) on the sites,
        # at the renormalized reciprocal flux (Phi0/Phi)/(1 + g^2)
        trunc = BasisTruncation(n_max=6)
        flux, g, kxa = 0.7, 0.9, 0.4
        tau1, tau2 = polariton_hoppings(flux, g)
        ref = np.zeros((trunc.n_count, trunc.n_count))
        for idx, n in enumerate(range(-trunc.n_max, trunc.n_max + 1)):
            ref[idx, idx] = 2.0 * tau2 * math.cos(
                2.0 * math.pi / (flux * (1.0 + g * g)) * (kxa / (2.0 * math.pi) + n)
            )
            if idx + 1 < trunc.n_count:
                ref[idx, idx + 1] = ref[idx + 1, idx] = tau1
        mat = polariton_harper_matrix(flux, g, kxa, 0.0, trunc, a1=A, v0=3.0 * EV,
                                      mode="reduced")
        assert mat.shape == ref.shape
        vals = hermitian_eigvals(mat)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(ref))) < 1e-12

    def test_harper_limit_small_g(self):
        trunc = BasisTruncation(n_max=20)
        for flux in (0.5, 1.0):
            for kxa in (0.2, 1.7):
                mat = polariton_harper_matrix(flux, 1e-8, kxa, 0.0, trunc, a1=A, v0=3.0 * EV)
                assert mat.shape == (trunc.n_count,) * 2  # the reduced chain
                vals = hermitian_eigvals(mat)
                harper = hermitian_eigvals(harper_matrix(flux, kxa, trunc.n_max))
                # S = t1 + t2 -> 2 t at g -> 0: the scaled spectrum is half
                assert np.max(np.abs(2.0 * vals - harper)) < 1e-5

    def test_hoppings_stable_at_deep_suppression(self):
        tau1, tau2 = polariton_hoppings(5e-3, 0.05)
        assert 0.0 < tau1 < tau2 < 1.0
        assert tau1 + tau2 == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("g", [1e103, 1e150, 1e200, 1e308])
    def test_large_coupling_limits(self, g):
        # (1 + g^2)^(3/2) overflows float64 from g ~ 5.6e102 and g^2 from
        # ~1.3e154: the hoppings and kinetic ratio are those of g = 1e100
        assert polariton_hoppings(1.0, g) == polariton_hoppings(1.0, 1e100) == (0.5, 0.5)
        for m in (1, -3):
            kinetic = polariton_scaled_kinetic(1.0, g, 0.0, m, A, 3.0 * EV)
            assert kinetic == polariton_scaled_kinetic(1.0, 1e100, 0.0, m, A, 3.0 * EV)
            assert 0.0 < kinetic < math.inf
        # ln(t2/t1) -> (pi / 2 flux) / g, which tiny flux keeps away from 0
        delta = 0.5 * math.pi / 1e-300 / g
        tau1, tau2 = polariton_hoppings(1e-300, g)
        assert tau1 == pytest.approx(1.0 / (1.0 + math.exp(min(delta, 700.0))), rel=1e-12)
        assert tau1 + tau2 == 1.0

    def test_matrix_mode_at_order_one_flux(self):
        mat = polariton_harper_matrix(1.0, 1.0, 0.3, 0.0, BasisTruncation(n_max=5), a1=A,
                                      v0=3.0 * EV)
        assert mat.shape == (11 * 11,) * 2  # the (n, m) lattice

    def test_matrix_mode_enforces_dimension_cap(self):
        # (2 n_max + 1)^2 = 121 > 100: refused before the matrix is built
        trunc = BasisTruncation(n_max=5, dimension_cap=100)
        with pytest.raises(DomainError, match="exceeds cap"):
            polariton_harper_matrix(1.0, 1.0, 0.3, 0.0, trunc, a1=A, v0=3.0 * EV,
                                    mode="matrix")
        mat = polariton_harper_matrix(1.0, 1.0, 0.3, 0.0, trunc, a1=A, v0=3.0 * EV,
                                      mode="reduced")
        assert mat.shape == (11, 11)

    def test_matrix_mode_matches_full_central_equation(self):
        # the explicit (n, m) polariton lattice is the square-lattice j = 0
        # block of the full central equation, scaled by S and measured from
        # the polariton zero point; two independent assembly routes
        flux, g = 1.0, 0.8
        b = field_for_flux_ratio(SQUARE, flux)
        w_c = cyclotron_frequency(b)
        params = PolaritonParams(g * w_c, w_c)
        pot = bravais_cosine_potential("square", 3.0 * EV, SQUARE)
        trunc = BasisTruncation(n_max=4, j_max=0)
        kxa = 0.83
        kw_scaled = 0.9 / A
        k_w = kw_scaled / (math.sqrt(2.0) * w_c)
        central = hermitian_eigvals(
            assemble_central_matrix(pot, params, kxa / A, k_w, trunc)
        )
        # the cosine potential carries V0/2 per coefficient, so the scale S
        # uses the coefficient amplitude
        s_hop = 0.5 * 3.0 * EV * (
            math.exp(-0.5 * math.pi / (flux * math.sqrt(1 + g * g)))
            + math.exp(-0.5 * math.pi / (flux * (1 + g * g) ** 1.5))
        )
        scaled_central = (central - 0.5 * HBAR * params.big_omega) / s_hop
        direct = hermitian_eigvals(polariton_harper_matrix(
            flux, g, kxa, kw_scaled, trunc, a1=A, v0=1.5 * EV, mode="matrix"))
        assert np.max(np.abs(scaled_central - direct)) < 1e-9

    def test_mode_consistency_at_light_kinetic(self):
        # with the m ladder light (small g at order-one flux), the matrix
        # mode's band bottom approaches the reduced (Bloch) bottom from
        # above; the residual is the open-boundary m-quantization offset
        flux, g = 1.0, 0.05
        trunc = BasisTruncation(n_max=8)
        kxs = midpoint_kx_grid(24)
        red = np.concatenate(
            [
                hermitian_eigvals(polariton_harper_matrix(
                    flux, g, k, 0.0, trunc, a1=A, v0=3.0 * EV, mode="reduced"))
                for k in kxs
            ]
        )
        mat = np.concatenate(
            [
                hermitian_eigvals(polariton_harper_matrix(
                    flux, g, k, 0.0, trunc, a1=A, v0=3.0 * EV, mode="matrix"))
                for k in kxs
            ]
        )
        gap = mat.min() - red.min()
        assert 0.0 <= gap < 0.35


def window_end_for(flux, g_max, n_points=40, kx_points=32):
    trunc = BasisTruncation(n_max=30)
    kxs = midpoint_kx_grid(kx_points)
    g_values = np.linspace(1e-4, g_max, n_points)
    counts = []
    for g in g_values:
        union = np.sort(
            np.concatenate(
                [
                    hermitian_eigvals(
                        polariton_harper_matrix(flux, g, kxa, 0.0, trunc, a1=A, v0=3.0 * EV)
                    )
                    for kxa in kxs
                ]
            )
        )
        counts.append(len(spectral_gaps(union, 0.05)))
    return coupling_window_end(g_values, counts)


def record_calls(monkeypatch, name, owner=qed_bloch):
    """(args, result) of every call to owner.`name` from now on."""
    original = getattr(owner, name)
    seen = []

    def wrapper(*args):
        out = original(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(owner, name, wrapper)
    return seen


class TestPolaritonRealRoute:
    """At kw_scaled = 0 the matrix mode is built in the real form
    S^H H S = Re H - Im(H) P, with P the parity m -> -m."""

    N_MAX = 4
    V0 = 1.5 * EV

    def build(self, flux, g, kx_a, kw_scaled=0.0):
        return polariton_harper_matrix(flux, g, kx_a, kw_scaled,
                                       BasisTruncation(n_max=self.N_MAX), a1=A, v0=self.V0,
                                       mode="matrix")

    def parity(self):
        n_count = 2 * self.N_MAX + 1
        return np.arange(n_count**2).reshape(n_count, n_count)[:, ::-1].ravel()

    def test_complex_matrix_obeys_parity_exactly(self, monkeypatch):
        built = record_calls(monkeypatch, "matrix", qed_bloch.CouplingTerms)
        perm = self.parity()
        for flux, g, kx_a in ((0.97, 0.5, 0.3), (1.3, 1.0, -2.1), (0.7, 2.0, 1.1)):
            self.build(flux, g, kx_a)
            h = built[-1][1]
            assert np.iscomplexobj(h)
            assert np.array_equal(h.conj(), h[perm][:, perm])

    def test_kinetic_diagonal_mirrors_per_m_evaluation(self, monkeypatch):
        built = record_calls(monkeypatch, "matrix", qed_bloch.CouplingTerms)
        flux, g = 1.3, 0.8
        self.build(flux, g, 0.41)
        per_m = [min(polariton_scaled_kinetic(flux, g, 0.0, m, A, self.V0), DIAG_SAFE_CAP)
                 for m in range(-self.N_MAX, self.N_MAX + 1)]
        diag = np.diag(built[-1][1]).real.reshape(2 * self.N_MAX + 1, -1)
        assert np.array_equal(diag, np.broadcast_to(per_m, diag.shape))

    def test_solver_receives_real_matrix_with_the_complex_spectrum(self, monkeypatch):
        built = record_calls(monkeypatch, "matrix", qed_bloch.CouplingTerms)
        for flux, g, kx_a in ((0.97, 0.3, 0.0), (0.97, 1.0, 2.5), (1.3, 0.8, 0.41),
                              (0.6, 1.7, -1.3)):
            mat = self.build(flux, g, kx_a)
            assert mat.dtype == np.float64
            vals = hermitian_eigvals(mat)
            want = np.linalg.eigvalsh(built[-1][1])
            assert np.max(np.abs(vals - want)) <= 1e-12 * (want[-1] - want[0])

    def test_nonzero_kw_keeps_complex_route(self):
        assert np.iscomplexobj(self.build(1.3, 0.8, 0.41, kw_scaled=0.3 / A))

    @pytest.mark.parametrize("mode", ["matrix", "reduced"])
    def test_matrix_at_minus_kx_reverses_the_basis(self, mode):
        # at kw = 0 the matrix at -k_x is K A K, K reversing the (n, m) order
        # (the n order of the reduced chain)
        trunc = BasisTruncation(n_max=self.N_MAX)
        for flux, g, kx_a in ((0.97, 0.5, 0.3), (1.3, 1.0, -2.1), (0.7, 2.0, 1.1)):
            mat = polariton_harper_matrix(flux, g, kx_a, 0.0, trunc, A, self.V0, mode)
            minus = polariton_harper_matrix(flux, g, -kx_a, 0.0, trunc, A, self.V0, mode)
            assert mat.shape == (trunc.n_count ** (2 if mode == "matrix" else 1),) * 2
            assert np.array_equal(minus, mat[::-1, ::-1])


class TestPolaritonGauge:
    """On the (n, m) lattice k_x is a gauge phase: U = diag_{(n, m)}
    e^{i m (Delta(k_x') - Delta(k_x))}, Delta(k_x) = kx_a / (F (1 + g^2)),
    maps H(k_x) onto H(k_x'), so one spectrum serves every k_x of a k_w."""

    N_MAX = 4
    V0 = 1.5 * EV

    def build(self, flux, g, kx_a, kw_scaled, mode="matrix"):
        return polariton_harper_matrix(flux, g, kx_a, kw_scaled,
                                       BasisTruncation(n_max=self.N_MAX), a1=A, v0=self.V0,
                                       mode=mode)

    @pytest.mark.parametrize("flux", [0.37, 1.0, 2.3])
    @pytest.mark.parametrize("g", [0.05, 1.0, 3.0])
    @pytest.mark.parametrize("kw_scaled", [math.pi / A, 0.6 * math.pi / A])
    def test_gauge_maps_the_complex_matrix_between_kx(self, flux, g, kw_scaled):
        m_vals = np.tile(np.arange(-self.N_MAX, self.N_MAX + 1), 2 * self.N_MAX + 1)
        for kx_a, kx_b in ((0.3, -2.1), (1.1, 2.9), (-0.5, 0.5)):
            h_a, h_b = (self.build(flux, g, kx, kw_scaled) for kx in (kx_a, kx_b))
            assert np.iscomplexobj(h_a)
            u = np.exp(1j * m_vals * (kx_b - kx_a) / (flux * (1.0 + g * g)))
            mapped = u.conj()[:, None] * h_a * u[None, :]
            assert np.max(np.abs(mapped - h_b)) <= 1e-14 * np.max(np.abs(h_b))

    @pytest.mark.parametrize("flux, g", [(0.37, 0.05), (1.0, 1.0), (2.3, 3.0)])
    def test_real_route_spectra_agree_across_kx(self, flux, g):
        spectra = [hermitian_eigvals(self.build(flux, g, kx_a, 0.0))
                   for kx_a in midpoint_kx_grid(6)]
        width = spectra[0][-1] - spectra[0][0]
        for vals in spectra[1:]:
            assert np.max(np.abs(vals - spectra[0])) <= 1e-12 * width

    @pytest.mark.parametrize("flux, g, kw_scaled, mode, route", [
        (1.0, 1e-12, 0.0, "auto", "reduced"),  # below G_REDUCED_THRESHOLD
        (1.0, 1.0, 0.0, "auto", "matrix"),
        (1.0, 1.0, 0.6 * math.pi / A, "auto", "matrix"),
        (5e-3, 0.5, 0.0, "auto", "reduced"),  # the m ladder far above the window
        (5e-3, 0.5, 0.0, "matrix", "matrix"),
        (1.0, 1.0, 0.0, "reduced", "reduced"),
    ])
    def test_route_is_the_one_the_matrix_takes(self, flux, g, kw_scaled, mode, route):
        assert qed_bloch.polariton_route(flux, g, A, self.V0, kw_scaled, mode) == route
        n_count = 2 * self.N_MAX + 1
        mat = self.build(flux, g, 0.3, kw_scaled, mode)
        assert mat.shape == (n_count ** (2 if route == "matrix" else 1),) * 2

    @pytest.mark.parametrize("flux, g, mode", [(0.0, 1.0, "auto"), (1.0, -0.1, "matrix"),
                                               (1.0, 1.0, "dense")])
    def test_route_rejects_bad_input(self, flux, g, mode):
        with pytest.raises(DomainError):
            qed_bloch.polariton_route(flux, g, A, self.V0, 0.0, mode)

    def test_partners_solve_one_point_per_kw_on_the_matrix_route(self):
        # kx over [-3pi/4, -pi/4, pi/4, 3pi/4], kw over {0, 0.7/a1}
        k_grid = [(kx, kw) for kx in midpoint_kx_grid(4) for kw in (0.0, 0.7 / A)]
        assert partners_of(flux_one_key(self.V0, "matrix"), k_grid) == [0, 1] * 4
        reduced = [0, 0, 2, 2, 2, 2, 0, 0]  # one point per +-k_x, whatever its kw
        for g, mode in ((1.0, "reduced"), (1e-12, "auto")):
            assert partners_of(flux_one_key(self.V0, mode), k_grid, g) == reduced
        assert flux_one_key(self.V0, "matrix")(1.0, (-0.3, 0.7 / A)) == ("matrix", 0.7 / A)
        assert flux_one_key(self.V0, "reduced")(1.0, (-0.3, 0.7 / A)) == ("reduced", 0.3)

    @pytest.mark.parametrize("points", [1, 4, 7])
    def test_reduced_route_keeps_the_c2_partners(self, points):
        k_grid, _, key = flux_one_sweep(self.V0, kx_points=points)
        assert partners_of(key, k_grid, 1e-12) == partners_of(c2_key, midpoint_kx_grid(points))


class TestPolaritonC2Blocks:
    """At k_x = k_w = 0 the real (n, m) lattice keeps C2, (n, m) -> (-n, -m):
    the sweep hands it to hermitian_eigvals, which solves its even and odd
    blocks in place of the whole."""

    V0 = 3.0 * EV
    GRID = list(itertools.product((3, 6, 10), (1e-12, 1e-3, 0.3, 1.0, 5.0),
                                  (0.37, 1.0, 2.5, 7.0), (2.0, 3.7)))

    def build(self, n_max, g, flux, a1_angstrom, kx_a=0.0, kw_scaled=0.0, mode="matrix"):
        return polariton_harper_matrix(flux, g, kx_a, kw_scaled, BasisTruncation(n_max=n_max),
                                       a1=a1_angstrom * 1e-10, v0=self.V0, mode=mode)

    def test_lattice_at_kx_and_kw_zero_is_exactly_c2_symmetric(self):
        for n_max, g, flux, a1 in self.GRID:
            mat = self.build(n_max, g, flux, a1)
            assert mat.dtype == np.float64
            assert np.array_equal(mat[::-1, ::-1], mat), (n_max, g, flux, a1)

    @pytest.mark.parametrize("n_max", [3, 6, 10])
    def test_block_spectra_together_are_the_full_spectrum(self, n_max):
        for _, g, flux, a1 in self.GRID[::7]:
            mat = self.build(n_max, g, flux, a1)
            even, odd = c2_blocks(mat)
            dim = mat.shape[0]
            assert even.shape == ((dim + 1) // 2,) * 2 and odd.shape == ((dim - 1) // 2,) * 2
            union = np.sort(np.concatenate([np.linalg.eigvalsh(even),
                                            np.linalg.eigvalsh(odd)]))
            full = np.linalg.eigvalsh(mat)
            assert np.max(np.abs(union - full)) <= 1e-12 * (full[-1] - full[0])

    def test_blocks_of_a_small_matrix_by_hand(self):
        # R = [[a, b, c], [b, d, b], [c, b, a]]: even [[a + c, sqrt2 b], [sqrt2 b, d]],
        # odd [[a - c]]
        mat = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 2.0], [3.0, 2.0, 1.0]])
        even, odd = c2_blocks(mat)
        assert np.array_equal(even, [[4.0, 2.0 * math.sqrt(2.0)], [2.0 * math.sqrt(2.0), 5.0]])
        assert np.array_equal(odd, [[-2.0]])
        assert [block.shape for block in c2_blocks(np.array([[7.0]]))] == [(1, 1), (0, 0)]

    def test_sweep_matches_the_full_spectrum_at_every_kx(self):
        # every k_x of (g, k_w = 0) holds the merged block spectrum
        trunc = BasisTruncation(n_max=4)
        g_values = [0.3, 1.0, 2.0]
        kx_grid, build, key = flux_one_sweep(self.V0, "matrix", trunc.n_max, kx_points=4)
        grid = sweep(build, g_values, kx_grid, key)
        assert grid.partners == [[0, 0, 0, 0]] * 3
        assert not grid.failures
        for g, row in zip(g_values, grid.eigenvalues):
            for (kx_a, _), eigs in zip(kx_grid, row):
                full = hermitian_eigvals(polariton_harper_matrix(1.0, g, kx_a, 0.0, trunc, A,
                                                                 self.V0, "matrix"))
                assert np.max(np.abs(eigs - full)) <= 1e-12 * (full[-1] - full[0])

    def test_matrix_that_breaks_c2_is_solved_whole(self, monkeypatch, call_log):
        # a symmetric perturbation that the blocks would drop: the solver
        # sees it and solves the lattice whole, once per g on the matrix route
        built = polariton_harper_matrix

        def perturbed(*args):
            mat = built(*args)
            mat[0, 1] += 1e-6
            mat[1, 0] += 1e-6
            return mat

        monkeypatch.setattr(qed_bloch, "polariton_harper_matrix", perturbed)
        trunc = BasisTruncation(n_max=3)
        mat = perturbed(1.0, 1.0, 0.0, 0.0, trunc, A, self.V0, "matrix")
        assert not np.array_equal(mat, mat[::-1, ::-1])
        want = np.linalg.eigvalsh(mat)
        kx_grid, build, key = flux_one_sweep(self.V0, "matrix", trunc.n_max, kx_points=3)
        call_log.record(numerics.np.linalg, "eigvalsh", lambda m: list(m.shape))
        grid = sweep(build, [1.0], kx_grid, key)
        assert call_log.entries() == [[49, 49]]
        assert not grid.failures and grid.partners == [[0, 0, 0]]
        assert np.max(np.abs(grid.eigenvalues[0][0] - want)) <= 1e-12 * (want[-1] - want[0])

    @pytest.mark.parametrize("g, kw_scaled, mode", [
        (1.0, 0.6 * math.pi / A, "matrix"),  # complex: k_w breaks C2
        (1.0, 0.6 * math.pi / A, "auto"),
        (1.0, 0.0, "reduced"),
        (1e-12, 0.0, "auto"),  # the reduced route below G_REDUCED_THRESHOLD
    ])
    def test_other_routes_return_one_matrix(self, g, kw_scaled, mode):
        trunc = BasisTruncation(n_max=3)
        _, build, _ = polariton_sweep(1.0, trunc, A, self.V0, mode, 1, 1)
        got = build(g)((0.41, kw_scaled))
        want = polariton_harper_matrix(1.0, g, 0.41, kw_scaled, trunc, A, self.V0, mode)
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["matrix", "auto"])
    def test_matrix_route_at_kw_zero_returns_the_kx_zero_lattice(self, mode, call_log):
        trunc = BasisTruncation(n_max=3)
        want = polariton_harper_matrix(1.0, 1.0, 0.0, 0.0, trunc, A, self.V0, "matrix")
        _, build, _ = polariton_sweep(1.0, trunc, A, self.V0, mode, 1, 1)
        call_log.record(numerics.np.linalg, "eigvalsh", lambda m: list(m.shape))
        for kx_a in (0.0, 0.41, -2.9):
            got = build(1.0)((kx_a, 0.0))
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
            hermitian_eigvals(got)
        assert call_log.entries() == [[25, 25], [24, 24]] * 3


class TestPolaritonWindows:
    def test_small_flux_window(self):
        end = window_end_for(5e-3, 0.14)
        assert 0.07 / 1.2 <= end <= 0.07 * 1.2

    def test_larger_flux_window(self):
        end = window_end_for(0.1, 0.7)
        assert 0.35 / 1.2 <= end <= 0.35 * 1.2


class TestSweep:
    def test_single_point_matches_direct(self):
        def assembler(flux, kxa):
            return harper_matrix(flux, kxa, 8)

        grid = sweep(pointwise(assembler), [1.0], [0.3])
        direct = hermitian_eigvals(harper_matrix(1.0, 0.3, 8))
        assert np.array_equal(grid.eigenvalues[0][0], direct)

    def test_failures_recorded_not_raised(self):
        def assembler(flux, kxa):
            if flux > 1.0:
                raise DomainError("synthetic failure")
            return harper_matrix(flux, kxa, 4)

        grid = sweep(pointwise(assembler), [0.5, 1.5], [0.1, 0.2])
        assert len(grid.failures) == 2
        assert grid.eigenvalues[0][0].size == 9
        assert grid.eigenvalues[1][0].size == 0

    def test_programming_errors_propagate(self):
        def assembler(flux, kxa):
            if flux > 1.0:
                raise TypeError("synthetic bug")
            return harper_matrix(flux, kxa, 4)

        with pytest.raises(TypeError, match="synthetic bug"):
            sweep(pointwise(assembler), [0.5, 1.5], [0.1, 0.2])

    def test_each_solved_point_is_one_matrix_solve(self, call_log):
        # one row mixes shapes and dtypes, as polariton-butterfly under
        # mode = auto with kw_points > 1 mixes real chains and complex matrices
        rng = np.random.default_rng(7)

        def hermitian(dim, dtype):
            a = rng.normal(size=(dim, dim)).astype(dtype)
            if dtype == np.complex128:
                a += 1j * rng.normal(size=(dim, dim))
            return a + a.conj().T

        kinds = [(5, np.float64), (5, np.complex128), (7, np.float64), (5, np.float64)]
        k_grid = [(0.1 * idx, 0.5 * (idx % 2)) for idx in range(len(kinds))]
        mats = {k: hermitian(dim, dtype) for k, (dim, dtype) in zip(k_grid, kinds)}
        call_log.record(qed_bloch, "hermitian_eigvals", lambda m: [list(m.shape), m.dtype.name])
        # the second axis value shares k[3] with k[0]
        maps = [[0, 1, 2, 3], [0, 1, 2, 0]]
        grid = sweep(lambda _g: mats.get, [1.0, 2.0], k_grid,
                     lambda g, k: k_grid.index(k) % (4 if g == 1.0 else 3))
        assert grid.partners == maps
        solves = [[[dim] * 2, np.dtype(dtype).name] for dim, dtype in kinds]
        assert sorted(call_log.entries()) == sorted(solves + solves[:3])
        assert grid.k_labels == k_grid and not grid.failures
        for row, partners in zip(grid.eigenvalues, maps):
            for eigs, partner in zip(row, partners):
                assert np.array_equal(eigs, hermitian_eigvals(mats[k_grid[partner]]))
        assert grid.eigenvalues[1][3] is grid.eigenvalues[1][0]

    def test_failed_solve_fails_only_its_point(self):
        def assembler(flux, kxa):
            mat = harper_matrix(flux, kxa, 4)
            if kxa == 0.2:
                mat[0, 1] += 1.0  # not Hermitian
            return mat

        grid = sweep(pointwise(assembler), [0.5], [0.1, 0.2, 0.3])
        assert len(grid.failures) == 1
        assert grid.failures[0].startswith("axis[0]=0.5, k[1]: matrix is not Hermitian")
        assert grid.eigenvalues[0][1].size == 0
        for k_idx in (0, 2):
            assert np.array_equal(grid.eigenvalues[0][k_idx],
                                  hermitian_eigvals(harper_matrix(0.5, [0.1, 0.2, 0.3][k_idx], 4)))

    @staticmethod
    def c2_chain(flux, kxa):
        """A Harper chain plus its reversal: exactly C2 at every k_x, and the
        same matrix at k_x and -k_x."""
        chain = harper_matrix(flux, kxa, 4)
        return chain + chain[::-1, ::-1]

    @staticmethod
    def merged_blocks(mat):
        """The eigenvalues of the two C2 blocks of `mat`, merged in ascending
        order."""
        return np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in c2_blocks(mat)]))

    def test_each_c2_point_is_two_block_solves_and_the_row_is_merged(self, call_log):
        # a plain Harper chain is C2 at k_x = 0 and not at 0.2
        def chain(flux, kxa):
            return harper_matrix(flux, kxa, 4)

        want = [[self.merged_blocks(self.c2_chain(flux, kxa)) for kxa in (0.0, 0.2)]
                for flux in (0.5, 0.8)]
        want_chains = [self.merged_blocks(chain(0.5, 0.0)), np.linalg.eigvalsh(chain(0.5, 0.2))]
        call_log.record(numerics.np.linalg, "eigvalsh", lambda m: list(m.shape))
        grid = sweep(pointwise(self.c2_chain), [0.5, 0.8], [0.0, 0.2])
        chains = sweep(pointwise(chain), [0.5], [0.0, 0.2])
        assert sorted(call_log.entries()) == [[4, 4]] * 5 + [[5, 5]] * 5 + [[9, 9]]
        assert not grid.failures and not chains.failures
        for row, want_row in zip(grid.eigenvalues + chains.eigenvalues, want + [want_chains]):
            for eigs, merged in zip(row, want_row, strict=True):
                assert np.all(np.diff(eigs) >= 0.0)
                assert np.array_equal(eigs, merged)

    @pytest.mark.parametrize("bad, message", [
        (0, "eigensolver failed to converge"),
        (1, "non-finite eigenvalues"),
    ])
    def test_failed_block_fails_the_point_and_its_partners(self, monkeypatch, bad, message):
        # k[0] and k[1] share one C2 matrix, one of whose blocks fails
        block = c2_blocks(self.c2_chain(0.5, 0.1))[bad]
        eigvalsh = np.linalg.eigvalsh

        def failing_block(m):
            if np.array_equal(m, block):
                if bad == 0:
                    raise np.linalg.LinAlgError("synthetic non-convergence")
                return np.full(m.shape[0], math.nan)
            return eigvalsh(m)

        monkeypatch.setattr(numerics.np.linalg, "eigvalsh", failing_block)
        with pytest.raises(NumericalError) as single:
            hermitian_eigvals(self.c2_chain(0.5, 0.1))
        fingerprint = numerics._fingerprint(self.c2_chain(0.5, 0.1))
        assert str(single.value).startswith(f"{message} (fingerprint {fingerprint})")
        grid = sweep(pointwise(self.c2_chain), [0.5], [0.1, -0.1, 0.2], c2_key)
        assert grid.failures == [f"axis[0]=0.5, k[{k_idx}]: {single.value}" for k_idx in (0, 1)]
        assert [eigs.size for eigs in grid.eigenvalues[0]] == [0, 0, 9]

    def test_partners_share_the_merged_array(self):
        grid = sweep(pointwise(self.c2_chain), [0.5], [0.1, -0.1, 0.2], c2_key)
        row = grid.eigenvalues[0]
        assert row[1] is row[0] and row[2] is not row[0]
        assert np.array_equal(row[0], self.merged_blocks(self.c2_chain(0.5, 0.1)))

    def test_assembly_failure_fails_only_its_point(self):
        def assembler(flux, kxa):
            if kxa == 0.2:
                raise DomainError("synthetic failure")
            return harper_matrix(flux, kxa, 4)

        grid = sweep(pointwise(assembler), [0.5, 1.5], [0.1, 0.2, 0.3])
        assert grid.failures == ["axis[0]=0.5, k[1]: synthetic failure",
                                 "axis[1]=1.5, k[1]: synthetic failure"]
        for row, flux in zip(grid.eigenvalues, (0.5, 1.5)):
            assert row[1].size == 0
            assert np.array_equal(row[2], hermitian_eigvals(harper_matrix(flux, 0.3, 4)))

    def test_partner_points_are_never_assembled(self, call_log):
        kx_grid = midpoint_kx_grid(8)

        def assembler(flux, kxa):
            call_log.append([flux, kxa])
            return harper_matrix(flux, kxa, 12)

        grid = sweep(pointwise(assembler), [0.6, 1.1], kx_grid, c2_key)
        assert sorted(call_log.entries()) == [[flux, kxa] for flux in (0.6, 1.1)
                                              for kxa in kx_grid[:4]]
        assert grid.k_labels == [(kxa,) for kxa in kx_grid] and not grid.failures
        for row, flux in zip(grid.eigenvalues, (0.6, 1.1)):
            for k_idx in range(4):
                assert np.array_equal(row[k_idx],
                                      hermitian_eigvals(harper_matrix(flux, kx_grid[k_idx], 12)))
                assert row[7 - k_idx] is row[k_idx]  # shared, not copied
                direct = hermitian_eigvals(harper_matrix(flux, kx_grid[7 - k_idx], 12))
                assert np.max(np.abs(row[7 - k_idx] - direct)) <= 1e-12 * (direct[-1] - direct[0])

    def test_failure_at_a_kept_point_fails_its_partner(self):
        # k = [a, b, 0, -b, -a]: the assembly fails at a, the solve at 0
        kx_grid = midpoint_kx_grid(5)

        def assembler(flux, kxa):
            if kxa == kx_grid[0]:
                raise DomainError("synthetic failure")
            mat = harper_matrix(flux, kxa, 4)
            if kxa == 0.0:
                mat[0, 1] += 1.0  # not Hermitian
            return mat

        grid = sweep(pointwise(assembler), [0.5], kx_grid, c2_key)
        assert [message.split(": ")[:2] for message in grid.failures] == [
            ["axis[0]=0.5, k[0]", "synthetic failure"],
            ["axis[0]=0.5, k[2]", "matrix is not Hermitian"],
            ["axis[0]=0.5, k[4]", "synthetic failure"],
        ]
        row = grid.eigenvalues[0]
        assert [eigs.size for eigs in row] == [0, 9, 0, 9, 0]
        assert row[3] is row[1]

    def test_no_partners_solves_every_point(self):
        kx_grid = midpoint_kx_grid(4)
        assembled = []

        def assembler(flux, kxa):
            assembled.append(kxa)
            return harper_matrix(flux, kxa, 4)

        grid = sweep(pointwise(assembler), [0.5], kx_grid)
        assert assembled == kx_grid
        for eigs, kxa in zip(grid.eigenvalues[0], kx_grid):
            assert np.array_equal(eigs, hermitian_eigvals(harper_matrix(0.5, kxa, 4)))

    def test_axis_values_take_their_own_maps(self, call_log):
        # axis value 0 keys every k point alike, axis value 1 each apart
        def assembler(flux, kxa):
            call_log.append([flux, kxa])
            return harper_matrix(flux, kxa, 4)

        kx_grid = [0.1, -0.1, 0.2]
        grid = sweep(pointwise(assembler), [0.5, 0.7], kx_grid,
                     lambda flux, kxa: 0.0 if flux == 0.5 else kxa)
        assert sorted(call_log.entries()) == [[0.5, 0.1], [0.7, -0.1], [0.7, 0.1], [0.7, 0.2]]
        assert grid.partners == [[0, 0, 0], [0, 1, 2]]
        first, second = grid.eigenvalues
        assert first[1] is first[0] and first[2] is first[0]
        for eigs, kxa in zip(second, kx_grid):
            assert np.array_equal(eigs, hermitian_eigvals(harper_matrix(0.7, kxa, 4)))

    def test_build_runs_once_per_axis_value_and_again_while_it_raises(self, monkeypatch):
        # one process, so the log is in call order: at flux 0.7 build raises
        # at the solved points k[0] and k[1] and returns at k[2]; k[5], k[4]
        # and k[3] are their C2 partners
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        kx_grid = midpoint_kx_grid(6)
        log, raised = [], []

        def build(flux):
            log.append(["build", flux, type(flux)])
            if flux == 0.7 and len(raised) < 2:
                raised.append(None)
                raise DomainError(f"synthetic build failure {len(raised)}")

            def at_k(kxa):
                log.append(["point", flux, kxa])
                return harper_matrix(flux, kxa, 4)

            return at_k

        grid = sweep(build, np.array([0.5, 0.7]), kx_grid, c2_key)
        assert log == ([["build", 0.5, float]] + [["point", 0.5, kxa] for kxa in kx_grid[:3]]
                       + [["build", 0.7, float]] * 3 + [["point", 0.7, kx_grid[2]]])
        assert grid.failures == [f"axis[1]=0.7, k[{k_idx}]: synthetic build failure {attempt}"
                                 for k_idx, attempt in ((0, 1), (1, 2), (4, 2), (5, 1))]
        first, second = grid.eigenvalues
        assert [eigs.size for eigs in second] == [0, 0, 9, 9, 0, 0]
        assert second[5] is second[0] and second[4] is second[1] and second[3] is second[2]
        for row, flux in zip(grid.eigenvalues, (0.5, 0.7)):
            assert np.array_equal(row[2], hermitian_eigvals(harper_matrix(flux, kx_grid[2], 4)))
        assert all(eigs.size == 9 for eigs in first)

    def test_key_error_raises_before_any_build(self):
        # the partner maps are made first: a key that raises is not a point's failure
        def key(flux, kxa):
            if flux > 1.0:
                raise DomainError("synthetic key failure")
            return abs(kxa)

        def build(flux):
            raise AssertionError("build ran")

        with pytest.raises(DomainError, match="synthetic key failure"):
            sweep(build, [0.5, 1.5], [0.1, -0.1], key)

    def test_band_counting_helpers(self):
        values = [0.0, 0.01, 0.02, 1.0, 1.01, 2.5]
        assert count_bands(values, 0.1) == 3
        gaps = spectral_gaps(values, 0.1)
        assert gaps == [(0.02, 1.0), (1.01, 2.5)]


class TestForkedSweep:
    """The sweep split across forked processes (_available_cpus forced to 2
    or 3, one BLAS thread each) returns what the serial sweep returns, or
    raises what it raises."""

    AXIS = [0.4, 0.6, 0.8, 1.1, 1.3]

    #: the variables the sweep reads its BLAS thread count from
    BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @classmethod
    def sweep_in(cls, monkeypatch, processes, assembler, *args, blas=None):
        """sweep(pointwise(assembler), *args) with `processes` CPUs and, of
        the BLAS thread variables, only those in `blas` set (by default
        OPENBLAS_NUM_THREADS=1, so that the sweep splits)."""
        if blas is None:
            blas = {"OPENBLAS_NUM_THREADS": "1"}
        monkeypatch.setattr(parallel, "_available_cpus", lambda: processes)
        for name in cls.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in blas.items():
            monkeypatch.setenv(name, value)
        return sweep(pointwise(assembler), *args)

    # with no valid thread variable OpenBLAS runs one thread per CPU
    @pytest.mark.parametrize("blas, processes", [
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "abc", "GOTO_NUM_THREADS": "-1", "OMP_NUM_THREADS": "2"}, 2),
        ({}, 1),
    ], ids=["openblas-2", "openblas-abc", "openblas-0", "omp-2-after-invalid", "unset"])
    def test_blas_threads_divide_the_cpus(self, monkeypatch, call_log, blas, processes):
        def assembler(flux, kxa):
            call_log.append(os.getpid())
            return harper_matrix(flux, kxa, 4)

        grid = self.sweep_in(monkeypatch, 4, assembler, self.AXIS, [0.1, 0.2], blas=blas)
        assert len(set(call_log.entries())) == processes
        assert not grid.failures

    @pytest.mark.parametrize("processes", [2, 3])
    def test_rows_equal_the_serial_rows(self, monkeypatch, call_log, processes):
        kx_grid = midpoint_kx_grid(8)

        def assembler(flux, kxa):
            call_log.append(os.getpid())
            return harper_matrix(flux, kxa, 12)

        forked = self.sweep_in(monkeypatch, processes, assembler, self.AXIS, kx_grid, c2_key)
        assert len(set(call_log.entries())) == processes  # each process solved its share
        serial = self.sweep_in(monkeypatch, 1, lambda flux, kxa: harper_matrix(flux, kxa, 12),
                               self.AXIS, kx_grid, c2_key)
        assert not forked.failures and not serial.failures
        assert np.array_equal(forked.axis_values, serial.axis_values)
        for forked_row, serial_row in zip(forked.eigenvalues, serial.eigenvalues, strict=True):
            for forked_eigs, serial_eigs in zip(forked_row, serial_row, strict=True):
                assert np.array_equal(forked_eigs, serial_eigs)
            for k_idx in range(4):
                assert forked_row[7 - k_idx] is forked_row[k_idx]  # still shared

    def test_keys_are_made_here_before_the_split(self, monkeypatch, call_log):
        # every key call happens in this process, so this list sees them all
        keyed = []

        def key(flux, kxa):
            keyed.append([os.getpid(), flux, kxa])
            return abs(kxa)

        def assembler(flux, kxa):
            call_log.append(os.getpid())
            return harper_matrix(flux, kxa, 4)

        k_grid = [0.1, -0.1, 0.2]
        grid = self.sweep_in(monkeypatch, 2, assembler, self.AXIS, k_grid, key)
        assert len(set(call_log.entries())) == 2
        assert keyed == [[os.getpid(), flux, kxa] for flux in self.AXIS for kxa in k_grid]
        assert grid.partners == [[0, 0, 2]] * len(self.AXIS)

    def test_failures_in_a_childs_share_keep_axis_and_k_order(self, monkeypatch):
        # two processes: axis[1] and axis[3] are the child's share
        def assembler(flux, kxa):
            if (flux, kxa) in ((0.6, 0.2), (0.8, 0.1)):
                raise DomainError("synthetic failure")
            mat = harper_matrix(flux, kxa, 4)
            if (flux, kxa) == (1.1, 0.3):
                mat[0, 1] += 1.0  # not Hermitian
            return mat

        forked, serial = (self.sweep_in(monkeypatch, processes, assembler, self.AXIS,
                                        [0.1, 0.2, 0.3]) for processes in (2, 1))
        assert forked.failures == serial.failures
        assert [message.split(": ")[:2] for message in forked.failures] == [
            ["axis[1]=0.6, k[1]", "synthetic failure"],
            ["axis[2]=0.8, k[0]", "synthetic failure"],
            ["axis[3]=1.1, k[2]", "matrix is not Hermitian"],
        ]
        for forked_row, serial_row in zip(forked.eigenvalues, serial.eigenvalues, strict=True):
            for forked_eigs, serial_eigs in zip(forked_row, serial_row, strict=True):
                assert np.array_equal(forked_eigs, serial_eigs)

    def test_exception_in_a_childs_share_reaches_the_caller(self, monkeypatch):
        parent = os.getpid()

        def assembler(flux, kxa):
            if os.getpid() != parent:
                raise TypeError(f"synthetic bug at {flux:g}")
            return harper_matrix(flux, kxa, 4)

        with pytest.raises(TypeError, match="synthetic bug at 0.6") as err:
            self.sweep_in(monkeypatch, 2, assembler, self.AXIS, [0.1, 0.2])
        assert "Traceback" in str(err.value.__cause__)  # the child's, as text

    def test_exception_that_does_not_pickle_arrives_as_its_repr(self, monkeypatch):
        parent = os.getpid()

        def assembler(flux, kxa):
            if os.getpid() != parent:
                raise TypeError("synthetic bug", threading.Lock())
            return harper_matrix(flux, kxa, 4)

        with pytest.raises(RuntimeError, match=r"TypeError\('synthetic bug', <unlocked"):
            self.sweep_in(monkeypatch, 2, assembler, self.AXIS, [0.1, 0.2])

    @pytest.mark.parametrize("end", ["killed", "exit 0"])
    def test_child_ending_mid_share_returns_no_grid(self, monkeypatch, end):
        parent = os.getpid()

        def assembler(flux, kxa):
            if os.getpid() != parent and flux > 1.0:  # after axis[1], within the share
                if end == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return harper_matrix(flux, kxa, 4)

        how = "killed by signal 9" if end == "killed" else "exit status 0"
        with pytest.raises(NumericalError, match=re.escape(
                f"the sweep process of axis[1::2] ended without delivering its rows ({how})")):
            self.sweep_in(monkeypatch, 2, assembler, self.AXIS, [0.1, 0.2])

    def test_exception_in_own_share_ends_the_children(self, monkeypatch):
        parent = os.getpid()

        def assembler(flux, kxa):
            if os.getpid() == parent:
                raise TypeError("synthetic bug")
            time.sleep(60.0)
            return harper_matrix(flux, kxa, 4)

        start = time.perf_counter()
        with pytest.raises(TypeError, match="synthetic bug"):
            self.sweep_in(monkeypatch, 3, assembler, self.AXIS, [0.1, 0.2])
        assert time.perf_counter() - start < 30.0  # the children were killed, not awaited

    @pytest.mark.parametrize("failing_fork", [1, 2])
    def test_failed_fork_runs_the_sweep_here(self, monkeypatch, call_log, failing_fork):
        fork = os.fork
        forks = []

        def fork_failing_once(*args):
            forks.append(None)
            if len(forks) == failing_fork:
                raise OSError(errno.EAGAIN, "synthetic fork failure")
            return fork(*args)

        def assembler(flux, kxa):
            call_log.append(os.getpid())
            return harper_matrix(flux, kxa, 4)

        monkeypatch.setattr(os, "fork", fork_failing_once)
        grid = self.sweep_in(monkeypatch, 3, assembler, self.AXIS, [0.1, 0.2])
        # a child forked before the failure may have begun its share, but
        # this process solved every point
        assert call_log.entries().count(os.getpid()) == len(self.AXIS) * 2
        assert not grid.failures
        for row, flux in zip(grid.eigenvalues, self.AXIS, strict=True):
            for eigs, kxa in zip(row, [0.1, 0.2]):
                assert np.array_equal(eigs, hermitian_eigvals(harper_matrix(flux, kxa, 4)))

    def test_other_threads_keep_the_sweep_in_one_process(self, monkeypatch, call_log):
        def assembler(flux, kxa):
            call_log.append(os.getpid())
            return harper_matrix(flux, kxa, 4)

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            self.sweep_in(monkeypatch, 2, assembler, self.AXIS, [0.1, 0.2])
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert call_log.entries() == [os.getpid()] * (len(self.AXIS) * 2)


class TestC2Partners:
    @pytest.mark.parametrize("points", [1, 2, 7, 32, 33])
    def test_midpoint_grid_is_exactly_antisymmetric(self, points):
        kx_grid = midpoint_kx_grid(points)
        assert all(kx_grid[points - 1 - i] == -kx for i, kx in enumerate(kx_grid))
        step = 2.0 * math.pi / points
        assert kx_grid == pytest.approx([-math.pi + (i + 0.5) * step for i in range(points)],
                                        abs=1e-15)
        if points % 2:
            middle = kx_grid[points // 2]
            assert middle == 0.0 and math.copysign(1.0, middle) == 1.0

    @pytest.mark.parametrize("points", [1, 2, 7, 32, 33])
    def test_midpoint_grid_pairs_every_point(self, points):
        half = list(range(points // 2))
        assert partners_of(c2_key, midpoint_kx_grid(points)) == (
            half + [points // 2] * (points % 2) + half[::-1])

    def test_points_without_partner_map_to_themselves(self):
        assert partners_of(c2_key, [0.1, 0.2, -0.3, 0.0]) == [0, 1, 2, 3]
        # every point shares the first point of its key, which is solved
        assert partners_of(c2_key, [0.4, -0.4, 0.4, 0.0, -0.0]) == [0, 0, 0, 3, 3]

    @pytest.mark.parametrize("kind", ["square", "rectangular", "hexagonal", "oblique",
                                      "centered-rectangular"])
    def test_cosine_potentials_are_c2_symmetric(self, kind):
        lat = TestFourierLatticeOracle.LATTICES[kind]
        assert qed_bloch.c2_symmetric(bravais_cosine_potential(kind, 3.0 * EV, lat))


def bits(x):
    return np.float64(x).tobytes()


class TestSweepAdapters:
    """Each adapter's key pairs a point only with one whose spectrum is equal
    by construction, on the adapter's own grid: a |k_x| partner sits at the
    exact mirror of the point (or, on the polaritonic grid, at the point's
    own k_x with another k_w), a ("matrix", k_w) partner at the same k_w,
    and every k_x != 0 of a grid has its mirror in it."""

    V0 = 3.0 * EV
    HEXAGONAL = bravais_cosine_potential("hexagonal", V0, Lattice2D(A, A, math.pi / 3))
    TRUNC = BasisTruncation(n_max=2)

    def check(self, k_grid, key, axis):
        kxs = [k[0] if isinstance(k, tuple) else k for k in k_grid]
        assert {bits(-kx) for kx in kxs if kx != 0.0} <= {bits(kx) for kx in kxs}
        for idx, partner in enumerate(partners_of(key, k_grid, axis)):
            assert partner <= idx
            if partner == idx:
                continue
            name = key(axis, k_grid[idx])
            if isinstance(name, tuple) and name[0] == "matrix":
                assert bits(k_grid[partner][1]) == bits(k_grid[idx][1])
            elif bits(kxs[partner]) != bits(-kxs[idx]):
                # the same k_x at another k_w: the reduced chain has no k_w
                assert isinstance(name, tuple) and bits(kxs[partner]) == bits(kxs[idx])

    @pytest.mark.parametrize("kx_points", range(1, 34))
    def test_harper_and_llb_keys_pair_exact_mirrors(self, kx_points):
        want = midpoint_kx_grid(kx_points)
        for k_grid, _, key in (qed_bloch.harper_sweep(self.TRUNC.n_max, kx_points),
                               qed_bloch.llb_sweep(self.HEXAGONAL, self.TRUNC, kx_points)):
            assert [bits(kx) for kx in k_grid] == [bits(kx) for kx in want]
            self.check(k_grid, key, 0.7)
            assert sum(p == idx for idx, p in enumerate(partners_of(key, k_grid))) == (
                (kx_points + 1) // 2)

    @pytest.mark.parametrize("kx_points", range(1, 34))
    def test_polariton_keys_pair_equal_spectra(self, kx_points):
        for kw_points in (1, 2, 3):
            k_grid, _, key = flux_one_sweep(self.V0, "auto", kx_points=kx_points,
                                            kw_points=kw_points)
            assert len(k_grid) == kx_points * kw_points
            assert [bits(kx) for kx, _ in k_grid[::kw_points]] == [
                bits(kx) for kx in midpoint_kx_grid(kx_points)]
            for g in (1e-12, 1.0):  # the reduced route, and the matrix route at k_w = 0
                self.check(k_grid, key, g)
