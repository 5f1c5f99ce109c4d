"""Continuum effective-theory tests: coupling quadrature oracle, Landau pole,
mass running, chemical potential, Casimir pressure and the flat absorption
window."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cavity_bloch.constants import C_LIGHT, EPSILON_0, E_CHARGE, HBAR, M_ELECTRON
from cavity_bloch.eft import (
    EftSetup,
    absorption_plateau,
    casimir_pressure,
    chemical_potential,
    effective_coupling,
    eft_chi_aa,
    eft_chi_aa_im_limit,
    landau_pole,
    renormalized_mass,
    zero_point_energy_per_area,
)
from cavity_bloch.errors import DomainError, StabilityError

from oracles import eft_chi_aa_mode_sum


def keller_eft(lambda0=2.0, n_electrons=1.3e10):
    """Keller-style geometry; N = n2d * (1 mm)^2 keeps N alpha small enough
    for a wide stability window while staying physical."""
    return EftSetup(l_z=1.44e-3, n2d=1.3e16, n_electrons=n_electrons, lambda0=lambda0)


def narrow_window_eft(lambda0=1.0, n_electrons=1.3e12):
    """cm^2-sized gas: N alpha ~ 2.5, so the Landau pole is a tangible number."""
    return EftSetup(l_z=1.44e-3, n2d=1.3e16, n_electrons=n_electrons, lambda0=lambda0)


class TestSetup:
    def test_alpha_value(self):
        # dimensionless alpha = 2.81e-15 m / L_z at unit mass ratio
        setup = keller_eft()
        assert setup.alpha * setup.l_z == pytest.approx(2.81e-15, rel=2e-3)

    def test_window_enforced(self):
        with pytest.raises(StabilityError):
            keller_eft(lambda0=0.5)
        setup = keller_eft()
        with pytest.raises(StabilityError):
            EftSetup(
                l_z=setup.l_z,
                n2d=setup.n2d,
                n_electrons=setup.n_electrons,
                lambda0=setup.lambda0_max * 1.01,
            )


class TestEffectiveCoupling:
    def test_lower_cutoff_vanishes(self):
        assert effective_coupling(keller_eft(lambda0=1.0)) == 0.0

    def test_pole_saturates_at_one(self):
        setup = narrow_window_eft()
        at_pole = EftSetup(
            l_z=setup.l_z,
            n2d=setup.n2d,
            n_electrons=setup.n_electrons,
            lambda0=setup.lambda0_max,
        )
        assert effective_coupling(at_pole) == pytest.approx(1.0, rel=1e-12)

    def test_quadrature_oracle(self):
        # defining mode integral (e^2 N / eps0 m L_z) (1/4pi^2)
        # int d^2kappa / (c^2 kappa^2 + wt^2(kz)) over the cutoff disc
        setup = keller_eft(lambda0=3.7)
        wt2 = setup.omega_tilde_kz**2
        kappa_max = math.sqrt(setup.cutoff - wt2) / C_LIGHT

        def radial(kappa):
            return 2.0 * math.pi * kappa / (C_LIGHT**2 * kappa**2 + wt2)

        integral = quad(radial, 0.0, kappa_max, limit=400)[0] / (4.0 * math.pi**2)
        prefactor = E_CHARGE**2 * setup.n_electrons / (EPSILON_0 * M_ELECTRON * setup.l_z)
        assert effective_coupling(setup) == pytest.approx(prefactor * integral, rel=1e-4)

    def test_no_infrared_divergence(self):
        # finite coupling for every mirror distance, down to L_z = 1 m
        for l_z in (1e-6, 1e-3, 1.0):
            setup = EftSetup(l_z=l_z, n2d=1.3e16, n_electrons=10.0, lambda0=1.5)
            assert math.isfinite(effective_coupling(setup))
            assert setup.omega_tilde_kz > 0.0


class TestLandauPole:
    def test_coupling_one_at_pole(self):
        setup = narrow_window_eft()
        assert setup.n_electrons * setup.alpha * math.log(
            landau_pole(setup) / setup.omega_tilde_kz**2
        ) == pytest.approx(1.0, rel=1e-12)

    def test_decreasing_in_electron_count(self):
        poles = [landau_pole(narrow_window_eft(n_electrons=n)) for n in (1e12, 2e12, 4e12)]
        assert poles[0] > poles[1] > poles[2]

    def test_relative_pole_density_independent(self):
        # Lambda_pole / wt^2(kz) depends only on N alpha, not on the density
        for n2d in (1e15, 1.3e16, 5e16):
            setup = EftSetup(l_z=1.44e-3, n2d=n2d, n_electrons=1.3e12, lambda0=1.0)
            assert landau_pole(setup) / setup.omega_tilde_kz**2 == pytest.approx(
                math.exp(1.0 / (1.3e12 * setup.alpha)), rel=1e-12
            )


class TestRenormalizedMass:
    def test_bare_at_lower_cutoff(self):
        assert renormalized_mass(keller_eft(lambda0=1.0)) == M_ELECTRON

    def test_monotone_in_cutoff(self):
        setup = keller_eft()
        lambdas = np.linspace(1.0, min(setup.lambda0_max, 1e6), 100)
        masses = [renormalized_mass(keller_eft(lambda0=l)) for l in lambdas]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_half_coupling_doubles_mass(self):
        # alpha ln Lambda0 = 1/2 -> m = 2 m_e; needs alpha large enough that
        # Lambda0 = exp(0.5/alpha) stays a float, so shrink the gap to
        # alpha = 1e-3 (the closed form is geometry-agnostic)
        tiny_gap = 2.8179403262e-12
        setup = EftSetup(l_z=tiny_gap, n2d=1.3e16, n_electrons=1.0,
                         lambda0=math.exp(0.5 / 1e-3))
        assert setup.alpha == pytest.approx(1e-3, rel=1e-3)
        assert renormalized_mass(setup) == pytest.approx(
            setup.mass / (1.0 - setup.alpha * math.log(setup.lambda0)), rel=1e-12
        )
        assert renormalized_mass(setup) == pytest.approx(2.0 * M_ELECTRON, rel=2e-3)


class TestChemicalPotential:
    K_F = 2.86e8

    def test_bare_limit(self):
        mu = chemical_potential(keller_eft(lambda0=1.0), self.K_F)
        assert mu == pytest.approx(HBAR**2 * self.K_F**2 / (2 * M_ELECTRON), rel=1e-14)

    def test_decreases_with_cutoff(self):
        mus = [chemical_potential(keller_eft(lambda0=l), self.K_F) for l in (1.0, 2.0, 4.0)]
        assert mus[0] > mus[1] > mus[2]

    def test_quasiparticle_slope_unchanged(self):
        # epsilon_k = mu + hbar v_F (k - k_F): the slope is the supplied v_F,
        # independent of the cutoff by construction
        v_f = HBAR * self.K_F / M_ELECTRON
        for lambda0 in (1.0, 3.0):
            mu = chemical_potential(keller_eft(lambda0=lambda0), self.K_F)
            disp = lambda k: mu + HBAR * v_f * (k - self.K_F)
            slope = (disp(self.K_F * 1.01) - disp(self.K_F * 0.99)) / (0.02 * self.K_F)
            assert slope == pytest.approx(HBAR * v_f, rel=1e-12)

    def test_invalid_kf(self):
        with pytest.raises(DomainError):
            chemical_potential(keller_eft(), 0.0)


class TestCasimir:
    def test_zero_at_lower_cutoff(self):
        assert casimir_pressure(keller_eft(lambda0=1.0)) == 0.0

    def test_repulsive(self):
        assert casimir_pressure(keller_eft(lambda0=2.0)) > 0.0

    def test_finite_difference_oracle(self):
        # -d(E_p/S)/dL_z at fixed Lambda0 and fixed areal density
        setup = keller_eft(lambda0=2.5)
        h = setup.l_z * 1e-6

        def energy(l_z):
            shifted = EftSetup(
                l_z=l_z, n2d=setup.n2d, n_electrons=setup.n_electrons, lambda0=setup.lambda0
            )
            return zero_point_energy_per_area(shifted)

        numeric = -(energy(setup.l_z + h) - energy(setup.l_z - h)) / (2.0 * h)
        assert casimir_pressure(setup) == pytest.approx(numeric, rel=1e-6)

    def test_lambda_scaling_exact(self):
        # pressure proportional to Lambda0^{3/2} - 1
        base = casimir_pressure(keller_eft(lambda0=2.0))
        for lambda0 in np.linspace(1.1, 6.0, 10):
            ratio = (lambda0**1.5 - 1.0) / (2.0**1.5 - 1.0)
            assert casimir_pressure(keller_eft(lambda0=lambda0)) == pytest.approx(
                ratio * base, rel=1e-12
            )


class TestEftResponse:
    def test_plateau_inside_window(self):
        setup = keller_eft(lambda0=4.0)
        wt = setup.omega_tilde_kz
        root = math.sqrt(setup.cutoff)
        w = np.array([-0.5 * (wt + root), -1.0001 * wt, 0.0, 1.0001 * wt, 0.5 * (wt + root),
                      1.2 * root])
        im = eft_chi_aa_im_limit(w, setup)
        plateau = 1.0 / (4.0 * C_LIGHT**2 * EPSILON_0 * setup.l_z)
        assert im[0] == pytest.approx(plateau, rel=1e-14)
        assert im[4] == pytest.approx(-plateau, rel=1e-14)
        assert im[2] == 0.0 and im[5] == 0.0
        assert absorption_plateau(setup) == plateau

    def test_eta_extrapolation_to_plateau(self):
        setup = keller_eft(lambda0=4.0)
        wt = setup.omega_tilde_kz
        w = np.array([0.5 * (wt + math.sqrt(setup.cutoff))])
        eta = wt / 1e4
        im = eft_chi_aa(w, eta, setup).value.imag[0]
        plateau = -1.0 / (4.0 * C_LIGHT**2 * EPSILON_0 * setup.l_z)
        assert abs(im - plateau) / abs(plateau) < 1e-3

    def test_real_part_grows_at_cutoffs(self):
        # |Re| grows without bound on grids refining toward w = wt(kz) and
        # w = sqrt(Lambda)
        setup = keller_eft(lambda0=4.0)
        wt = setup.omega_tilde_kz
        approach = np.sort(np.array([wt * (1 + 10.0**-k) for k in range(2, 6)]))
        re = eft_chi_aa(approach, wt * 1e-9, setup).value.real
        assert np.all(np.diff(np.abs(re)) < 0.0)  # closest to wt is largest
        root = math.sqrt(setup.cutoff)
        approach_hi = np.sort(np.array([root * (1 - 10.0**-k) for k in range(2, 6)]))
        re_hi = eft_chi_aa(approach_hi, wt * 1e-9, setup).value.real
        assert np.all(np.diff(np.abs(re_hi)) > 0.0)  # growing toward the cutoff

    def test_mode_sum_oracle(self):
        # 400 x 400 kappa-grid midpoint sum vs the closed form, finite eta
        setup = keller_eft(lambda0=4.0)
        wt = setup.omega_tilde_kz
        root = math.sqrt(setup.cutoff)
        w = np.sort(np.array([0.35 * wt, 0.5 * (wt + root), 1.3 * root, -0.8 * (wt + root)]))
        eta = wt / 50
        closed = eft_chi_aa(w, eta, setup).value
        summed = eft_chi_aa_mode_sum(w, eta, setup, grid_points=400).value
        assert np.max(np.abs(summed - closed) / np.abs(closed)) < 0.01

    def test_eta_zero_rejected_for_complex_branch(self):
        with pytest.raises(DomainError):
            eft_chi_aa(np.array([0.0]), 0.0, keller_eft())
