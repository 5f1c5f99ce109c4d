"""Linear-response tests: parity, Kramers-Kronig, Maxwell identity, pole
sharing, Drude suppression and the Fourier-transform oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cavity_bloch.cavity_gas import CavitySetup
from cavity_bloch.constants import EPSILON_0, E_CHARGE
from cavity_bloch.errors import DomainError
from cavity_bloch.response import (
    absorption_rate,
    chi_aa,
    chi_ea,
    chi_ea_time_kernel,
    chi_jj,
    chi_mixed,
    dc_suppression,
    default_grid,
    optical_conductivity,
)

from oracles import conductivity_real_imag_closed_form, kramers_kronig_real

WT = 1.4e12
VOLUME = 2e-9


def setup_with_gamma(gamma):
    """CavitySetup with the requested collective coupling (omega fixed)."""
    omega = 1.0e12
    base = CavitySetup(omega_cav=omega, n2d=1e15)
    # omega_p^2 = c1 * n2d at fixed omega_cav; gamma = wp^2/(w^2 + wp^2)
    c1 = base.omega_p**2 / base.n2d
    n2d = gamma * omega**2 / ((1.0 - gamma) * c1)
    return CavitySetup(omega_cav=omega, n2d=n2d)


class TestChiAa:
    def test_parity(self):
        grid = default_grid(WT, points=2001)
        sample = chi_aa(grid, WT / 100, WT, VOLUME)
        assert np.max(np.abs(sample.value.real - sample.value.real[::-1])) < 1e-12 * np.max(
            np.abs(sample.value.real)
        )
        assert np.max(np.abs(sample.value.imag + sample.value.imag[::-1])) < 1e-12 * np.max(
            np.abs(sample.value.imag)
        )

    def test_poles_at_dressed_frequency(self):
        # the dispersive real part extremizes at +-(wt -+ eta)
        eta = WT / 100
        grid = default_grid(WT, points=8001)
        sample = chi_aa(grid, eta, WT, VOLUME)
        mag = np.abs(sample.value.real)
        half = len(grid) // 2
        w_neg = grid[np.argmax(mag[:half])]
        w_pos = grid[half + np.argmax(mag[half:])]
        assert abs(w_pos - WT) < 1.5 * eta
        assert abs(w_neg + WT) < 1.5 * eta

    def test_fourier_transform_oracle(self):
        # quadrature of the damped time kernel against the closed form, in
        # dimensionless time tau = wt * t to keep quad well conditioned
        eta = WT / 100
        eta_rel = eta / WT

        def kernel(tau):
            return -math.sin(tau) * math.exp(-eta_rel * tau)

        tau_max = 40.0 / eta_rel
        chunks = np.linspace(0.0, tau_max, 81)
        sample_w = np.array([-1.7 * WT, -0.6 * WT, 0.35 * WT, 0.8 * WT, 2.2 * WT])
        analytic = chi_aa(sample_w, eta, WT, VOLUME).value
        scale = 1.0 / (EPSILON_0 * WT * VOLUME * WT)  # kernel prefactor and dt = dtau/wt
        for w, expect in zip(sample_w, analytic):
            re = sum(
                quad(kernel, a, b, weight="cos", wvar=w / WT, limit=400)[0]
                for a, b in zip(chunks, chunks[1:])
            )
            im = sum(
                quad(kernel, a, b, weight="sin", wvar=w / WT, limit=400)[0]
                for a, b in zip(chunks, chunks[1:])
            )
            numeric = scale * (re + 1j * im)
            assert abs(numeric - expect) / abs(expect) < 1e-6

    def test_kramers_kronig(self):
        grid = default_grid(WT, points=4001, span=10.0)
        sample = chi_aa(grid, WT / 100, WT, VOLUME)
        reconstructed = kramers_kronig_real(sample)
        scale = np.max(np.abs(sample.value.real))
        mask = np.abs(np.abs(grid) - WT) > 0.2 * WT  # compare away from the sharp poles
        residual = np.max(np.abs(reconstructed[mask] - sample.value.real[mask])) / scale
        assert residual < 0.01


class TestChiEa:
    def test_maxwell_time_domain_identity(self):
        # chi^E_A(t) = -d/dt chi^A_A(t): product-rule derivative of the sin
        # kernel against the cos kernel, eta = 0
        t = np.linspace(1e-16, 20.0 / WT, 5001)
        derivative = -(-np.cos(WT * t) / (EPSILON_0 * VOLUME))  # d/dt of -sin(wt t)/(eps0 wt V)
        cos_kernel = chi_ea_time_kernel(t, WT, VOLUME)
        residual = np.max(np.abs(derivative - cos_kernel)) / np.max(np.abs(cos_kernel))
        assert residual < 1e-10

    def test_damped_identity_with_eta(self):
        # with damping: -d/dt [-sin e^{-et}]/(eps0 wt V) = [cos - (e/wt) sin] e^{-et}/(eps0 V)
        eta = WT / 50
        t = np.linspace(0.0, 30.0 / WT, 2001)
        lhs = (WT * np.cos(WT * t) - eta * np.sin(WT * t)) * np.exp(-eta * t) / (
            EPSILON_0 * WT * VOLUME
        )
        rhs = chi_ea_time_kernel(t, WT, VOLUME, eta) - (eta / WT) * np.sin(WT * t) * np.exp(
            -eta * t
        ) / (EPSILON_0 * VOLUME)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))

    def test_structure_differs_from_chi_aa(self):
        # the complex form (i/2 eps0 V)[1/(w+wt+ie) + 1/(w-wt+ie)] makes the
        # real part a pure eta-carried Lorentzian pair: off resonance it is
        # O(eta), unlike the O(1) dispersive real part of chi_aa
        grid = default_grid(WT, points=1001)
        eta = WT / 100
        sample = chi_ea(grid, eta, WT, VOLUME)
        re, im = sample.value.real, sample.value.imag
        # parity of the complex form: Re even, Im odd
        assert np.max(np.abs(re - re[::-1])) < 1e-12 * np.max(np.abs(re))
        assert np.max(np.abs(im + im[::-1])) < 1e-12 * np.max(np.abs(im))
        # off resonance the real part is O(eta): halving eta halves it
        w_off = np.array([0.4 * WT])
        ratio = (
            chi_ea(w_off, eta / 2, WT, VOLUME).value.real[0]
            / chi_ea(w_off, eta, WT, VOLUME).value.real[0]
        )
        assert ratio == pytest.approx(0.5, rel=1e-3)

    def test_poles_on_grid(self):
        grid = default_grid(WT, points=8001)
        sample = chi_ea(grid, WT / 100, WT, VOLUME)
        mag = np.abs(sample.value.imag)
        half = len(grid) // 2
        assert abs(grid[half + np.argmax(mag[half:])] - WT) < WT / 50


class TestChiJjAndMixed:
    def test_ratio_constant(self):
        setup = setup_with_gamma(0.2)
        wt = setup.omega_tilde
        grid = default_grid(wt, points=801)
        eta = wt / 100
        n_el = 1e7
        base = chi_aa(grid, eta, wt, VOLUME)
        jj = chi_jj(grid, eta, setup, n_el, VOLUME)
        factor = (E_CHARGE**2 * n_el / setup.mass) ** 2
        assert np.allclose(jj.value, factor * base.value, rtol=1e-13)

    def test_n_squared_scaling(self):
        setup = setup_with_gamma(0.2)
        wt = setup.omega_tilde
        grid = default_grid(wt, points=101)
        one = chi_jj(grid, wt / 100, setup, 1e7, VOLUME)
        two = chi_jj(grid, wt / 100, setup, 2e7, VOLUME)
        assert np.allclose(two.value, 4.0 * one.value, rtol=1e-13)

    def test_mixed_symmetric_and_linear(self):
        setup = setup_with_gamma(0.3)
        wt = setup.omega_tilde
        grid = default_grid(wt, points=101)
        eta = wt / 100
        mixed = chi_mixed(grid, eta, setup, 1e7, VOLUME)
        base = chi_aa(grid, eta, wt, VOLUME)
        factor = -(E_CHARGE**2 * 1e7) / setup.mass
        # photon-matter equals matter-photon identically: one array serves both
        assert np.allclose(mixed.value, factor * base.value, rtol=1e-13)
        double = chi_mixed(grid, eta, setup, 2e7, VOLUME)
        assert np.allclose(double.value, 2.0 * mixed.value, rtol=1e-13)

    def test_mixed_response_dimensionless_unit_audit(self):
        # SI exponent bookkeeping (kg, m, s, A): chi^J_A = (e^2 N / m) chi^A_A
        # is dimensionless, i.e. the induced/external current ratio
        def mul(a, b):
            return tuple(x + y for x, y in zip(a, b))

        def inv(a):
            return tuple(-x for x in a)

        charge2_over_mass = (-1, 0, 2, 2)  # C^2/kg = A^2 s^2 / kg
        farad = (-1, -2, 4, 2)
        chi_aa_units = mul((0, -2, 2, 0), inv(farad))  # s^2 / (F m^2)
        chi_ja_units = mul(charge2_over_mass, chi_aa_units)
        assert chi_ja_units == (0, 0, 0, 0)

    def test_paramagnetic_contribution_absent(self):
        # chi_jj depends on the Fermi-sphere ground state only through N;
        # adding any K = 0 label leaves it untouched (structural: no K input)
        setup = setup_with_gamma(0.2)
        wt = setup.omega_tilde
        grid = default_grid(wt, points=11)
        sample = chi_jj(grid, wt / 100, setup, 1e7, VOLUME)
        again = chi_jj(grid, wt / 100, setup, 1e7, VOLUME)
        assert np.array_equal(sample.value, again.value)


class TestConductivity:
    def test_vanishes_without_carriers(self):
        setup = CavitySetup(omega_cav=1e12, n2d=1e2)  # omega_p ~ 0
        grid = default_grid(1e12, points=101)
        sigma = optical_conductivity(grid, 1e10, setup)
        assert np.max(np.abs(sigma.value)) < 1e-12

    def test_resonances_beyond_drude(self):
        setup = setup_with_gamma(0.2)
        wt = setup.omega_tilde
        grid = default_grid(wt, points=16001)
        sigma = optical_conductivity(grid, wt / 100, setup)
        re = sigma.value.real
        half = len(grid) // 2
        # away from the Drude peak the maxima sit at +-omega_tilde
        outer = np.abs(grid) > 0.5 * wt
        peak_w = abs(grid[outer][np.argmax(re[outer])])
        assert abs(peak_w - wt) < wt / 50

    def test_closed_form_decomposition(self):
        setup = setup_with_gamma(0.35)
        wt = setup.omega_tilde
        grid = default_grid(wt, points=2001)
        eta = wt / 100
        sigma = optical_conductivity(grid, eta, setup)
        re, im = conductivity_real_imag_closed_form(grid, eta, setup)
        scale = np.max(np.abs(sigma.value))
        assert np.max(np.abs(sigma.value.real - re)) < 1e-12 * scale
        assert np.max(np.abs(sigma.value.imag - im)) < 1e-12 * scale

    def test_dc_suppression_values(self):
        for gamma in (0.0, 0.2, 0.5, 0.99):
            ratio, mass = dc_suppression(gamma)
            assert ratio == 1.0 - gamma
            if gamma < 1.0:
                assert mass == pytest.approx(1.0 / (1.0 - gamma), rel=1e-14)
        assert dc_suppression(1.0)[0] == 0.0
        assert math.isinf(dc_suppression(1.0)[1])

    def test_kubo_assembly_route(self):
        # sigma rebuilt from the raw Kubo pieces: the background term
        # -e^2 n_e/m* plus the current response per volume, over i(w + i eta)
        setup = setup_with_gamma(0.35)
        wt = setup.omega_tilde
        grid = default_grid(wt, points=801)
        eta = wt / 100
        volume = setup.l_z  # per unit mirror area
        n_el = setup.n2d
        jj = chi_jj(grid, eta, setup, n_el, volume)
        background = -E_CHARGE**2 * (n_el / volume) / setup.mass
        kubo = (background - jj.value / volume) / (1j * (grid + 1j * eta))
        sigma = optical_conductivity(grid, eta, setup)
        scale = np.max(np.abs(sigma.value))
        assert np.max(np.abs(kubo - sigma.value)) < 1e-12 * scale

    def test_dc_limit_of_grid(self):
        # Re sigma(0)/sigma0_dc = 1 - gamma/(1 + eta^2/wt^2) -> 1 - gamma
        gamma = 0.2
        setup = setup_with_gamma(gamma)
        wt = setup.omega_tilde
        eta = wt / 1e5
        sigma0 = EPSILON_0 * setup.omega_p**2 / eta
        sigma = optical_conductivity(np.array([-wt, 0.0, wt]), eta, setup)
        assert sigma.value.real[1] / sigma0 == pytest.approx(1.0 - gamma, rel=1e-6)

    def test_unstable_gamma_rejected(self):
        with pytest.raises(DomainError):
            dc_suppression(1.3)


def pole_sharing_indices(setup, volume, n_el):
    """Grid argmax of the resonance magnitude for chi_aa, chi_jj, chi_ja and
    sigma - Drude.

    The |Re| line shapes place their extrema at pole +- O(eta) offsets that
    differ between dispersive and Lorentzian forms, so the line center is
    located through the complex magnitude.  Common grid with 2 eta spacing
    offset half a step from the pole, search window w >= wt/2 (the w ~ 0
    feature of the cavity conductivity is the DC suppression, not the
    resonance).
    """
    wt = setup.omega_tilde
    eta = wt / 100
    step = 2.0 * eta
    grid = np.arange(-5.0 * wt + 0.5 * step, 5.0 * wt + 0.6 * step, step)
    base = chi_aa(grid, eta, wt, volume)
    jj = chi_jj(grid, eta, setup, n_el, volume)
    mixed = chi_mixed(grid, eta, setup, n_el, volume)
    sigma = optical_conductivity(grid, eta, setup)
    drude = 1j * EPSILON_0 * setup.omega_p**2 / (grid + 1j * eta)
    beyond_drude = sigma.value - drude
    window = np.nonzero(grid >= 0.5 * wt)[0]
    return [
        int(window[np.argmax(np.abs(series[window]))])
        for series in (base.value, jj.value, mixed.value, beyond_drude)
    ]


class TestPoleSharing:
    def test_shared_argmax_across_responses(self):
        indices = pole_sharing_indices(setup_with_gamma(0.2), VOLUME, 1e7)
        assert len(set(indices)) == 1


class TestAbsorption:
    def test_zero_drive(self):
        assert absorption_rate(1e12, -1.0, 0.0) == 0.0

    def test_positive_for_positive_frequency(self):
        grid = default_grid(WT, points=2001)
        sample = chi_aa(grid, WT / 100, WT, VOLUME)
        positive = grid > 0
        rates = absorption_rate(grid[positive], sample.value.imag[positive], 1.0)
        assert np.all(sample.value.imag[positive] <= 1e-30)
        assert np.all(rates >= -1e-30)

    def test_quadratic_in_drive(self):
        rate1 = absorption_rate(1e12, -2e-9, 1.5)
        rate2 = absorption_rate(1e12, -2e-9, 3.0)
        assert rate2 == pytest.approx(4.0 * rate1, rel=1e-14)
