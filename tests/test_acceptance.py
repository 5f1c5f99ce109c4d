"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Criteria run at their stated tolerances; the printed
summary makes the gate auditable from the pytest -s output."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from cavity_bloch import cli, output, parallel
from cavity_bloch.cavity_gas import (
    CavitySetup,
    GasEigenstateLabel,
    ModeSet,
    collective_coupling,
    coupling_scale,
    many_mode_spectrum,
    no_a2_coupling,
    single_mode_energy,
    stability_classify,
)
from cavity_bloch.config import parse_config
from cavity_bloch.constants import C_LIGHT, EPSILON_0, E_CHARGE, EV, HBAR, M_ELECTRON
from cavity_bloch.eft import (
    EftSetup,
    casimir_pressure,
    effective_coupling,
    eft_chi_aa,
    renormalized_mass,
    zero_point_energy_per_area,
)
from cavity_bloch.landau import cyclotron_frequency
from cavity_bloch.lattice import Lattice2D, bravais_cosine_potential, field_for_flux_ratio
from cavity_bloch.numerics import hermitian_eigvals
from cavity_bloch.qed_bloch import (
    BasisTruncation,
    PolaritonParams,
    assemble_central_matrix,
    assemble_llb_matrix,
    coupling_window_end,
    harper_hopping,
    harper_matrix,
    landau_polariton_branches,
    midpoint_kx_grid,
    polariton_harper_matrix,
    spectral_gaps,
    sweep,
)
from cavity_bloch.response import (
    chi_aa,
    chi_ea_time_kernel,
    chi_jj,
    chi_mixed,
    dc_suppression,
    default_grid,
    optical_conductivity,
)

from oracles import harper_bloch_union, harper_exact_bands, kramers_kronig_real

A = 2e-10
SQUARE = Lattice2D(A, A, math.pi / 2)


def report(number, label, elapsed, budget=None):
    timing = f"{elapsed:.2f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    print(f"PASS criterion {number}: {label} [{timing}]")


class TestAcceptance:
    def test_criterion_1_landau_polariton_experiment(self):
        start = time.perf_counter()
        setup = CavitySetup(omega_cav=2 * math.pi * 0.208e12, n2d=1.3e16, mass_ratio=0.336)
        omega_p = setup.omega_p
        assert abs(omega_p - 0.292e12) / 0.292e12 < 0.005
        branches = landau_polariton_branches(np.linspace(0.05, 30.0, 400), setup)
        ceiling = branches["lp_ceiling"]
        assert abs(ceiling - 0.146e12) / 0.146e12 < 0.005
        # nonzero polariton gap: the lower-branch ceiling stays below the
        # cavity frequency (0.146 < 0.208 in the quoted units, and in rad/s)
        assert ceiling / 1e12 < 0.208
        assert ceiling < setup.omega_cav
        assert np.all(branches["lower"] < ceiling)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(1, "Landau polaritons: omega_p=0.292, ceiling=0.146, gap open", elapsed, 1)

    def test_criterion_2_harper_limit_chain(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        pot = bravais_cosine_potential("square", 3.0 * EV, SQUARE)
        trunc = BasisTruncation(n_max=16, j_max=0)
        worst = 0.0
        for _ in range(8):
            flux = float(rng.choice([0.5, 1.0 / 3.0, 2.0 / 3.0, 1.0]))
            kxa = float(rng.uniform(-math.pi, math.pi))
            _, w_c = field_for_flux_ratio(SQUARE, flux), cyclotron_frequency(
                field_for_flux_ratio(SQUARE, flux)
            )
            params = PolaritonParams(1e-8 * w_c, w_c)
            t_hop = harper_hopping(flux, 1.5 * EV)
            central = hermitian_eigvals(
                assemble_central_matrix(pot, params, kxa / A, 0.0, trunc, reduce_m=True)
            )
            llb = hermitian_eigvals(assemble_llb_matrix(pot, w_c, kxa / A, trunc))
            harper = hermitian_eigvals(harper_matrix(flux, kxa, trunc.n_max))
            scaled_central = (central - 0.5 * HBAR * params.big_omega) / t_hop
            scaled_llb = (llb - 0.5 * HBAR * w_c) / t_hop
            worst = max(
                worst,
                float(np.max(np.abs(scaled_central - harper))),
                float(np.max(np.abs(scaled_llb - harper))),
                float(np.max(np.abs(scaled_central - scaled_llb))),
            )
        assert worst < 1e-5
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report(2, f"limit chain central=LLB=Harper, worst residual {worst:.2e}", elapsed, 30)

    def test_criterion_3_hofstadter_structure(self):
        start = time.perf_counter()
        # q bands at reciprocal flux p/q: exact intervals from the
        # k-independent characteristic polynomial; even q keeps q intervals
        # with the central pair touching at a point (the known band kissing)
        for q in (2, 3, 4, 5):
            for p in {1, q - 1}:
                if math.gcd(p, q) != 1:
                    continue
                bands = harper_exact_bands(p, q)
                assert bands.shape[0] == q
                separations = bands[1:, 0] - bands[:-1, 1]
                resolved = separations > 1e-3
                if q % 2 == 1:
                    assert np.all(resolved), f"unresolved gap at {p}/{q}"
                else:
                    assert np.sum(~resolved) == 1  # the central kissing pair
                    # double root located to sqrt(eps) by the polynomial solver
                    assert abs(separations[q // 2 - 1]) < 1e-6
        # integer reciprocal flux: the union fills [-4, 4] within resolution
        union = harper_bloch_union(1, 1, samples=400000)
        assert union.min() == pytest.approx(-4.0, abs=2e-4)
        assert union.max() == pytest.approx(4.0, abs=2e-4)
        assert not spectral_gaps(union, 1e-3)
        # 300-point flux sweep at n_max = 30 stays inside the budget
        def build(flux):
            return lambda kxa: harper_matrix(flux, kxa, 30)

        grid = sweep(build, np.linspace(0.01, 2.0, 300), midpoint_kx_grid(32))
        assert not grid.failures
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report(3, "Hofstadter bands: q bands at p/q, integer flux fills [-4,4]", elapsed, 120)

    def test_criterion_4_polaritonic_butterfly_windows(self):
        start = time.perf_counter()
        trunc = BasisTruncation(n_max=30)
        kxs = midpoint_kx_grid(32)
        results = {}
        for flux, expected in ((5e-3, 0.07), (0.1, 0.35)):
            g_values = np.linspace(1e-4, 2.0 * expected, 40)
            counts = []
            for g in g_values:
                union = np.sort(
                    np.concatenate(
                        [
                            hermitian_eigvals(polariton_harper_matrix(
                                flux, g, kxa, 0.0, trunc, a1=A, v0=3.0 * EV))
                            for kxa in kxs
                        ]
                    )
                )
                counts.append(len(spectral_gaps(union, 0.05)))
            end = coupling_window_end(g_values, counts)
            assert expected / 1.2 <= end <= expected * 1.2, (flux, end)
            results[flux] = end
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        report(
            4,
            f"butterfly windows g<{results[5e-3]:.3f} (0.07) and g<{results[0.1]:.3f} (0.35)",
            elapsed,
            300,
        )

    def test_criterion_5_response_suite(self):
        start = time.perf_counter()
        omega = 1.0e12
        base = CavitySetup(omega_cav=omega, n2d=1e15)
        c1 = base.omega_p**2 / base.n2d
        setup = CavitySetup(omega_cav=omega, n2d=0.2 * omega**2 / (0.8 * c1))
        wt = setup.omega_tilde
        eta = wt / 100
        volume = setup.l_z
        # (a) Kramers-Kronig residual < 1% over |w| <= 10 wt
        grid = default_grid(wt, points=4001, span=10.0)
        sample = chi_aa(grid, eta, wt, volume)
        reconstructed = kramers_kronig_real(sample)
        mask = np.abs(np.abs(grid) - wt) > 0.2 * wt
        kk = float(
            np.max(np.abs(reconstructed[mask] - sample.value.real[mask]))
            / np.max(np.abs(sample.value.real))
        )
        assert kk < 0.01
        # (b) Maxwell time-domain identity residual < 1e-10
        t = np.linspace(1e-16, 20.0 / wt, 4001)
        derivative = np.cos(wt * t) / (EPSILON_0 * volume)
        maxwell = float(
            np.max(np.abs(derivative - chi_ea_time_kernel(t, wt, volume)))
            / np.max(np.abs(derivative))
        )
        assert maxwell < 1e-10
        # (c) shared-pole argmax across chi_aa, chi_jj, chi_ja, sigma-Drude
        step = 2.0 * eta
        shared_grid = np.arange(-5.0 * wt + 0.5 * step, 5.0 * wt + 0.6 * step, step)
        n_el = setup.n2d
        series = [
            chi_aa(shared_grid, eta, wt, volume).value,
            chi_jj(shared_grid, eta, setup, n_el, volume).value,
            chi_mixed(shared_grid, eta, setup, n_el, volume).value,
            optical_conductivity(shared_grid, eta, setup).value
            - 1j * EPSILON_0 * setup.omega_p**2 / (shared_grid + 1j * eta),
        ]
        window = np.nonzero(shared_grid >= 0.5 * wt)[0]
        indices = {int(window[np.argmax(np.abs(s[window]))]) for s in series}
        assert len(indices) == 1
        # (d) DC suppression exactly 1 - gamma
        for gamma in (0.0, 0.2, 0.5, 0.99):
            assert dc_suppression(gamma)[0] == 1.0 - gamma
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(5, f"response: KK {kk:.2%}, Maxwell {maxwell:.1e}, poles shared, DC exact",
               elapsed, 10)

    def test_criterion_6_eft_suite(self):
        start = time.perf_counter()
        setup = EftSetup(l_z=1.44e-3, n2d=1.3e16, n_electrons=1.3e10, lambda0=4.0)
        # coupling vs quadrature oracle within 1e-4
        wt2 = setup.omega_tilde_kz**2
        kappa_max = math.sqrt(setup.cutoff - wt2) / C_LIGHT
        integral = quad(
            lambda k: 2.0 * math.pi * k / (C_LIGHT**2 * k**2 + wt2), 0.0, kappa_max, limit=400
        )[0] / (4.0 * math.pi**2)
        prefactor = E_CHARGE**2 * setup.n_electrons / (EPSILON_0 * M_ELECTRON * setup.l_z)
        coupling_residual = abs(effective_coupling(setup) - prefactor * integral) / (
            prefactor * integral
        )
        assert coupling_residual < 1e-4
        # mass monotone, equal to m_e at the lower cutoff
        lambdas = np.linspace(1.0, 50.0, 60)
        masses = [
            renormalized_mass(
                EftSetup(l_z=setup.l_z, n2d=setup.n2d, n_electrons=setup.n_electrons, lambda0=l)
            )
            for l in lambdas
        ]
        assert masses[0] == M_ELECTRON
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        # absorption plateau via eta extrapolation within 1e-3
        wt = setup.omega_tilde_kz
        w_mid = np.array([0.5 * (wt + math.sqrt(setup.cutoff))])
        im = eft_chi_aa(w_mid, wt / 1e4, setup).value.imag[0]
        plateau = -1.0 / (4.0 * C_LIGHT**2 * EPSILON_0 * setup.l_z)
        plateau_residual = abs(im - plateau) / abs(plateau)
        assert plateau_residual < 1e-3
        # Casimir pressure positive and matching the finite difference
        pressure = casimir_pressure(setup)
        assert pressure > 0.0
        h = setup.l_z * 1e-6
        numeric = -(
            zero_point_energy_per_area(
                EftSetup(
                    l_z=setup.l_z + h,
                    n2d=setup.n2d,
                    n_electrons=setup.n_electrons,
                    lambda0=setup.lambda0,
                )
            )
            - zero_point_energy_per_area(
                EftSetup(
                    l_z=setup.l_z - h,
                    n2d=setup.n2d,
                    n_electrons=setup.n_electrons,
                    lambda0=setup.lambda0,
                )
            )
        ) / (2.0 * h)
        casimir_residual = abs(pressure - numeric) / abs(numeric)
        assert casimir_residual < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(
            6,
            f"EFT: g {coupling_residual:.1e}, plateau {plateau_residual:.1e}, "
            f"Casimir {casimir_residual:.1e}",
            elapsed,
            10,
        )

    def test_criterion_7_many_mode_oracle(self):
        start = time.perf_counter()
        w1, w2, wp = 1.1e12, 1.9e12, 0.5e12
        volume = 1e-15
        # M = 2, same polarization: 2x2 closed form to 1e-10
        modes = ModeSet(omegas=(w1, w2), polarizations=((1.0, 0.0), (1.0, 0.0)))
        _, normal = many_mode_spectrum(modes, wp, (0.0, 0.0), (0, 0), 0.0, coupling_scale(volume))
        wt1, wt2 = w1**2 + wp**2, w2**2 + wp**2
        disc = math.sqrt((wt1 - wt2) ** 2 + 4 * wp**4)
        closed = np.sort(
            [math.sqrt((wt1 + wt2 - disc) / 2), math.sqrt((wt1 + wt2 + disc) / 2)]
        )
        assert np.max(np.abs(normal - closed) / closed) < 1e-10
        # M = 1 reduces exactly to the single-mode per-polarization result
        single = ModeSet(omegas=(w1,), polarizations=((1.0, 0.0),))
        k = (4e8, 0.0)
        energy, normal1 = many_mode_spectrum(single, wp, k, (0,), 0.0, coupling_scale(volume))
        wt = math.hypot(w1, wp)
        g0 = E_CHARGE * HBAR / M_ELECTRON * math.sqrt(HBAR / (EPSILON_0 * volume * 2 * wt))
        expect = 0.5 * HBAR * wt - g0**2 * k[0] ** 2 / (HBAR * wt)
        assert normal1[0] == pytest.approx(wt, rel=1e-12)
        assert energy == pytest.approx(expect, rel=1e-12)
        # orthogonal polarizations: W diagonal, normal modes = dressed modes
        ortho = ModeSet(omegas=(w1, w2), polarizations=((1.0, 0.0), (0.0, 1.0)))
        _, normal2 = many_mode_spectrum(ortho, wp, (0.0, 0.0), (0, 0), 0.0, coupling_scale(volume))
        assert np.allclose(normal2, np.sort([math.hypot(w1, wp), math.hypot(w2, wp)]), rtol=1e-12)
        elapsed = time.perf_counter() - start
        report(7, "many-mode spectrum: 2x2 closed form, M=1 and orthogonal reductions", elapsed)

    def test_criterion_8_fock_oracle(self):
        start = time.perf_counter()
        area = 1e-14
        worst = 0.0
        for f_cav in (1.0e12, 2.0e12):
            setup = CavitySetup(omega_cav=2 * math.pi * f_cav, n2d=2.0 / area)
            gamma = setup.gamma
            assert gamma <= 0.5
            k_total = 6 * math.pi / 1e-7
            kinetic = HBAR**2 * k_total**2 / (4.0 * M_ELECTRON)  # any fixed 2-electron sum
            volume = area * setup.l_z
            wt = setup.omega_tilde
            g0 = (
                E_CHARGE
                * HBAR
                / M_ELECTRON
                * math.sqrt(HBAR / (EPSILON_0 * volume * 2.0 * wt))
            )
            n_photons = 60
            idx = np.arange(n_photons)
            ladder = np.sqrt(np.arange(1, n_photons))
            ham = np.diag(HBAR * wt * (idx + 0.5)) - g0 * k_total * (
                np.diag(ladder, 1) + np.diag(ladder, -1)
            )
            oracle = np.sort(np.linalg.eigvalsh(ham))
            for n_ph in range(5):
                label = GasEigenstateLabel(
                    collective_k=(k_total, 0.0), occupations=(n_ph, 0), kinetic_sum=kinetic
                )
                analytic = (
                    single_mode_energy(setup, label, area) - kinetic - 0.5 * HBAR * wt
                )
                worst = max(worst, abs(analytic - oracle[n_ph]) / abs(oracle[n_ph]))
        assert worst < 1e-6
        elapsed = time.perf_counter() - start
        report(8, f"truncated-Fock oracle vs analytic spectrum, worst {worst:.1e}", elapsed)

    def test_criterion_9_stability_phase_diagram(self):
        start = time.perf_counter()
        assert stability_classify(0.0) == "stable"
        assert stability_classify(1.0 - 1e-9) == "stable"
        assert stability_classify(1.0) == "critical"
        assert stability_classify(1.0 + 1e-9) == "unstable"
        assert stability_classify(2.0) == "unstable"
        # gamma itself never exceeds one
        for wp_over_w in (0.1, 1.0, 10.0, 1e3):
            assert collective_coupling(1e12, wp_over_w * 1e12) <= 1.0
        # the no-A^2 coupling exceeds one whenever omega_p > omega
        for wp_over_w in (1.5, 2.0, 10.0):
            gamma_prime, verdict = no_a2_coupling(1e12, wp_over_w * 1e12)
            assert gamma_prime > 1.0
            assert verdict == "unstable"
        elapsed = time.perf_counter() - start
        report(9, "stability classifier exact; no-A^2 coupling unbounded", elapsed)

    def test_criterion_10_sweep_determinism(self, tmp_path, monkeypatch):
        start = time.perf_counter()
        config = """
[run]
command = butterfly

[lattice]
kind = square
a1_angstrom = 2.0
a2_angstrom = 2.0
v0_ev = 3.0

[sweep]
flux_min = 0.1
flux_max = 1.5
points = 12
scaling = harper-scaled

[truncation]
n_max = 12

[kgrid]
kx_points = 8

[output]
path = out.csv
format = csv
"""
        payloads = []
        for processes in (1, 1, 4):
            monkeypatch.setattr(parallel, "_available_cpus", lambda: processes)
            monkeypatch.setattr(parallel, "_blas_threads", lambda: 1)
            env = cli.run(parse_config(config))
            path = tmp_path / f"det-{len(payloads)}.csv"
            output.write_csv(env, path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]
        elapsed = time.perf_counter() - start
        report(10, "sweep CSV byte-identical across repeats and process counts", elapsed)
