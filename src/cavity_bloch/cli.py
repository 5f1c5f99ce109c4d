"""Command-line entry point: `cavity-bloch <command> --config <file> ...`.

Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 I/O failure.
Running out of memory is a numerical failure while computing and an I/O
failure while exporting.  An overflow or a division by zero
(ArithmeticError, numpy's included: see run) and a table or scalar result
that holds NaN are numerical failures.

--out, --format and --seed replace [output] path, [output] format and
[run] seed before the config is validated, in one pass (config.parse_config),
so a flag also stands in for an invalid value of its key.  --threads is
checked (>= 1) and selects nothing.

A sweep splits its axis values across CPUs // BLAS threads processes, the
CPUs those this process may run on (`taskset` narrows them); see
qed_bloch.sweep.  The CSV or JSON export of a sweep's spectra is split the
same way (output._write_chunks).  Output bytes do not depend on the split.
The status line `wrote <format> to <path>` goes to stderr, so that
`--out /dev/stdout` carries the output alone, written through the inherited
descriptor.

The `cavity-bloch` script and `python -m cavity_bloch.cli` run console_main,
which flushes stdout and stderr once main returns and ends the process with
os._exit, as the sweep's forked children end (parallel): every output file
is closed and every child reaped by then, and freeing the interpreter's
objects (numpy's among them) took about 35 ms of CPU on a 2-vCPU VM, a
tenth of a 0.35 s polariton-butterfly run.  An exception that escapes main
ends the process as usual.

cavity_gas, eft and response are imported by the handlers that run them, so
that a butterfly, the largest output, pays for none of them at start.

BLAS and LAPACK run on one thread unless the caller sets one of the variables
OpenBLAS reads (parallel.BLAS_THREAD_VARIABLES): a sweep's matrices (dim 61
to 441 at default sizes) gain no wall time from a second BLAS thread and
spend twice the CPU on it, where a second process halves the wall time.  The
pin sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to 1, and MKL_NUM_THREADS
to 1 where it is unset.
"""

import argparse
import math
import os
import sys

from . import parallel

# BLAS reads its thread count when numpy loads it, so the pin precedes numpy
if not any(name in os.environ for name in parallel.BLAS_THREAD_VARIABLES):
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from . import landau, qed_bloch
from .config import COMMANDS, FORMATS, parse_config
from .constants import EV, HBAR, THZ
from .errors import (CavityBlochError, ConfigError, DomainError, NumericalError, StabilityError,
                     derived)
from .lattice import (
    bravais_cosine_potential,
    bravais_lattice,
    field_for_flux_ratio,
    flux_ratio,
    mtg_flux_condition,
)
from .output import ResultEnvelope, ScalarPayload, TablePayload, export

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

#: failure messages of a sweep printed in full; the rest are counted
FAILURES_SHOWN = 5


def _build(factory, *args, **kwargs):
    """factory(*args, **kwargs), reporting a domain or stability error raised
    while the model is built as the config error it is."""
    try:
        return factory(*args, **kwargs)
    except (DomainError, StabilityError) as exc:
        raise ConfigError([str(exc)]) from exc


def _lattice_from(params):
    return _build(bravais_lattice, params["kind"], params["a1_angstrom"],
                  params["a2_angstrom"], params["theta_deg"])


def _setup_from(params):
    from . import cavity_gas

    return _build(
        cavity_gas.CavitySetup,
        omega_cav=params["cavity_thz"],
        n2d=params["density_cm2"],
        mass_ratio=params.get("mass_ratio", 1.0),
    )


def _run_gas(cfg):
    from . import cavity_gas

    setup = _setup_from(cfg.parameters)
    area = cfg.parameters["area_um2"]
    gamma = setup.gamma
    gamma_prime, no_a2_class = cavity_gas.no_a2_coupling(setup.omega_cav, setup.omega_p)
    disk = landau.fermi_2d(setup.n2d, setup.mass_ratio)
    values = {
        "omega_cav[rad/s]": setup.omega_cav,
        "omega_p[rad/s]": setup.omega_p,
        "omega_tilde[rad/s]": setup.omega_tilde,
        "mirror_distance[m]": setup.l_z,
        "gamma[1]": gamma,
        "phase[class]": cavity_gas.stability_classify(gamma),
        "gamma_no_a2[1]": gamma_prime,
        "phase_no_a2[class]": no_a2_class,
        "photon_occupation_per_polarization[1]": cavity_gas.ground_state_photon_occupation(
            setup.omega_cav, setup.omega_p
        ),
        "n_electrons[1]": setup.n2d * area,
        "fermi_momentum[1/m]": disk["k_F"],
        "gs_energy_density[J/m^2]": disk["energy_density"],
    }
    return ScalarPayload(values=values)


def _run_response(cfg):
    from . import response

    setup = _setup_from(cfg.parameters)
    wt = setup.omega_tilde
    grid = response.default_grid(wt, cfg.parameters["points"], cfg.parameters["span"])
    eta = cfg.parameters["eta_fraction"] * wt
    # per unit mirror area: V -> L_z and N -> n2d leave every N/V ratio intact
    volume = setup.l_z
    n_electrons = setup.n2d
    aa = response.chi_aa(grid, eta, wt, volume)
    ea = response.chi_ea(grid, eta, wt, volume)
    jj = response.chi_jj(grid, eta, setup, n_electrons, volume)
    mixed = response.chi_mixed(grid, eta, setup, n_electrons, volume)
    rows = [
        [float(w), v_aa.real, v_aa.imag, v_ea.real, v_ea.imag, v_jj.real, v_jj.imag,
         v_m.real, v_m.imag]
        for w, v_aa, v_ea, v_jj, v_m in zip(grid, aa.value, ea.value, jj.value, mixed.value)
    ]
    columns = [
        "w[rad/s]",
        "re_chi_aa[s^2/(F m^2)]", "im_chi_aa[s^2/(F m^2)]",
        "re_chi_ea[s/(F m^2)]", "im_chi_ea[s/(F m^2)]",
        "re_chi_jj[C^4 s^2/(kg^2 F m^2)]", "im_chi_jj[C^4 s^2/(kg^2 F m^2)]",
        "re_chi_ja[C^2 s^2/(kg F m^2)]", "im_chi_ja[C^2 s^2/(kg F m^2)]",
    ]
    return TablePayload(columns=columns, rows=rows)


def _run_conductivity(cfg):
    from . import response

    setup = _setup_from(cfg.parameters)
    wt = setup.omega_tilde
    grid = response.default_grid(wt, cfg.parameters["points"], cfg.parameters["span"])
    eta = cfg.parameters["eta_fraction"] * wt
    sigma = response.optical_conductivity(grid, eta, setup)
    ratio, mass = response.dc_suppression(setup.gamma)
    rows = [[float(w), v.real, v.imag, ratio, mass] for w, v in zip(grid, sigma.value)]
    columns = [
        "w[rad/s]", "re_sigma[S/m]", "im_sigma[S/m]",
        "dc_ratio[1]", "mass_enhancement[1]",
    ]
    return TablePayload(columns=columns, rows=rows)


def _run_eft(cfg):
    from . import eft

    p = cfg.parameters
    setup = _build(
        eft.EftSetup, l_z=p["lz_mm"], n2d=p["density_cm2"], n_electrons=p["n_electrons"],
        lambda0=p["lambda0"], mass_ratio=p["mass_ratio"],
    )
    k_f = landau.fermi_2d(setup.n2d, setup.mass_ratio)["k_F"]
    values = {
        "alpha[1]": setup.alpha,
        "effective_coupling[1]": eft.effective_coupling(setup),
        "lower_cutoff[rad^2/s^2]": setup.omega_tilde_kz**2,
        "cutoff[rad^2/s^2]": setup.cutoff,
        "landau_pole[rad^2/s^2]": eft.landau_pole(setup),
        "renormalized_mass[kg]": eft.renormalized_mass(setup),
        "mass_enhancement[1]": eft.renormalized_mass(setup) / setup.mass,
        "chemical_potential[J]": eft.chemical_potential(setup, k_f),
        "casimir_pressure[N/m^2]": eft.casimir_pressure(setup),
        "absorption_plateau[s^2/(F m^2)]": eft.absorption_plateau(setup),
    }
    return ScalarPayload(values=values)


def _run_landau(cfg):
    p = cfg.parameters
    b = p["b_tesla"]
    n2d = p["density_cm2"]
    mass_ratio = p["mass_ratio"]
    w_c = landau.cyclotron_frequency(b, mass_ratio)
    with derived("filling factor", {"n2d[1/m^2]": n2d, "B[T]": b}):
        nu = landau.filling_factor(n2d, b)
        sigma_xy, sigma_yy = landau.hall_conductance(int(nu))
    eta = p["eta_fraction"] * HBAR * w_c
    with derived("energy window hbar omega_c (n_max + 1)",
                 {"B[T]": b, "mass_ratio[1]": mass_ratio}):
        energies = np.linspace(0.0, HBAR * w_c * (p["n_max"] + 1), p["points"])
    dos = landau.landau_dos(energies, b, eta, p["n_max"], mass_ratio)
    # long format: scalar context rows first, then the DOS grid
    rows = [
        ["cyclotron_frequency[rad/s]", "", w_c],
        ["filling_factor[1]", "", nu],
        ["hall_conductance_at_floor_filling[S]", "", sigma_xy],
        ["longitudinal_conductance[S]", "", sigma_yy],
    ]
    rows += [["dos[1/(eV m^2)]", float(e) / EV, float(d) * EV] for e, d in zip(energies, dos)]
    return TablePayload(columns=["quantity[name]", "energy[eV]", "value[unit-in-name]"], rows=rows)


def _run_polariton(cfg):
    p = cfg.parameters
    setup = _setup_from(p)
    b_fields = np.linspace(p["b_min_tesla"], p["b_max_tesla"], p["points"])
    branches = qed_bloch.landau_polariton_branches(b_fields, setup)
    rows = [
        [float(b), float(wc) / THZ, float(up) / THZ, float(lo) / THZ]
        for b, wc, up, lo in zip(b_fields, branches["omega_c"], branches["upper"],
                                 branches["lower"])
    ]
    columns = [
        "b_field[T]", "cyclotron[1e12 rad/s]",
        "upper_polariton[1e12 rad/s]", "lower_polariton[1e12 rad/s]",
    ]
    return TablePayload(columns=columns, rows=rows)


def _run_butterfly(cfg):
    p = cfg.parameters
    lat = _lattice_from(p)
    pot = _build(bravais_cosine_potential, p["kind"], p["v0_ev"], lat)
    trunc = _build(qed_bloch.BasisTruncation, n_max=p["n_max"], j_max=p["j_max"])
    flux_values = np.linspace(p["flux_min"], p["flux_max"], p["points"])
    if p["scaling"] == "harper-scaled":
        k_grid, build, key = qed_bloch.harper_sweep(trunc.n_max, p["kx_points"])
        unit = "scaled[1]"
    else:
        _build(trunc.dimension, fourier_dims=1)
        k_grid, build, key = qed_bloch.llb_sweep(pot, trunc, p["kx_points"])
        unit = "energy[eV]"
    grid = qed_bloch.sweep(build, flux_values, k_grid, key)
    if p["scaling"] != "harper-scaled":
        grid.eigenvalues = list(grid.converted(lambda eigs: eigs / EV))
    grid.columns = ["flux_ratio[1]", "k_index[1]", "eig_index[1]", unit]
    return grid


def _run_polariton_butterfly(cfg):
    p = cfg.parameters
    lat = _lattice_from(p)
    trunc = _build(qed_bloch.BasisTruncation, n_max=p["n_max"], j_max=0)
    if p["mode"] == "matrix":
        _build(trunc.dimension, fourier_dims=2)
    g_values = np.linspace(p["g_min"], p["g_max"], p["points"])
    k_grid, build, key = qed_bloch.polariton_sweep(p["flux_ratio"], trunc, lat.a1, p["v0_ev"],
                                                   p["mode"], p["kx_points"], p["kw_points"])
    grid = qed_bloch.sweep(build, g_values, k_grid, key)
    grid.columns = ["coupling_g[1]", "k_index[1]", "eig_index[1]", "scaled[1]"]
    return grid


def _run_mtg(cfg):
    p = cfg.parameters
    lat = _lattice_from(p)
    if p.get("b_tesla") is not None:
        b = p["b_tesla"]
    else:
        b = field_for_flux_ratio(lat, p["flux_ratio"])
    verdict, residual = mtg_flux_condition(lat, b, p["p"])
    values = {
        "b_field[T]": b,
        "flux_ratio[1]": flux_ratio(lat, b),
        "enlargement_p[1]": p["p"],
        "verdict[class]": verdict,
        "residual[1]": residual,
    }
    return ScalarPayload(values=values)


def _refuse_nan(payload):
    """Raise NumericalError naming the first column of a table or scalar
    result that holds NaN.  An infinity is a result (a Landau pole beyond
    float64, the mass enhancement at gamma = 1) and passes."""
    if isinstance(payload, ScalarPayload):
        columns, rows = list(payload.values), [list(payload.values.values())]
    elif isinstance(payload, TablePayload):
        columns, rows = payload.columns, payload.rows
    else:
        return  # a sweep fails each non-finite point on its own
    for row in rows:
        for name, value in zip(columns, row):
            if isinstance(value, float) and math.isnan(value):
                raise NumericalError(f"{name} is NaN")


def run(cfg):
    """Dispatch a validated config; returns a ResultEnvelope.

    The command runs with numpy's overflow, invalid-value and division
    errors raised as FloatingPointError, which fails the run, or in a sweep
    its point, where numpy would warn and go on with an inf or NaN.  A
    table or scalar result that holds NaN all the same is refused."""
    handlers = {
        "gas": _run_gas,
        "response": _run_response,
        "conductivity": _run_conductivity,
        "eft": _run_eft,
        "landau": _run_landau,
        "polariton": _run_polariton,
        "mtg-check": _run_mtg,
        "butterfly": _run_butterfly,
        "polariton-butterfly": _run_polariton_butterfly,
    }
    if cfg.command not in handlers:  # pragma: no cover - parse_config guards the command set
        raise ConfigError([f"unknown command {cfg.command!r}"])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload = handlers[cfg.command](cfg)
    _refuse_nan(payload)
    return ResultEnvelope(
        config_text=cfg.source_text, command=cfg.command, payload=payload, seed=cfg.seed
    )


def _plot_window(cfg):
    lo = cfg.parameters.get("emin_ev")
    hi = cfg.parameters.get("emax_ev")
    if lo is None and hi is None:
        return None
    return (lo, hi)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cavity-bloch",
        description="Cavity-QED condensed matter solvers: gas, response, EFT, butterflies.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI-style config file")
    parser.add_argument("--out", default=None, help="output path (overrides [output] path)")
    parser.add_argument("--format", default=None, choices=FORMATS,
                        help="output format (overrides [output] format)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and checked (>= 1) but selects nothing: a sweep "
                             "runs CPUs // BLAS threads processes, and output never "
                             "depends on it (default: 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded for sampled property runs (overrides [run] seed)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"config error: {args.config} is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_config(text, command=args.command, out=args.out, fmt=args.format,
                           seed=args.seed)
        if args.threads < 1:
            raise ConfigError(["--threads must be >= 1"])
        envelope = run(cfg)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except (CavityBlochError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    # a sweep writes the points that succeeded and reports the rest
    failures = getattr(envelope.payload, "failures", [])
    if failures:
        print(f"numerical failure: {len(failures)} of {envelope.payload.points} points failed",
              file=sys.stderr)
        for message in failures[:FAILURES_SHOWN]:
            print(f"  {message}", file=sys.stderr)
        if len(failures) > FAILURES_SHOWN:
            print(f"  ... and {len(failures) - FAILURES_SHOWN} more", file=sys.stderr)
        if cfg.output_format == "svg-scatter" and len(failures) == envelope.payload.points:
            return EXIT_NUMERICAL  # no point succeeded, so there is nothing to plot

    try:
        export(envelope, cfg.output_path, cfg.output_format, window=_plot_window(cfg))
    except (CavityBlochError, MemoryError) as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {cfg.output_format} to {cfg.output_path}", file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


def console_main(argv=None):
    """Run main(argv) and end the process with its exit code, without the
    interpreter's teardown (see the module docstring)."""
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
