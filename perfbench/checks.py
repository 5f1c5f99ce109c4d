"""Read a workload's output file, count its missing points and spot-check it.

Failures are counted from outside: the CLI drops a failed (axis, k) point
without a row, so attempted points minus the distinct (axis, k_index) pairs
present in the output are the failed ones.  A seeded sample of points is
compared with an independent oracle, at a tolerance relative to the spectral
width:

- harper-scaled-csv: scipy `eigvalsh_tridiagonal` on the Harper chain rebuilt
  from its formula;
- llb-hex-json-t2: scipy `linalg.eigvalsh` of the public `assemble_llb_matrix`;
- polariton-matrix-svg: the trace and Frobenius sum rules (sum of eigenvalues
  and of their squares), summed over the k grid of one g column because the
  scatter plot does not keep k.  The tolerance follows from the plot's
  rounding (2 decimals of a pixel), so it resolves errors of about 1e-4 of
  the plotted range, not round-off.

Each check returns (failed_points, problems); an empty problem list passes.
"""

import json
import math
import re
from collections import defaultdict

import numpy as np
from scipy import linalg

from cavity_bloch import landau, qed_bloch
from cavity_bloch.constants import ANGSTROM, EV
from cavity_bloch.lattice import Lattice2D, bravais_cosine_potential, field_for_flux_ratio
from cavity_bloch.output import SVG_HEIGHT, SVG_WIDTH

HARPER_RTOL = 1e-9
LLB_RTOL = 1e-8
HARPER_SAMPLES = 16
LLB_SAMPLES = 6
POLARITON_SAMPLES = 6


def _kx_grid(points):
    """k_x * a at the midpoints of a uniform Brillouin-zone grid (rebuilt, not
    taken from qed_bloch.midpoint_kx_grid, so the oracle does not share it)."""
    return [-math.pi + (k + 0.5) * 2.0 * math.pi / points for k in range(points)]


def _compare(label, got, want, rtol):
    """Compare ascending eigenvalue lists at rtol times the spectral width."""
    got = np.sort(np.asarray(got, dtype=float))
    if got.shape != want.shape:
        return [f"{label}: {got.size} eigenvalues, oracle has {want.size}"]
    width = float(want[-1] - want[0]) or 1.0
    err = float(np.max(np.abs(got - want)))
    if not err <= rtol * width:
        return [f"{label}: max deviation {err:.3e} > {rtol:.0e} x width {width:.3e}"]
    return []


def _collect(rows, axis_values, kx_points, wanted):
    """Distinct (axis value, k_index) pairs in the rows, and the values of `wanted` points."""
    known = {float(v) for v in axis_values}
    present = set()
    values = {key: [] for key in wanted}
    problems = []
    for axis, k_idx, _e_idx, value in rows:
        key = (axis, k_idx)
        if key not in present:
            if axis not in known or not 0 <= k_idx < kx_points:
                problems.append(f"row outside the sweep: axis {axis!r}, k_index {k_idx!r}")
                break
            present.add(key)
        if key in values:
            values[key].append(value)
    return present, values, problems


def _sample(rng, axis_values, kx_points, count):
    picks = rng.choice(len(axis_values) * kx_points, size=count, replace=False)
    return [(float(axis_values[i // kx_points]), int(i % kx_points)) for i in picks]


def _check_harper(path, params, rng):
    sweep, kx_points = params["sweep"], params["kgrid"]["kx_points"]
    n_max = params["truncation"]["n_max"]
    fluxes = np.linspace(sweep["flux_min"], sweep["flux_max"], sweep["points"])
    wanted = _sample(rng, fluxes, kx_points, HARPER_SAMPLES)
    with open(path, "r", encoding="utf-8") as handle:
        next(handle)
        rows = ((float(a), int(k), int(e), float(v))
                for a, k, e, v in (line.split(",") for line in handle))
        present, values, problems = _collect(rows, fluxes, kx_points, wanted)
    kx = _kx_grid(kx_points)
    n_vals = np.arange(-n_max, n_max + 1)
    for flux, k_idx in wanted:
        diag = 2.0 * np.cos(2.0 * math.pi / flux * (kx[k_idx] / (2.0 * math.pi) + n_vals))
        want = linalg.eigvalsh_tridiagonal(diag, np.ones(n_vals.size - 1))
        problems += _compare(f"flux {flux!r} k {k_idx}", values[(flux, k_idx)], want,
                             HARPER_RTOL)
    return len(fluxes) * kx_points - len(present), problems


def _check_llb(path, params, rng):
    sweep, kx_points = params["sweep"], params["kgrid"]["kx_points"]
    lat_p, trunc_p = params["lattice"], params["truncation"]
    fluxes = np.linspace(sweep["flux_min"], sweep["flux_max"], sweep["points"])
    wanted = _sample(rng, fluxes, kx_points, LLB_SAMPLES)
    with open(path, "r", encoding="utf-8") as handle:
        rows = json.load(handle)["payload"]["rows"]
    present, values, problems = _collect(rows, fluxes, kx_points, wanted)
    lat = Lattice2D(lat_p["a1_angstrom"] * ANGSTROM, lat_p["a2_angstrom"] * ANGSTROM,
                    math.pi / 3.0)
    pot = bravais_cosine_potential(lat_p["kind"], lat_p["v0_ev"] * EV, lat)
    trunc = qed_bloch.BasisTruncation(n_max=trunc_p["n_max"], j_max=trunc_p["j_max"])
    kx = _kx_grid(kx_points)
    for flux, k_idx in wanted:
        w_c = landau.cyclotron_frequency(field_for_flux_ratio(lat, flux))
        mat = qed_bloch.assemble_llb_matrix(pot, w_c, kx[k_idx] / lat.a1, trunc)
        want = linalg.eigvalsh(mat) / EV
        problems += _compare(f"flux {flux!r} k {k_idx}", values[(flux, k_idx)], want, LLB_RTOL)
    return len(fluxes) * kx_points - len(present), problems


_CIRCLE = re.compile(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"')
_LABEL = re.compile(r'font-size="12">([^<]+)</text>')
SVG_PAD = 60  # the plot margin of output.write_svg_scatter


def _polariton_sum_rules(flux, g, kx_a, n_max, a1, v0, matrix_mode):
    """(trace, squared Frobenius norm) of one polaritonic Harper matrix."""
    tau1, tau2 = qed_bloch.polariton_hoppings(flux, g)
    n_count = 2 * n_max + 1
    if matrix_mode:
        kin = np.array([min(qed_bloch.polariton_scaled_kinetic(flux, g, 0.0, m, a1, v0),
                            qed_bloch.DIAG_SAFE_CAP) for m in range(-n_max, n_max + 1)])
        hops = n_count * (n_count - 1) * (tau1**2 + tau2**2)
        return n_count * kin.sum(), n_count * (kin**2).sum() + 2.0 * hops
    n_vals = np.arange(-n_max, n_max + 1)
    diag = 2.0 * tau2 * np.cos(2.0 * math.pi / (flux * (1.0 + g * g))
                               * (kx_a / (2.0 * math.pi) + n_vals))
    return diag.sum(), (diag**2).sum() + 2.0 * (n_count - 1) * tau1**2


def _check_polariton(path, params, rng):
    sweep, kx_points = params["sweep"], params["kgrid"]["kx_points"]
    lat_p, n_max = params["lattice"], params["truncation"]["n_max"]
    g_values = np.linspace(sweep["g_min"], sweep["g_max"], sweep["points"])
    g_values[g_values == 0.0] = 1e-12  # the CLI's continuous Harper limit
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    y0, y1 = (float(v) for v in _LABEL.findall(text)[2:4])
    # the SVG keeps 2 decimals of a pixel and 6 digits of the axis labels
    quantum = 0.005 / (SVG_HEIGHT - 2 * SVG_PAD) * (y1 - y0) + 1e-5 * max(abs(y0), abs(y1))
    columns = defaultdict(list)
    for cx, cy in _CIRCLE.findall(text):
        columns[cx].append(y0 + (SVG_HEIGHT - SVG_PAD - float(cy))
                           / (SVG_HEIGHT - 2 * SVG_PAD) * (y1 - y0))
    # the writer's own x mapping, from the exact ends of the g grid
    x0, xspan = g_values[0], g_values[-1] - g_values[0]
    expected_cx = {f"{SVG_PAD + (g - x0) / xspan * (SVG_WIDTH - 2 * SVG_PAD):.2f}": float(g)
                   for g in g_values}
    problems = [f"circle column at x = {cx} matches no g value"
                for cx in columns if cx not in expected_cx]
    n_count = 2 * n_max + 1
    present = {}
    for cx, g in expected_cx.items():
        # a matrix-mode point has n_count^2 eigenvalues, a reduced one n_count
        count = len(columns.get(cx, ()))
        dim = n_count**2 if count >= n_count**2 else n_count
        present[cx] = count // dim
        if count % dim:
            problems.append(f"g {g!r}: {count} points is not a whole number of spectra")
    kx = _kx_grid(kx_points)
    a1, v0 = lat_p["a1_angstrom"] * ANGSTROM, lat_p["v0_ev"] * EV
    cx_of = list(expected_cx)
    for idx in rng.choice(len(g_values), size=POLARITON_SAMPLES, replace=False):
        g, cx = float(g_values[idx]), cx_of[idx]
        vals = np.asarray(columns.get(cx, []))
        if present[cx] != kx_points:
            problems.append(f"g {g!r}: {present[cx]} of {kx_points} k points present")
            continue
        matrix_mode = vals.size == kx_points * n_count**2
        rules = [_polariton_sum_rules(sweep["flux_ratio"], g, k, n_max, a1, v0, matrix_mode)
                 for k in kx]
        trace = sum(r[0] for r in rules)
        frob = sum(r[1] for r in rules)
        big = float(np.max(np.abs(vals)))
        if abs(vals.sum() - trace) > 2.0 * vals.size * quantum:
            problems.append(f"g {g!r}: eigenvalue sum {vals.sum():.6g}, trace {trace:.6g}")
        if abs((vals**2).sum() - frob) > 2.0 * vals.size * (2.0 * big * quantum + quantum**2):
            problems.append(f"g {g!r}: sum of squares {(vals**2).sum():.6g}, "
                            f"Frobenius {frob:.6g}")
    return len(g_values) * kx_points - sum(present.values()), problems


CHECKS = {
    "harper-scaled-csv": _check_harper,
    "llb-hex-json-t2": _check_llb,
    "polariton-matrix-svg": _check_polariton,
}
