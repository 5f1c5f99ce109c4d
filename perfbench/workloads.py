"""Benchmark workloads: the CLI runs the benchmark times, and why each exists.

A workload is one CLI command at a fixed work size.  The seed only jitters
the physical inputs (flux window, coupling window, V0, a1) by a few percent,
so every seed asks for the same number of sweep points and the same basis
dimensions.  The seed also picks the points the output checks sample.
"""

import random
from dataclasses import dataclass

JITTER = 0.03

#: float inputs the seed may move; everything else is a work size or a choice
JITTERED = {"a1_angstrom", "v0_ev", "flux_min", "flux_max", "flux_ratio",
            "g_max"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    fmt: str
    threads: int
    nominal: dict  # section -> {key: value}, as written to the INI

    def params(self, seed):
        """The INI values for `seed`: each JITTERED input scaled by 1 +- JITTER."""
        rng = random.Random(f"{self.name}:{seed}")
        out = {}
        for section, values in self.nominal.items():
            out[section] = {
                key: value * (1.0 + rng.uniform(-JITTER, JITTER)) if key in JITTERED else value
                for key, value in values.items()
            }
        # every workload lattice (square, hexagonal) has a1 = a2
        out["lattice"]["a2_angstrom"] = out["lattice"]["a1_angstrom"]
        return out

    def points(self, params):
        """(axis, k) points one run of the command attempts."""
        return params["sweep"]["points"] * params["kgrid"]["kx_points"]


def ini_text(command, params, out_path, fmt):
    lines = ["[run]", f"command = {command}"]
    for section, values in params.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in values.items()]
    lines += ["[output]", f"path = {out_path}", f"format = {fmt}", ""]
    return "\n".join(lines)


def _lattice(kind):
    return {"kind": kind, "a1_angstrom": 2.0, "a2_angstrom": 2.0, "v0_ev": 3.0}


# Sizes are a quarter of a default-size run, so one benchmark run holds many
# CLI children and reports their median; the routes, basis dimensions, output
# formats and thread counts are those of the full-size runs.
WORKLOADS = {
    w.name: w
    for w in (
        # Per-call solver overhead, the row store and the CSV writer dominate.
        # No kernels work runs: the bypass case for assembly changes.
        Workload(
            name="harper-scaled-csv",
            why="3,200 Harper chains of dim 61 (tridiagonal) and 195,200 CSV rows: "
            "per-call solver overhead, row store and CSV writer; no assembly kernels",
            command="butterfly",
            fmt="csv",
            threads=1,
            nominal={
                "lattice": _lattice("square"),
                "sweep": {"flux_min": 0.01, "flux_max": 2.0, "points": 100,
                          "scaling": "harper-scaled"},
                "truncation": {"n_max": 30, "j_max": 0},
                "kgrid": {"kx_points": 32},
            },
        ),
        # Python assembly (fill_coupling loops, Fraction phases) is about a third
        # of the run, the rest a block-banded eigensolve; the sweep thread pool
        # runs at its largest size on a 2-core machine.
        Workload(
            name="llb-hex-json-t2",
            why="384 hexagonal Landau-level x Bloch matrices of dim 183 (6 Fourier "
            "stars): Python assembly plus eigensolves, JSON out, 2 sweep threads",
            command="butterfly",
            fmt="json",
            threads=2,
            nominal={
                "lattice": _lattice("hexagonal"),
                "sweep": {"flux_min": 0.2, "flux_max": 2.0, "points": 12,
                          "scaling": "raw-joules"},
                "truncation": {"n_max": 30, "j_max": 2},
                "kgrid": {"kx_points": 32},
            },
        ),
        # Dense solves take nearly all of the run: the bypass case for
        # tridiagonal or banded routing and for assembly vectorization.  g_min
        # stays exactly 0, so the first g point takes the reduced route.
        Workload(
            name="polariton-matrix-svg",
            why="72 dense complex solves of dim 441 and 8 reduced chains: the bypass "
            "case for banded routing and assembly changes; BLAS threads; SVG out",
            command="polariton-butterfly",
            fmt="svg-scatter",
            threads=1,
            nominal={
                "lattice": _lattice("square"),
                "sweep": {"flux_ratio": 1.0, "g_min": 0.0, "g_max": 2.0, "points": 10},
                "truncation": {"n_max": 10},
                "kgrid": {"kx_points": 8},
                "solver": {"mode": "auto"},
            },
        ),
    )
}
