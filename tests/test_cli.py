"""Config parsing, dispatch, export and determinism tests for the CLI."""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_bloch import cavity_gas, cli, config, numerics, output, parallel, qed_bloch
from cavity_bloch.config import COMMANDS, FORMATS, parse_config
from cavity_bloch.constants import EV
from cavity_bloch.errors import ConfigError, NumericalError
from cavity_bloch.landau import cyclotron_frequency
from cavity_bloch.lattice import (
    BRAVAIS_KINDS,
    FourierPotential,
    bravais_cosine_potential,
    field_for_flux_ratio,
)

GAS_CONFIG = """
[run]
command = gas

[cavity]
cavity_thz = 0.208
density_cm2 = 1.3e12
mass_ratio = 0.336

[output]
path = {path}
format = {fmt}
"""

BUTTERFLY_CONFIG = """
[run]
command = butterfly

[lattice]
kind = square
a1_angstrom = 2.0
a2_angstrom = 2.0
v0_ev = 3.0

[sweep]
flux_min = 0.01
flux_max = 2.0
points = {points}
scaling = harper-scaled

[truncation]
n_max = 10

[kgrid]
kx_points = 4

[output]
path = {path}
format = csv
"""

EFT_CONFIG = """
[run]
command = eft

[eft]
lz_mm = 1
density_cm2 = 1.3e12
n_electrons = 1
lambda0 = 1.2

[output]
path = {path}
format = csv
"""

OBLIQUE_BUTTERFLY_CONFIG = """
[run]
command = butterfly

[lattice]
kind = oblique
a1_angstrom = 2.0
a2_angstrom = 3.0
v0_ev = 3.0

[sweep]
flux_min = 0.5
flux_max = 1.0
points = 2

[truncation]
n_max = 2

[kgrid]
kx_points = 2

[output]
path = {path}
format = csv
"""

RAW_JOULES_CAP_CONFIG = """
[run]
command = butterfly

[lattice]
kind = hexagonal
a1_angstrom = 2.0
a2_angstrom = 2.0
v0_ev = 3.0

[sweep]
flux_min = 0.5
flux_max = 1.0
points = 2
scaling = raw-joules

[truncation]
n_max = 200
j_max = 60

[kgrid]
kx_points = 2

[output]
path = {path}
format = csv
"""

#: a raw-joules butterfly of four dim-183 Landau-level x Bloch solves
RAW_JOULES_183_CONFIG = """
[run]
command = butterfly

[lattice]
kind = hexagonal
a1_angstrom = 2.0
a2_angstrom = 2.0
v0_ev = 3.0

[sweep]
flux_min = 0.5
flux_max = 1.0
points = 2
scaling = raw-joules

[truncation]
n_max = 30
j_max = 2

[kgrid]
kx_points = 4

[output]
path = {path}
format = csv
"""

POLARITON_MATRIX_CONFIG = """
[run]
command = polariton-butterfly

[lattice]
kind = square
a1_angstrom = 2.0
a2_angstrom = 2.0
v0_ev = 3.0

[sweep]
flux_ratio = 1.0
g_min = 0.5
g_max = 1.0
points = 2

[truncation]
n_max = 5

[kgrid]
kx_points = 2

[solver]
mode = matrix

[output]
path = {path}
format = csv
"""

#: a `response` or `conductivity` run over a frequency grid of `points`
RESPONSE_CONFIG = """
[run]
command = {command}

[cavity]
cavity_thz = 0.208
density_cm2 = 1.3e12
mass_ratio = 0.336

[grid]
points = {points}

[output]
path = {path}
format = csv
"""

#: model sections of a small config for each command that writes no scatter plot
UNPLOTTABLE_BODIES = {
    "gas": "[cavity]\ncavity_thz = 0.208\ndensity_cm2 = 1.3e12\n",
    "eft": "[eft]\nlz_mm = 1\ndensity_cm2 = 1.3e12\nn_electrons = 1\nlambda0 = 1.2\n",
    "landau": "[landau]\nb_tesla = 2.0\ndensity_cm2 = 1.3e12\npoints = 50\n",
    "mtg-check": ("[lattice]\nkind = square\na1_angstrom = 2.0\na2_angstrom = 2.0\n"
                  "[mtg]\nflux_ratio = 0.5\np = 2\n"),
}

POLARITON_CONFIG = """
[run]
command = polariton

[cavity]
cavity_thz = 0.208
density_cm2 = 1.3e12
mass_ratio = 0.336

[sweep]
b_min_tesla = 0.1
b_max_tesla = 6.0
points = 20

[output]
path = {path}
format = svg-scatter
"""


def config_text(command, body, path, fmt):
    return f"[run]\ncommand = {command}\n{body}[output]\npath = {path}\nformat = {fmt}\n"


#: the checkout's src, which subprocesses started from tmp_path must import
SRC = Path(__file__).resolve().parents[1] / "src"


def env_with_src(env):
    """`env` with SRC in front of its PYTHONPATH."""
    rest = env.get("PYTHONPATH")
    return {**env, "PYTHONPATH": str(SRC) + (os.pathsep + rest if rest else "")}


#: the variables any one of which, when set, gives the BLAS thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def python_with_blas(args, cwd=None, **blas):
    """`python args` with, of the BLAS thread variables, only those in `blas`
    set.  Importing cli sets them in this process too, so the child's are
    always chosen here."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=env_with_src({**env, **blas}), timeout=600)


#: `python -c` program: the CLI with argv[2:], its sweeps and exports split
#: across argv[1] processes whatever the CPU and BLAS thread counts
CLI_WITH_SWEEP_PROCESSES = """
import sys
import cavity_bloch.cli as cli
import cavity_bloch.parallel as parallel
processes = int(sys.argv[1])
parallel._available_cpus = lambda: processes
parallel._blas_threads = lambda: 1
sys.exit(cli.main(sys.argv[2:]))
"""


MTG_CONFIG = """
[run]
command = mtg-check

[lattice]
kind = square
a1_angstrom = 2.0
a2_angstrom = 2.0

[mtg]
flux_ratio = 0.5
p = 2

[output]
path = {path}
format = json
"""


class TestParseConfig:
    def test_minimal_butterfly_valid(self):
        cfg = parse_config(BUTTERFLY_CONFIG.format(path="out.csv", points=400))
        assert cfg.command == "butterfly"
        assert cfg.parameters["a1_angstrom"] == pytest.approx(2e-10)
        assert cfg.parameters["v0_ev"] == pytest.approx(3.0 * 1.602176634e-19)
        assert cfg.parameters["flux_max"] == 2.0

    def test_missing_key_named(self):
        broken = BUTTERFLY_CONFIG.format(path="x", points=10).replace(
            "flux_min = 0.01", ""
        )
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("flux_min" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        broken = (
            BUTTERFLY_CONFIG.format(path="x", points=10)
            .replace("flux_min = 0.01", "flux_min = -3")
            .replace("n_max = 10", "n_max = zero")
            .replace("kind = square", "kind = pentagonal")
        )
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        text = "\n".join(err.value.violations)
        assert "flux_min" in text and "n_max" in text and "pentagonal" in text
        assert len(err.value.violations) >= 3

    def test_unknown_key_rejected(self):
        broken = BUTTERFLY_CONFIG.format(path="x", points=10) + "\nwhimsy = 7\n"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("whimsy" in v for v in err.value.violations)

    def test_eft_window_rejected(self):
        text = """
[run]
command = eft

[eft]
lz_mm = 1.44
density_cm2 = 1.3e12
n_electrons = 1.3e12
lambda0 = 2.0
"""
        cfg = parse_config(text.replace("lambda0 = 2.0", "lambda0 = 1.2"))
        assert cfg.parameters["lambda0"] == 1.2
        with pytest.raises(ConfigError) as err:
            parse_config(text)  # lambda0 = 2.0 beyond exp(1/(N alpha)) ~ 1.48
        assert any("stability window" in v for v in err.value.violations)

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\ncommand = teleport\n")


class TestRunRequest:
    """parse_config validates a run request in one pass: the CLI's --out,
    --format and --seed replace their INI keys first, and each rule on one
    key is declared in the command's schema."""

    def main(self, tmp_path, command, text, *flags):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        return cli.main([command, "--config", str(cfg), *flags])

    @pytest.mark.parametrize("ini_seed, flags, seed", [
        (None, [], 0), ("5", [], 5), ("5", ["--seed", "9"], 9), (None, ["--seed", "-2"], -2),
    ])
    def test_seed_reaches_the_envelope(self, tmp_path, ini_seed, flags, seed):
        out = tmp_path / "gas.json"
        text = GAS_CONFIG.format(path=out, fmt="json")
        if ini_seed is not None:
            text = text.replace("command = gas", f"command = gas\nseed = {ini_seed}")
        assert self.main(tmp_path, "gas", text, *flags) == cli.EXIT_OK
        assert json.loads(out.read_text())["seed"] == seed

    @pytest.mark.parametrize("path, fmt, seed, flag", [
        ("", "csv", "0", ["--out", "{out}"]),
        ("{out}", "svg-scatter", "0", ["--format", "csv"]),
        ("{out}", "csv", "x", ["--seed", "3"]),
    ], ids=["out", "format", "seed"])
    def test_flag_replaces_an_invalid_ini_value(self, tmp_path, capsys, path, fmt, seed, flag):
        out = tmp_path / "gas.csv"
        text = (GAS_CONFIG.format(path=path.format(out=out), fmt=fmt)
                .replace("command = gas", f"command = gas\nseed = {seed}"))
        with pytest.raises(ConfigError):
            parse_config(text)  # the INI value alone is refused
        flag = [arg.format(out=out) for arg in flag]
        assert self.main(tmp_path, "gas", text, *flag) == cli.EXIT_OK
        assert capsys.readouterr().err == f"wrote csv to {out}\n"
        assert out.read_text().startswith("quantity[name],value[mixed]\n")

    @pytest.mark.parametrize("text, old, new, violation", [
        (MTG_CONFIG, "kind = square", "kind = pentagonal",
         f"[lattice] kind = 'pentagonal' not one of {BRAVAIS_KINDS}"),
        (BUTTERFLY_CONFIG, "scaling = harper-scaled", "scaling = harper",
         "[sweep] scaling = 'harper' not one of ('raw-joules', 'harper-scaled')"),
        (POLARITON_MATRIX_CONFIG, "mode = matrix", "mode = dense",
         "[solver] mode = 'dense' not one of ('auto', 'matrix', 'reduced')"),
        (BUTTERFLY_CONFIG, "flux_min = 0.01", "flux_min = 2.0",
         "[sweep] flux_min must be below flux_max"),
        (BUTTERFLY_CONFIG, "scaling = harper-scaled",
         "scaling = raw-joules\n[plot]\nemin_ev = 1\nemax_ev = -1",
         "[plot] emin_ev must be below emax_ev"),
        (POLARITON_MATRIX_CONFIG, "g_min = 0.5", "g_min = 1.5",
         "[sweep] g_min must be below g_max"),
        (POLARITON_CONFIG, "b_min_tesla = 0.1", "b_min_tesla = 6.0",
         "[sweep] b_min_tesla must be below b_max_tesla"),
    ], ids=["kind", "scaling", "mode", "flux", "energy", "coupling", "field"])
    def test_single_key_rule_message(self, text, old, new, violation):
        text = text.replace("{points}", "3").format(path="out.csv")
        assert old in text
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace(old, new))
        assert err.value.violations == [violation]

    def test_rules_across_keys_come_before_ordered_pairs(self):
        text = (BUTTERFLY_CONFIG.format(path="out.csv", points=3)
                .replace("kind = square", "kind = hexagonal")
                .replace("flux_min = 0.01", "flux_min = 3.0")
                .replace("[output]", "[plot]\nemin_ev = 1\nemax_ev = -1\n\n[output]"))
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == [
            "[sweep] harper-scaled output is defined for the square lattice",
            "[plot] emin_ev/emax_ev apply to eV output only, not to scaling = harper-scaled",
            "[sweep] flux_min must be below flux_max",
            "[plot] emin_ev must be below emax_ev",
        ]


class TestRun:
    def test_gas_scalars(self):
        cfg = parse_config(GAS_CONFIG.format(path="x.csv", fmt="csv"))
        env = cli.run(cfg)
        values = env.payload.values
        assert values["omega_p[rad/s]"] == pytest.approx(0.292e12, rel=5e-3)
        assert values["phase[class]"] == "stable"

    def test_mtg_dispatch(self):
        cfg = parse_config(MTG_CONFIG.format(path="x.json"))
        env = cli.run(cfg)
        assert env.payload.values["verdict[class]"] == "abelian-group"

    def test_polariton_two_branch_table(self):
        text = """
[run]
command = polariton

[cavity]
cavity_thz = 0.208
density_cm2 = 1.3e12
mass_ratio = 0.336

[sweep]
b_min_tesla = 0.1
b_max_tesla = 6.0
points = 20
"""
        env = cli.run(parse_config(text))
        rows = env.payload.rows
        assert len(rows) == 20
        # columns: B, cyclotron, upper, lower; the upper branch dominates
        for row in rows:
            assert row[2] > row[3]
        # the tabulated upper branch is the polariton ladder spacing
        from cavity_bloch.qed_bloch import PolaritonParams, landau_polariton_energy
        from cavity_bloch.cavity_gas import CavitySetup
        from cavity_bloch.constants import HBAR
        from cavity_bloch.landau import cyclotron_frequency

        setup = CavitySetup(omega_cav=2 * math.pi * 0.208e12, n2d=1.3e16, mass_ratio=0.336)
        b_field, upper = rows[7][0], rows[7][2] * 1e12
        params = PolaritonParams(setup.omega_p, cyclotron_frequency(b_field, 0.336))
        ladder = (
            landau_polariton_energy(params, 0.0, 0.0, 1, 0.336)
            - landau_polariton_energy(params, 0.0, 0.0, 0, 0.336)
        ) / HBAR
        assert upper == pytest.approx(ladder, rel=1e-10)

    def test_identical_configs_identical_payloads(self, tmp_path):
        text = BUTTERFLY_CONFIG.format(path="x", points=5)
        env1 = cli.run(parse_config(text))
        env2 = cli.run(parse_config(text))
        rows1 = [(axis, k, eigs.tolist()) for axis, k, eigs in env1.payload.blocks()]
        rows2 = [(axis, k, eigs.tolist()) for axis, k, eigs in env2.payload.blocks()]
        assert rows1 == rows2

    def test_csv_json_value_equivalent(self, tmp_path):
        # the response and conductivity rows hold numpy scalars, whose repr
        # is no CSV number
        texts = [BUTTERFLY_CONFIG.format(path="x", points=3)] + [
            RESPONSE_CONFIG.format(command=command, path="x", points=5)
            for command in ("response", "conductivity")
        ]
        for text in texts:
            env = cli.run(parse_config(text))
            csv_path = tmp_path / "eq.csv"
            json_path = tmp_path / "eq.json"
            output.write_csv(env, csv_path)
            output.write_json(env, json_path)
            loaded = json.loads(json_path.read_text())
            json_rows = loaded["payload"]["rows"]
            csv_lines = csv_path.read_text().strip().splitlines()
            assert csv_lines[0].split(",") == loaded["payload"]["columns"]
            assert len(csv_lines) - 1 == len(json_rows)
            for line, row in zip(csv_lines[1:], json_rows):
                for cell, value in zip(line.split(","), row):
                    if isinstance(value, float):
                        assert float(cell) == value
                    else:
                        assert cell == str(value)


class TestExport:
    def spectrum_envelope(self, points=2, eigs=3):
        rows = [
            [0.1 * (a + 1), k, e, float(a + k + e)]
            for a in range(points)
            for k in range(1)
            for e in range(eigs)
        ]
        payload = output.TablePayload(
            columns=["flux_ratio[1]", "k_index[1]", "eig_index[1]", "energy[eV]"], rows=rows
        )
        return output.ResultEnvelope(config_text="cfg", command="butterfly", payload=payload)

    def test_csv_shape(self, tmp_path):
        env = self.spectrum_envelope()
        path = tmp_path / "s.csv"
        output.write_csv(env, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3
        assert lines[0] == "flux_ratio[1],k_index[1],eig_index[1],energy[eV]"

    def test_json_roundtrip(self, tmp_path):
        env = self.spectrum_envelope()
        path = tmp_path / "s.json"
        output.write_json(env, path)
        loaded = json.loads(path.read_text())
        assert loaded["config_echo"] == "cfg"
        assert loaded["payload"]["rows"] == env.payload.to_jsonable()["rows"]
        assert loaded["schema_version"] == output.SCHEMA_VERSION

    def test_svg_point_count_and_bounds(self, tmp_path):
        env = self.spectrum_envelope(points=4, eigs=5)
        path = tmp_path / "s.svg"
        output.write_svg_scatter(env, path)
        text = path.read_text()
        assert text.count("<circle") == 20
        assert f'width="{output.SVG_WIDTH}"' in text
        assert f'height="{output.SVG_HEIGHT}"' in text
        # all plotted coordinates stay on the canvas
        for cx, cy in re.findall(r'cx="([0-9.]+)" cy="([0-9.]+)"', text):
            assert 0.0 <= float(cx) <= output.SVG_WIDTH
            assert 0.0 <= float(cy) <= output.SVG_HEIGHT

    def test_every_column_declares_units(self, tmp_path):
        # unit audit: every exporter column name carries a bracketed unit
        env = self.spectrum_envelope()
        path = tmp_path / "u.csv"
        output.write_csv(env, path)
        header = path.read_text().splitlines()[0]
        for column in header.split(","):
            assert re.search(r"\[.+\]$", column), f"column {column!r} lacks a unit"


class TestCliProcess:
    def run_cli(self, args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "cavity_bloch.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env_with_src(os.environ),
            timeout=600,
        )

    def test_exit_codes(self, tmp_path):
        good = tmp_path / "gas.ini"
        good.write_text(GAS_CONFIG.format(path=tmp_path / "gas.csv", fmt="csv"))
        result = self.run_cli(["gas", "--config", str(good)], tmp_path)
        assert result.returncode == 0, result.stderr

        bad = tmp_path / "bad.ini"
        bad.write_text(GAS_CONFIG.format(path="x", fmt="csv").replace("0.208", "-1"))
        result = self.run_cli(["gas", "--config", str(bad)], tmp_path)
        assert result.returncode == cli.EXIT_CONFIG
        assert "cavity_thz" in result.stderr

        result = self.run_cli(["gas", "--config", str(tmp_path / "missing.ini")], tmp_path)
        assert result.returncode == cli.EXIT_IO

    def test_unit_audit_of_real_outputs(self, tmp_path):
        cfg = tmp_path / "gas.ini"
        out = tmp_path / "gas.csv"
        cfg.write_text(GAS_CONFIG.format(path=out, fmt="csv"))
        result = self.run_cli(["gas", "--config", str(cfg)], tmp_path)
        assert result.returncode == 0, result.stderr
        header = out.read_text().splitlines()[0]
        for column in header.split(","):
            assert "[" in column and column.rstrip().endswith("]")

    @pytest.mark.parametrize("text", [
        RAW_JOULES_183_CONFIG,
        RAW_JOULES_183_CONFIG.replace("kind = hexagonal", "kind = oblique")
        .replace("a2_angstrom = 2.0", "a2_angstrom = 2.3\ntheta_deg = 75"),
        POLARITON_MATRIX_CONFIG,
    ], ids=["hexagonal-dim-183-real", "oblique-dim-183-complex", "polariton-matrix-dim-121"])
    def test_csv_bytes_independent_of_blas_threads(self, tmp_path, text):
        # ... and of the number of processes the sweep is split across
        command = re.search(r"command = (\S+)", text).group(1)
        outputs = []
        for threads in ("1", "2"):
            for processes in (1, 2):
                out = tmp_path / f"blas{threads}-procs{processes}.csv"
                cfg = tmp_path / f"blas{threads}-procs{processes}.ini"
                cfg.write_text(text.format(path=out))
                result = python_with_blas(
                    ["-c", CLI_WITH_SWEEP_PROCESSES, str(processes), command, "--config",
                     str(cfg)], tmp_path, OPENBLAS_NUM_THREADS=threads)
                assert result.returncode == 0, result.stderr
                outputs.append(out.read_bytes())
        assert outputs == [outputs[0]] * 4

    def test_default_blas_pin_fixes_rounding_of_larger_matrices(self, tmp_path):
        # from about dim 170 (complex) or 225 (real) up, threaded LAPACK sums in
        # another order, so the last digits follow the BLAS thread count; the
        # default pin makes them independent of the machine's core count
        cfg = tmp_path / "run.ini"
        out = tmp_path / "out.csv"
        cfg.write_text(POLARITON_MATRIX_CONFIG.format(path=out)
                       .replace("n_max = 5", "n_max = 10"))  # dim 441
        outputs = {}
        for threads in (None, "1", "2"):
            blas = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
            result = python_with_blas(
                ["-m", "cavity_bloch.cli", "polariton-butterfly", "--config", str(cfg)], tmp_path,
                **blas)
            assert result.returncode == 0, result.stderr
            outputs[threads] = out.read_bytes()
        assert outputs[None] == outputs["1"]
        one, two = (np.loadtxt(io.BytesIO(outputs[t]), delimiter=",", skiprows=1)
                    for t in ("1", "2"))
        assert np.array_equal(one[:, :3], two[:, :3])
        width = one[:, 3].max() - one[:, 3].min()
        assert np.abs(one[:, 3] - two[:, 3]).max() <= 1e-12 * width

    def test_overflowing_sweep_reports_failures_without_warnings(self, tmp_path):
        # at flux ~1e-150 the Laguerre table overflows: each point is reported
        # as a failure, and numpy's RuntimeWarning stays off stderr
        cfg = tmp_path / "run.ini"
        cfg.write_text(BUTTERFLY_CONFIG.format(path=tmp_path / "out.csv", points=2)
                       .replace("flux_min = 0.01", "flux_min = 1e-150")
                       .replace("flux_max = 2.0", "flux_max = 2e-150")
                       .replace("scaling = harper-scaled", "scaling = raw-joules")
                       .replace("n_max = 10", "n_max = 2\nj_max = 3")
                       .replace("kx_points = 4", "kx_points = 2"))
        result = self.run_cli(["butterfly", "--config", str(cfg)], tmp_path)
        assert result.returncode == cli.EXIT_NUMERICAL
        assert "numerical failure: 4 of 4 points failed" in result.stderr
        assert result.stderr.count(": non-finite matrix entries (fingerprint") == 4
        assert "Warning" not in result.stderr

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "gas.ini"
        cfg.write_text(GAS_CONFIG.format(path="x.csv", fmt="csv"))
        result = self.run_cli(["eft", "--config", str(cfg)], tmp_path)
        assert result.returncode == cli.EXIT_CONFIG
        assert result.stderr == ("config error: [run] command = 'gas' does not match the CLI "
                                 "command 'eft'\n")
        assert not (tmp_path / "x.csv").exists()

    def test_threads_env_default(self, tmp_path, monkeypatch):
        # CAVITY_BLOCH_THREADS is no setting: any value, valid or not, is ignored
        out = tmp_path / "g.csv"
        cfg = tmp_path / "gas.ini"
        cfg.write_text(GAS_CONFIG.format(path=out, fmt="csv"))
        for value in ("3", "0", "many"):
            out.unlink(missing_ok=True)
            result = subprocess.run(
                [sys.executable, "-m", "cavity_bloch.cli", "gas", "--config", str(cfg)],
                capture_output=True,
                text=True,
                env=env_with_src({"PATH": "/usr/bin:/bin", "CAVITY_BLOCH_THREADS": value}),
                timeout=600,
            )
            assert result.returncode == 0, result.stderr
            assert result.stderr == f"wrote csv to {out}\n" and out.exists()

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test dependency: importing it would cost every CLI run
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, cavity_bloch.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env_with_src(os.environ),
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_cli_runs_load_no_scipy(self, tmp_path):
        # a lazy import inside a builder or solver escapes the import check
        # above: importing scipy.linalg costs about as much as a whole
        # benchmark-size polariton-butterfly run
        runs = [("butterfly", BUTTERFLY_CONFIG.format(path="{path}", points=2)),
                ("butterfly", TestC2Sweeps.raw_joules("hexagonal", "a2_angstrom = 2.0")),
                ("polariton-butterfly", POLARITON_MATRIX_CONFIG)]
        argv = []
        for idx, (command, text) in enumerate(runs):
            cfg = tmp_path / f"run{idx}.ini"
            cfg.write_text(text.format(path=tmp_path / f"out{idx}.csv"))
            argv.append(f"{command}|--config|{cfg}")
        code = ("import json, sys, cavity_bloch.cli as cli\n"
                "codes = [cli.main(args.split('|')) for args in sys.argv[1:]]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')]))")
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env=env_with_src(os.environ), timeout=600)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0, 0], []]

    def test_butterflies_load_only_the_modules_they_run(self, tmp_path):
        # cavity_gas, eft and response serve the other commands; importing
        # them would cost every butterfly's start
        runs = [("butterfly", BUTTERFLY_CONFIG.format(path="{path}", points=2)),
                ("polariton-butterfly", POLARITON_MATRIX_CONFIG)]
        argv = []
        for idx, (command, text) in enumerate(runs):
            cfg = tmp_path / f"run{idx}.ini"
            cfg.write_text(text.format(path=tmp_path / f"out{idx}.csv"))
            argv.append(f"{command}|--config|{cfg}")
        code = ("import json, sys, cavity_bloch.cli as cli\n"
                "codes = [cli.main(args.split('|')) for args in sys.argv[1:]]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules if m in ("
                "'cavity_bloch.cavity_gas', 'cavity_bloch.eft', 'cavity_bloch.response'))]))")
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env=env_with_src(os.environ), timeout=600)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0], []]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_to_stdout_is_the_output_alone(self, tmp_path, fmt):
        # the status line goes to stderr, not into the file written to stdout
        cfg = tmp_path / "run.ini"
        cfg.write_text(BUTTERFLY_CONFIG.format(path="unused.csv", points=2))
        result = self.run_cli(["butterfly", "--config", str(cfg), "--out", "/dev/stdout",
                               "--format", fmt], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stderr == f"wrote {fmt} to /dev/stdout\n"
        rows = 2 * 4 * 21  # flux values x k points x eigenvalues
        if fmt == "json":
            assert len(json.loads(result.stdout)["payload"]["rows"]) == rows
        else:
            lines = result.stdout.splitlines()
            assert len(lines) == 1 + rows
            flux, k_idx, e_idx, value = lines[-1].split(",")
            assert (float(flux), int(k_idx), int(e_idx)) == (2.0, 3, 20)
            assert math.isfinite(float(value))
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("redirect", [">>", ">"])
    def test_output_to_redirected_stdout_writes_the_stream(self, tmp_path, redirect):
        # `--out /dev/stdout >> log` appends through the descriptor the shell
        # opened, and `>` writes at its offset: the log is not replaced, so
        # what the shell wrote before and writes after the run stays in it
        cfg = tmp_path / "run.ini"
        cfg.write_text(GAS_CONFIG.format(path="unused.csv", fmt="csv"))
        reference = tmp_path / "reference.csv"
        assert cli.main(["gas", "--config", str(cfg), "--out", str(reference)]) == cli.EXIT_OK
        log = tmp_path / "log"
        log.write_text("EXISTING\n")
        script = ('{ echo before; "$0" -m cavity_bloch.cli gas --config run.ini '
                  f'--out /dev/stdout; echo "exit $?"; }} {redirect} log')
        result = subprocess.run(["sh", "-c", script, sys.executable], capture_output=True,
                                text=True, cwd=tmp_path, env=env_with_src(os.environ),
                                timeout=600)
        assert result.returncode == 0 and result.stderr == "wrote csv to /dev/stdout\n"
        kept = "EXISTING\n" if redirect == ">>" else ""
        assert log.read_text() == f"{kept}before\n{reference.read_text()}exit 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "reference.csv", "run.ini"]

    def test_cli_import_pins_one_blas_thread_unless_set(self):
        def child(code, **blas):
            result = python_with_blas(["-c", code], **blas)
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        # the package root loads no numpy, so `python -m cavity_bloch.cli`
        # reaches the pin before BLAS is loaded
        assert child("import json, sys, cavity_bloch; print(json.dumps('numpy' in sys.modules))") \
            is False
        probe = ("import json, os, cavity_bloch.cli; from cavity_bloch import parallel; "
                 "print(json.dumps([os.environ.get(name) for name in ('OPENBLAS_NUM_THREADS', "
                 "'OMP_NUM_THREADS', 'MKL_NUM_THREADS')] + [parallel._blas_threads(), len("
                 "os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None]))")
        openblas, omp, mkl, blas, tasks = child(probe)
        assert openblas == omp == mkl == "1" and blas == 1
        assert tasks in (1, None)  # no BLAS worker thread was started
        openblas, omp, mkl, blas, _ = child(probe, OPENBLAS_NUM_THREADS="2")
        assert (openblas, omp, mkl, blas) == ("2", None, None, 2)
        # MKL_NUM_THREADS alone is not read by OpenBLAS: the pin still holds
        # for OpenBLAS and OpenMP, and the caller's MKL value is kept
        openblas, omp, mkl, blas, tasks = child(probe, MKL_NUM_THREADS="3")
        assert (openblas, omp, mkl, blas) == ("1", "1", "3", 1)
        assert tasks in (1, None)


class TestMainExitCodes:
    def run_main(self, tmp_path, command, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text.format(path=tmp_path / "out.csv"))
        return cli.main([command, "--config", str(cfg)])

    def test_eft_single_electron_thin_gap(self, tmp_path):
        # exp(1/(N alpha)) overflows float64 here: the window has no ceiling
        assert self.run_main(tmp_path, "eft", EFT_CONFIG) == cli.EXIT_OK

    def test_model_domain_error_is_config_error(self, tmp_path, capsys):
        # an oblique lattice needs theta != 90 deg, the theta_deg default
        code = self.run_main(tmp_path, "butterfly", OBLIQUE_BUTTERFLY_CONFIG)
        assert code == cli.EXIT_CONFIG
        assert "config error: oblique lattice requires" in capsys.readouterr().err

    def test_underflowing_cell_area_is_config_error(self, tmp_path, capsys):
        body = ("[lattice]\nkind = square\na1_angstrom = 1e-300\na2_angstrom = 1e-300\n"
                "[mtg]\np = 2\nflux_ratio = 0.5\n")
        code = self.run_main(tmp_path, "mtg-check", config_text("mtg-check", body, "{path}", "csv"))
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: degenerate lattice: the cell area a1 a2 sin(theta) underflows "
            "float64 (a1 = 1e-310 m, a2 = 1e-310 m)\n")
        assert not (tmp_path / "out.csv").exists()

    def test_sweep_failures_reported(self, tmp_path, capsys, monkeypatch):
        harper = qed_bloch.harper_matrix
        fluxes = [0.01 + i * (2.0 - 0.01) / 4 for i in range(5)]

        def failing_at_one_flux(flux, kx_a, n_max):
            if flux == fluxes[2]:
                raise NumericalError("synthetic failure")
            return harper(flux, kx_a, n_max)

        monkeypatch.setattr(qed_bloch, "harper_matrix", failing_at_one_flux)
        text = BUTTERFLY_CONFIG.format(path="{path}", points=5)
        assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_NUMERICAL
        rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        written = {(float(flux), int(k)) for flux, k, _, _ in rows}
        assert written == {(flux, k) for flux in fluxes if flux != fluxes[2] for k in range(4)}
        assert len(rows) == 4 * 4 * 21
        err = capsys.readouterr().err
        assert "numerical failure: 4 of 20 points failed" in err
        assert err.count("synthetic failure") == 4

    def test_sweep_process_ending_early_is_numerical_failure(self, tmp_path, capsys,
                                                              monkeypatch):
        # the forked process solving axis[1] is killed: no partial output
        harper, parent = qed_bloch.harper_matrix, os.getpid()

        def killed_in_child(flux, kx_a, n_max):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return harper(flux, kx_a, n_max)

        monkeypatch.setattr(qed_bloch, "harper_matrix", killed_in_child)
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 2)
        text = BUTTERFLY_CONFIG.format(path="{path}", points=2)
        assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: the sweep process of axis[1::2] ended without delivering "
            "its rows (killed by signal 9)\n")
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_llb_matrices_fail_as_such(self, tmp_path, capsys):
        # at flux ~1e-150 the Laguerre table overflows into NaN matrix entries
        text = (BUTTERFLY_CONFIG.format(path="{path}", points=2)
                .replace("flux_min = 0.01", "flux_min = 1e-150")
                .replace("flux_max = 2.0", "flux_max = 2e-150")
                .replace("scaling = harper-scaled", "scaling = raw-joules")
                .replace("n_max = 10", "n_max = 2\nj_max = 3"))
        assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: 8 of 8 points failed" in err
        assert err.count(": non-finite matrix entries (fingerprint") == cli.FAILURES_SHOWN

    def test_raw_joules_basis_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # (2 n_max + 1)(j_max + 1) = 24461 basis states exceed the 20000 cap,
        # and so does the 2 n_max + 1 = 20001 chain of a harper-scaled
        # butterfly and of a reduced polariton butterfly; no sweep starts
        def unreachable(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(qed_bloch, "sweep", unreachable)
        cases = [
            ("butterfly", RAW_JOULES_CAP_CONFIG, 24461),
            ("butterfly", BUTTERFLY_CONFIG.format(path="{path}", points=2)
             .replace("n_max = 10", "n_max = 10000"), 20001),
            ("polariton-butterfly", POLARITON_MATRIX_CONFIG.replace("n_max = 5", "n_max = 10000")
             .replace("mode = matrix", "mode = reduced"), 20001),
        ]
        for command, text, dim in cases:
            code = self.run_main(tmp_path, command, text)
            assert code == cli.EXIT_CONFIG
            assert (f"config error: basis dimension {dim} exceeds cap"
                    in capsys.readouterr().err)
            assert not (tmp_path / "out.csv").exists()

    def test_polariton_matrix_basis_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # (2 n_max + 1)^2 = 121 states against a cap of 100
        monkeypatch.setattr(qed_bloch, "BasisTruncation",
                            functools.partial(qed_bloch.BasisTruncation, dimension_cap=100))
        code = self.run_main(tmp_path, "polariton-butterfly", POLARITON_MATRIX_CONFIG)
        assert code == cli.EXIT_CONFIG
        assert "config error: basis dimension 121 exceeds cap 100" in capsys.readouterr().err

    def test_oversized_grid_is_numerical_failure(self, tmp_path, capsys):
        # 1e15 float64 grid points are 8 PB, more than a 47-bit address space
        # holds: numpy refuses them before touching memory
        text = RESPONSE_CONFIG.format(command="response", path="{path}", points=10**15)
        assert self.run_main(tmp_path, "response", text) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_memory_error_while_exporting_is_output_failure(self, tmp_path, capsys,
                                                           monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("synthetic")

        monkeypatch.setattr(cli, "export", out_of_memory)
        text = GAS_CONFIG.format(path="{path}", fmt="csv")
        assert self.run_main(tmp_path, "gas", text) == cli.EXIT_IO
        assert capsys.readouterr().err == "output failure: synthetic\n"

    def test_failure_while_writing_keeps_the_earlier_output(self, tmp_path, capsys,
                                                             monkeypatch):
        # the writer runs out of memory after its first block: the earlier
        # file stays whole, and no partial file is left behind
        out = tmp_path / "out.csv"
        out.write_text("earlier run\n")
        blocks = output.SpectrumPayload.blocks

        def failing(self, *args, **kwargs):
            for count, block in enumerate(blocks(self, *args, **kwargs)):
                if count:
                    raise MemoryError("synthetic")
                yield block

        monkeypatch.setattr(output.SpectrumPayload, "blocks", failing)
        text = BUTTERFLY_CONFIG.format(path="{path}", points=2)
        assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_IO
        assert capsys.readouterr().err == "output failure: synthetic\n"
        assert out.read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.ini"]

    def test_all_failed_sweep_as_svg_is_numerical_failure(self, tmp_path, capsys):
        # under mode = auto each matrix-mode point at n_max = 71 (20449 states) fails
        text = (POLARITON_MATRIX_CONFIG.replace("n_max = 5", "n_max = 71")
                .replace("mode = matrix", "mode = auto")
                .replace("format = csv", "format = svg-scatter"))
        assert self.run_main(tmp_path, "polariton-butterfly", text) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: 4 of 4 points failed" in err
        assert "output failure" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_table_without_a_finite_point_as_svg_is_output_failure(self, tmp_path, capsys):
        # at cavity_thz = 1e-300 gamma is 1 and every mass enhancement is inf
        text = config_text("conductivity", _cavity(cavity_thz="1e-300", grid=_GRID),
                           "{path}", "svg-scatter")
        assert self.run_main(tmp_path, "conductivity", text) == cli.EXIT_IO
        assert capsys.readouterr().err == "output failure: nothing to plot\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_flag_below_one_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "gas.ini"
        cfg.write_text(GAS_CONFIG.format(path=tmp_path / "gas.csv", fmt="csv"))
        assert cli.main(["gas", "--config", str(cfg), "--threads", value]) == cli.EXIT_CONFIG
        assert "config error: --threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "gas.csv").exists()

    def test_threads_config_key_is_unknown(self, tmp_path, capsys):
        text = GAS_CONFIG.replace("{fmt}", "csv").replace("command = gas",
                                                          "command = gas\nthreads = 2")
        assert self.run_main(tmp_path, "gas", text) == cli.EXIT_CONFIG
        assert ("config error: [run] unknown key 'threads' for command 'gas'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["points = 11", "span = 2.0", "eta_fraction = 0.1"])
    def test_eft_grid_keys_unknown(self, tmp_path, capsys, key):
        text = EFT_CONFIG.replace("[output]", f"[grid]\n{key}\n\n[output]")
        assert self.run_main(tmp_path, "eft", text) == cli.EXIT_CONFIG
        name = key.split(" = ")[0]
        err = capsys.readouterr().err
        assert f"config error: [grid] unknown key {name!r} for command 'eft'" in err

    @pytest.mark.parametrize("value", ["inf", "1e400", "-inf"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, value):
        # an infinite cavity frequency used to raise ZeroDivisionError
        text = GAS_CONFIG.replace("{fmt}", "csv").replace("0.208", value)
        assert self.run_main(tmp_path, "gas", text) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: [cavity] cavity_thz = {value!r} must be finite" in err

    @pytest.mark.parametrize("kind, degrees", [
        ("hexagonal", 75), ("square", 75), ("centered-rectangular", 90),
    ])
    def test_theta_contradicting_class_is_config_error(self, tmp_path, capsys, kind, degrees):
        text = (OBLIQUE_BUTTERFLY_CONFIG
                .replace("kind = oblique", f"kind = {kind}\ntheta_deg = {degrees}")
                .replace("a2_angstrom = 3.0", "a2_angstrom = 2.0"))
        assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_CONFIG
        assert f"config error: {kind} lattice requires" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind, degrees", [("hexagonal", 60), ("square", 90)])
    def test_theta_default_is_class_angle(self, tmp_path, kind, degrees):
        base = (OBLIQUE_BUTTERFLY_CONFIG.replace("kind = oblique", f"kind = {kind}")
                .replace("a2_angstrom = 3.0", "a2_angstrom = 2.0"))
        explicit = base.replace(f"kind = {kind}", f"kind = {kind}\ntheta_deg = {degrees}")
        outputs = []
        for text in (base, explicit):
            assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_OK
            outputs.append((tmp_path / "out.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_mtg_contradicting_class_is_config_error(self, tmp_path, capsys):
        text = MTG_CONFIG.replace("a2_angstrom = 2.0", "a2_angstrom = 3.0")
        assert self.run_main(tmp_path, "mtg-check", text) == cli.EXIT_CONFIG
        assert "config error: square lattice requires" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_polariton_butterfly_off_square_reports_every_violation(self, tmp_path, capsys):
        text = (POLARITON_MATRIX_CONFIG.replace("kind = square", "kind = hexagonal")
                .replace("g_min = 0.5", "g_min = 1.0"))
        lattice = "[lattice] the polaritonic Harper sweep is defined on the square lattice"
        window = "[sweep] g_min must be below g_max"
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(path="out.csv"))
        assert err.value.violations == [lattice, window]
        assert self.run_main(tmp_path, "polariton-butterfly", text) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {lattice}\nconfig error: {window}\n"

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        text = GAS_CONFIG.format(path=tmp_path / "gas.csv", fmt="csv")
        cfg.write_bytes(b"# caf\xff\n" + text.encode())
        assert cli.main(["gas", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert f"config error: {cfg} is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "gas.csv").exists()

    def test_percent_in_value_is_read_verbatim(self, tmp_path, capsys):
        text = GAS_CONFIG.replace("{fmt}", "csv").replace("0.208", "1.0%")
        assert self.run_main(tmp_path, "gas", text) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: [cavity] cavity_thz = '1.0%' is not a valid value" in err

    def test_percent_in_output_path_names_the_file(self, tmp_path):
        out = tmp_path / "o%(x)s.csv"
        cfg = tmp_path / "run.ini"
        cfg.write_text(GAS_CONFIG.format(path=out, fmt="csv"))
        assert cli.main(["gas", "--config", str(cfg)]) == cli.EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("path, args, violation", [
        ("", [], "[output] path must not be empty"),
        ("gas.csv", ["--out", ""], "--out must not be empty"),
    ], ids=["config-path", "out-option"])
    def test_empty_output_path_is_config_error(self, tmp_path, monkeypatch, capsys, path,
                                               args, violation):
        # an empty path resolves to the working directory itself, and its
        # partial file would land beside it
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        (tmp_path / "run.ini").write_text(GAS_CONFIG.format(path=path, fmt="csv"))
        assert cli.main(["gas", "--config", str(tmp_path / "run.ini"), *args]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {violation}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "work"]
        assert not any(work.iterdir())

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_inverted_plot_window_is_config_error(self, tmp_path, capsys, fmt):
        text = (BUTTERFLY_CONFIG.format(path="{path}", points=3)
                .replace("scaling = harper-scaled", "scaling = raw-joules")
                .replace("format = csv", f"format = {fmt}")
                .replace("[output]", "[plot]\nemin_ev = 5\nemax_ev = 1\n\n[output]"))
        assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: [plot] emin_ev must be below emax_ev\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("window", ["emin_ev = -1\nemax_ev = 1", "emax_ev = 1"])
    def test_plot_window_on_harper_scaled_is_config_error(self, tmp_path, capsys, fmt, window):
        # harper-scaled energies are in units of t(flux), which varies along the sweep
        text = (BUTTERFLY_CONFIG.format(path="{path}", points=3)
                .replace("format = csv", f"format = {fmt}")
                .replace("[output]", f"[plot]\n{window}\n\n[output]"))
        assert self.run_main(tmp_path, "butterfly", text) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: [plot] emin_ev/emax_ev apply to eV "
                                           "output only, not to scaling = harper-scaled\n")
        assert not (tmp_path / "out.csv").exists()


class TestSolverRoute:
    @pytest.mark.parametrize("kind, lengths, dtype", [
        ("square", "a2_angstrom = 2.0", np.float64),
        ("hexagonal", "a2_angstrom = 2.0", np.float64),
        ("oblique", "a2_angstrom = 3.0\ntheta_deg = 70", np.complex128),
    ])
    def test_raw_joules_stacks_take_the_structure_route(self, tmp_path, monkeypatch, kind,
                                                        lengths, dtype):
        # lattices with an x -> -x mirror reach the eigensolver as real matrices
        dtypes = []
        solve = numerics.hermitian_eigvals

        def recording(m):
            dtypes.append(np.asarray(m).dtype)
            return solve(m)

        for module in (numerics, qed_bloch):  # qed_bloch binds its own name
            monkeypatch.setattr(module, "hermitian_eigvals", recording)
        text = (OBLIQUE_BUTTERFLY_CONFIG.replace("kind = oblique", f"kind = {kind}")
                .replace("a2_angstrom = 3.0", lengths)
                .replace("\npoints = 2", "\npoints = 2\nscaling = raw-joules"))
        cfg = tmp_path / "run.ini"
        cfg.write_text(text.format(path=tmp_path / "out.csv"))
        assert cli.main(["butterfly", "--config", str(cfg)]) == cli.EXIT_OK
        assert dtypes and set(dtypes) == {np.dtype(dtype)}


class TestC2Sweeps:
    """Sweeps with C2 symmetry build and solve one point of each +-k_x pair;
    the other point's rows repeat its partner's values."""

    def run_counting(self, tmp_path, call_log, command, text, builder, owner=qed_bloch):
        """Exit code, the calls of owner.`builder` in every sweep process,
        and the CSV values per (axis value, k index)."""
        call_log.record(owner, builder)
        cfg = tmp_path / "run.ini"
        cfg.write_text(text.format(path=tmp_path / "out.csv"))
        code = cli.main([command, "--config", str(cfg)])
        calls = call_log.entries()
        values = {}
        for line in (tmp_path / "out.csv").read_text().splitlines()[1:]:
            axis, k_idx, _, value = line.split(",")
            values.setdefault((axis, int(k_idx)), []).append(value)
        return code, calls, values

    @staticmethod
    def raw_joules(kind, lengths):
        return (OBLIQUE_BUTTERFLY_CONFIG.replace("kind = oblique", f"kind = {kind}")
                .replace("a2_angstrom = 3.0", lengths)
                .replace("\npoints = 2", "\npoints = 2\nscaling = raw-joules")
                .replace("kx_points = 2", "kx_points = 4"))

    @pytest.mark.parametrize("text, owner, builder", [
        (BUTTERFLY_CONFIG.format(path="{path}", points=2), qed_bloch, "harper_matrix"),
        (raw_joules("square", "a2_angstrom = 2.0"), qed_bloch.CouplingTerms, "matrix"),
        (raw_joules("oblique", "a2_angstrom = 3.0\ntheta_deg = 70"), qed_bloch.CouplingTerms,
         "matrix"),
    ], ids=["harper-scaled", "raw-joules-square", "raw-joules-oblique"])
    def test_butterfly_solves_one_point_per_pair(self, tmp_path, call_log, text, owner,
                                                 builder):
        # raw-joules points are counted where each is evaluated from its
        # flux's terms
        code, calls, values = self.run_counting(tmp_path, call_log, "butterfly", text, builder,
                                                owner)
        assert code == cli.EXIT_OK
        assert len(calls) == 2 * 2  # 2 flux values x 2 of the 4 k points
        assert len(values) == 2 * 4
        for axis in {axis for axis, _ in values}:
            assert values[(axis, 3)] == values[(axis, 0)]
            assert values[(axis, 2)] == values[(axis, 1)]

    def test_raw_joules_ev_conversion_keeps_the_partner_arrays(self):
        # each solved point is divided by EV once, and its partner holds the result
        cfg = parse_config(self.raw_joules("square", "a2_angstrom = 2.0").format(path="x"))
        grid = cli.run(cfg).payload
        p = cfg.parameters
        lat = cli._lattice_from(p)
        pot = bravais_cosine_potential(p["kind"], p["v0_ev"], lat)
        trunc = qed_bloch.BasisTruncation(n_max=p["n_max"], j_max=p["j_max"])
        kx_grid = qed_bloch.midpoint_kx_grid(p["kx_points"])
        assert grid.partners == [[0, 1, 1, 0]] * 2
        for flux, row, partners in zip(grid.axis_values, grid.eigenvalues, grid.partners,
                                       strict=True):
            w_c = cyclotron_frequency(field_for_flux_ratio(lat, flux))
            for k_idx, partner in enumerate(partners):
                if partner != k_idx:
                    assert row[k_idx] is row[partner]
                    continue
                mat = qed_bloch.assemble_llb_matrix(pot, w_c, kx_grid[k_idx] / lat.a1, trunc)
                assert np.array_equal(row[k_idx], numerics.hermitian_eigvals(mat) / EV)

    def test_raw_joules_without_c2_solves_every_point(self, tmp_path, monkeypatch, call_log):
        # square lattice, b2 cosine shifted by a phase: the x -> -x mirror stays,
        # C2 goes, and the +-k_x spectra differ
        def shifted(kind, v0, lat):
            pot = bravais_cosine_potential(kind, v0, lat)
            coeff = dict(pot.coefficients)
            coeff[(0, 1)] = 0.5 * v0 * np.exp(0.4j)
            coeff[(0, -1)] = 0.5 * v0 * np.exp(-0.4j)
            return FourierPotential(coefficients=coeff, lattice=lat)

        monkeypatch.setattr(cli, "bravais_cosine_potential", shifted)
        code, calls, values = self.run_counting(
            tmp_path, call_log, "butterfly", self.raw_joules("square", "a2_angstrom = 2.0"),
            "matrix", qed_bloch.CouplingTerms)
        assert code == cli.EXIT_OK
        assert len(calls) == 2 * 4
        for axis in {axis for axis, _ in values}:
            assert values[(axis, 3)] != values[(axis, 0)]

    def test_polariton_butterfly_pairs_the_kw_zero_points(self, tmp_path, call_log):
        # k = (kx, kw) over kx in {-pi/2, pi/2} and kw in {0, pi/a1}: on the
        # matrix route the spectrum does not depend on k_x, so the first point
        # of each kw is built and the other kx shares it
        text = POLARITON_MATRIX_CONFIG.replace("kx_points = 2", "kx_points = 2\nkw_points = 2")
        code, calls, values = self.run_counting(tmp_path, call_log, "polariton-butterfly",
                                                text, "polariton_harper_matrix")
        assert code == cli.EXIT_OK
        assert len(calls) == 2 * 2
        assert sum(args[3] == 0.0 for args in calls) == 2  # one kw = 0 point per g
        for axis in {axis for axis, _ in values}:
            assert values[(axis, 2)] == values[(axis, 0)]
            assert values[(axis, 3)] == values[(axis, 1)]

    @staticmethod
    def polariton(mode, **sweep):
        """POLARITON_MATRIX_CONFIG over kx_points = 4 and kw_points = 2 in
        `mode`, with the [sweep] values in `sweep` replaced."""
        text = (POLARITON_MATRIX_CONFIG.replace("kx_points = 2", "kx_points = 4\nkw_points = 2")
                .replace("mode = matrix", f"mode = {mode}"))
        for key, value in sweep.items():
            text = re.sub(rf"\n{key} = .*", f"\n{key} = {value}", text)
        return text

    @staticmethod
    def points_of(text):
        """(g values, k grid, params, lattice, truncation) of a
        polariton-butterfly config, as the CLI sets them up."""
        p = parse_config(text.format(path="x")).parameters
        lat = cli._lattice_from(p)
        kw_grid = np.linspace(0.0, 2.0 * math.pi / lat.a1, p["kw_points"], endpoint=False)
        k_grid = [(kx, kw) for kx in qed_bloch.midpoint_kx_grid(p["kx_points"])
                  for kw in kw_grid.tolist()]
        g_values = np.linspace(p["g_min"], p["g_max"], p["points"])
        return g_values, k_grid, p, lat, qed_bloch.BasisTruncation(n_max=p["n_max"])

    def test_polariton_matrix_mode_builds_one_matrix_per_g_and_kw(self, tmp_path, call_log):
        text = self.polariton("matrix")
        code, calls, values = self.run_counting(tmp_path, call_log, "polariton-butterfly",
                                                text, "polariton_harper_matrix")
        assert code == cli.EXIT_OK
        g_values, k_grid, p, lat, trunc = self.points_of(text)
        kw_grid = sorted({kw for _, kw in k_grid})
        assert sorted((args[1], args[3]) for args in calls) == [
            (g, kw) for g in g_values.tolist() for kw in kw_grid]
        assert len(values) == g_values.size * len(k_grid)
        # every k_x's rows are its own spectrum, to round-off
        for (axis, k_idx), rows in values.items():
            kx_a, kw_scaled = k_grid[k_idx]
            direct = numerics.hermitian_eigvals(qed_bloch.polariton_harper_matrix(
                p["flux_ratio"], float(axis), kx_a, kw_scaled, trunc, a1=lat.a1,
                v0=p["v0_ev"], mode="matrix"))
            width = direct[-1] - direct[0]
            assert np.max(np.abs(np.array(rows, dtype=float) - direct)) <= 1e-12 * width

    def test_polariton_reduced_mode_builds_one_chain_per_kx_pair(self, tmp_path, call_log):
        # the reduced chain does not depend on k_w, and at -k_x it is the
        # chain at k_x reversed: 2 of the 8 (kx, kw) points are built per g
        code, calls, values = self.run_counting(tmp_path, call_log, "polariton-butterfly",
                                                self.polariton("reduced"),
                                                "polariton_harper_matrix")
        assert code == cli.EXIT_OK
        assert len(calls) == 2 * 2
        assert {args[3] for args in calls} == {0.0}
        for axis in {axis for axis, _ in values}:
            # k index 2 kx + kw over kx in [-3pi/4, -pi/4, pi/4, 3pi/4]
            assert {tuple(values[(axis, k)]) for k in (0, 1, 6, 7)} == {tuple(values[(axis, 0)])}
            assert {tuple(values[(axis, k)]) for k in (2, 3, 4, 5)} == {tuple(values[(axis, 2)])}

    def test_polariton_auto_sweep_from_g_zero_keeps_c2_pairs(self, tmp_path, call_log):
        # g = 0 takes the reduced route (its +-k_x pairs), g = 0.5 and 1 the
        # matrix route (one point per k_w)
        text = self.polariton("auto", g_min=0.0, points=3)
        g_values, k_grid, p, lat, _ = self.points_of(text)
        routes = [qed_bloch.polariton_route(p["flux_ratio"], g, lat.a1, p["v0_ev"], kw, "auto")
                  for g in g_values for _, kw in k_grid]
        assert routes == ["reduced"] * len(k_grid) + ["matrix"] * 2 * len(k_grid)
        code, calls, values = self.run_counting(tmp_path, call_log, "polariton-butterfly",
                                                text, "polariton_harper_matrix")
        assert code == cli.EXIT_OK
        assert sorted(args[1] for args in calls) == [0.0] * 2 + [0.5] * 2 + [1.0] * 2
        assert values[("0.0", 7)] == values[("0.0", 0)]
        assert values[("0.0", 2)] != values[("0.0", 0)]
        for axis, kw_idx in itertools.product(("0.5", "1.0"), (0, 1)):
            # k index 2 kx + kw: every kx of one kw holds the same rows
            assert {tuple(rows) for (a, k), rows in values.items()
                    if a == axis and k % 2 == kw_idx} == {tuple(values[(axis, kw_idx)])}


class TestLlbTermsPerFlux:
    """The raw-joules butterfly builds each flux's coupling terms once
    (qed_bloch.central_terms at omega_p = 0) and evaluates them at each
    solved k point; a flux whose terms or matrices fail fails each of its
    own points, and never lends its terms to another flux or borrows
    another's."""

    #: square raw-joules butterfly over 4 k points, flux window and j_max set here
    TEXT = (TestC2Sweeps.raw_joules("square", "a2_angstrom = 2.0")
            .replace("n_max = 2", "n_max = 2\nj_max = 3"))

    def config(self, flux_min, flux_max, points):
        return parse_config(self.TEXT.format(path="x")
                            .replace("flux_min = 0.5", f"flux_min = {flux_min!r}")
                            .replace("flux_max = 1.0", f"flux_max = {flux_max!r}")
                            .replace("points = 2", f"points = {points}"))

    @staticmethod
    def direct_rows(cfg, flux):
        """Each k point's eigenvalues in eV at `flux`, from assemble_llb_matrix
        at the k point's C2 partner: the first point of the symmetric grid
        at k_x or -k_x."""
        p = cfg.parameters
        lat = cli._lattice_from(p)
        pot = bravais_cosine_potential(p["kind"], p["v0_ev"], lat)
        trunc = qed_bloch.BasisTruncation(n_max=p["n_max"], j_max=p["j_max"])
        w_c = cyclotron_frequency(field_for_flux_ratio(lat, flux))
        kx_grid = qed_bloch.midpoint_kx_grid(p["kx_points"])
        last = len(kx_grid) - 1
        return [numerics.hermitian_eigvals(qed_bloch.assemble_llb_matrix(
                    pot, w_c, kx_grid[min(k_idx, last - k_idx)] / lat.a1, trunc)) / EV
                for k_idx in range(last + 1)]

    def test_terms_built_once_per_flux(self, monkeypatch, call_log):
        # one sweep process, so the log is in call order: per flux one build,
        # then one evaluation and one solve for each of the 2 solved k points
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        call_log.record(qed_bloch, "central_terms",
                        lambda pot, w_p, w_c, trunc: ["build", w_p, w_c])
        call_log.record(qed_bloch.CouplingTerms, "matrix", lambda terms, k_x: ["matrix", k_x])
        call_log.record(qed_bloch, "hermitian_eigvals", lambda mat: ["solve"])
        cfg = self.config(0.5, 1.0, 3)
        grid = cli.run(cfg).payload
        lat = cli._lattice_from(cfg.parameters)
        kx_grid = qed_bloch.midpoint_kx_grid(4)
        expected = []
        for flux in grid.axis_values:
            expected.append(["build", 0.0, cyclotron_frequency(field_for_flux_ratio(lat, flux))])
            for kx in kx_grid[:2]:
                expected += [["matrix", kx / lat.a1], ["solve"]]
        assert call_log.entries() == expected
        assert grid.failures == []

    def test_non_finite_flux_fails_its_own_points(self, monkeypatch, call_log):
        # at flux 1e-150 the Laguerre table overflows into NaN band entries:
        # its 4 points fail in k order, and the next fluxes build their own
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        call_log.record(qed_bloch, "central_terms", lambda pot, w_p, w_c, trunc: [w_c])
        cfg = self.config(1e-150, 1.0, 3)
        grid = cli.run(cfg).payload
        assert len(call_log.entries()) == 3
        assert [f.split(": ", 1)[0] for f in grid.failures] == [
            f"axis[0]=1e-150, k[{k_idx}]" for k_idx in range(4)]
        assert all(": non-finite matrix entries (fingerprint" in f for f in grid.failures)
        assert all(eigs.size == 0 for eigs in grid.eigenvalues[0])
        for flux, row in zip(grid.axis_values[1:], grid.eigenvalues[1:], strict=True):
            for eigs, want in zip(row, self.direct_rows(cfg, flux), strict=True):
                assert np.array_equal(eigs, want)

    def test_huge_flux_fails_its_points_without_a_warning(self, tmp_path, capsys, monkeypatch):
        # at flux 5e299 and 1e300 omega_c overflows float64: central_terms refuses
        # it, so each of their points fails in k order, and no RuntimeWarning
        # (an error under this suite's filter) ends the run
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        out, cfg = tmp_path / "out.csv", tmp_path / "run.ini"
        cfg.write_text(self.TEXT.format(path=out).replace("flux_max = 1.0", "flux_max = 1e300")
                       .replace("points = 2", "points = 3"))
        assert cli.main(["butterfly", "--config", str(cfg)]) == cli.EXIT_NUMERICAL
        message = "cyclotron frequency must be positive and finite, not inf"
        labels = [f"axis[1]=5e+299, k[{k_idx}]" for k_idx in range(4)] + ["axis[2]=1e+300, k[0]"]
        assert capsys.readouterr().err.splitlines()[:7] == (
            ["numerical failure: 8 of 12 points failed"]
            + [f"  {label}: {message}" for label in labels] + ["  ... and 3 more"])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {flux for flux, _, _, _ in rows} == {"0.5"}
        want = self.direct_rows(parse_config(cfg.read_text()), 0.5)
        for k_idx, eigs in enumerate(want):
            assert [float(value) for _, k, _, value in rows if int(k) == k_idx] == eigs.tolist()

    def test_failed_build_fails_every_point_of_its_flux(self, monkeypatch):
        # the middle flux's build raises: each of its solved points retries
        # it and fails, its partners share the failures, and neither of its
        # neighbours' terms stands in for it
        cfg = self.config(0.5, 1.0, 3)
        lat = cli._lattice_from(cfg.parameters)
        failing = cyclotron_frequency(field_for_flux_ratio(lat, 0.75))
        build, attempts = qed_bloch.central_terms, []

        def failing_build(pot, w_p, w_c, trunc):
            if w_c == failing:
                attempts.append(w_c)
                raise NumericalError("synthetic build failure")
            return build(pot, w_p, w_c, trunc)

        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        monkeypatch.setattr(qed_bloch, "central_terms", failing_build)
        grid = cli.run(cfg).payload
        assert len(attempts) == 2  # once per solved k point
        assert grid.failures == [f"axis[1]=0.75, k[{k_idx}]: synthetic build failure"
                                 for k_idx in range(4)]
        for a_idx in (0, 2):
            want = self.direct_rows(cfg, grid.axis_values[a_idx])
            for eigs, expected in zip(grid.eigenvalues[a_idx], want, strict=True):
                assert np.array_equal(eigs, expected)


class TestTinyFlux:
    """A flux so small that 2 pi / flux overflows float64 fails each of its
    points, in k order, with a DomainError and no numpy warning (an error
    under this suite's filter)."""

    @staticmethod
    def failures(labels_and_fluxes, total):
        return ([f"numerical failure: {len(labels_and_fluxes)} of {total} points failed"]
                + [f"  {label}: flux ratio {flux:g} is too small: 2 pi / flux overflows "
                   f"float64" for label, flux in labels_and_fluxes])

    def test_harper_scaled_butterfly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        out, cfg = tmp_path / "out.csv", tmp_path / "run.ini"
        cfg.write_text(BUTTERFLY_CONFIG.format(path=out, points=2)
                       .replace("flux_min = 0.01", "flux_min = 1e-320")
                       .replace("flux_max = 2.0", "flux_max = 1e-300"))
        assert cli.main(["butterfly", "--config", str(cfg)]) == cli.EXIT_NUMERICAL
        tiny, small = np.linspace(1e-320, 1e-300, 2).tolist()
        assert capsys.readouterr().err.splitlines() == self.failures(
            [(f"axis[0]={tiny:g}, k[{k_idx}]", tiny) for k_idx in range(4)], 8
        ) + [f"wrote csv to {out}"]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4 * 21 and {float(flux) for flux, _, _, _ in rows} == {small}
        assert all(math.isfinite(float(value)) for _, _, _, value in rows)

    @pytest.mark.parametrize("mode", ["auto", "matrix", "reduced"])
    def test_polariton_butterfly(self, tmp_path, capsys, monkeypatch, mode):
        # the reduced chain and the (n, m) lattice both step their phase by
        # 2 pi / (flux (1 + g^2))
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        out, cfg = tmp_path / "out.csv", tmp_path / "run.ini"
        cfg.write_text(POLARITON_MATRIX_CONFIG.format(path=out)
                       .replace("flux_ratio = 1.0", "flux_ratio = 1e-320")
                       .replace("mode = matrix", f"mode = {mode}"))
        code = cli.main(["polariton-butterfly", "--config", str(cfg)])
        assert code == cli.EXIT_NUMERICAL
        points = [(f"axis[{a_idx}]={g:g}, k[{k_idx}]", 1e-320 * (1.0 + g * g))
                  for a_idx, g in enumerate((0.5, 1.0)) for k_idx in range(2)]
        assert capsys.readouterr().err.splitlines() == self.failures(points, 4) + [
            f"wrote csv to {out}"]
        assert out.read_text() == "coupling_g[1],k_index[1],eig_index[1],scaled[1]\n"


def _cavity(cavity_thz="0.208", density_cm2="1.3e12", mass_ratio="0.336", grid=""):
    return (f"[cavity]\ncavity_thz = {cavity_thz}\ndensity_cm2 = {density_cm2}\n"
            f"mass_ratio = {mass_ratio}\n{grid}")


def _eft(lz_mm="1", density_cm2="1.3e12", mass_ratio="1"):
    return (f"[eft]\nlz_mm = {lz_mm}\ndensity_cm2 = {density_cm2}\nn_electrons = 1\n"
            f"lambda0 = 1.2\nmass_ratio = {mass_ratio}\n")


def _landau(b_tesla="2.0", mass_ratio="1"):
    return (f"[landau]\nb_tesla = {b_tesla}\ndensity_cm2 = 1.3e12\nmass_ratio = {mass_ratio}\n"
            "points = 50\n")


_GRID = "[grid]\npoints = 5\n"
_MTG_1E200 = ("[lattice]\nkind = square\na1_angstrom = 1e200\na2_angstrom = 1e200\n"
              "[mtg]\np = 2\n")

_CAVITY_OMEGA_P2 = ("omega_p^2 leaves float64 at n2d[1/m^2] = 1.3e+16, "
                    "omega_cav[rad/s] = 1.3069e+12, mass_ratio[1] = 1e-300")
_FERMI = "Fermi energy density leaves float64 at n2d[1/m^2] = 1e+204, mass_ratio[1] = {}"

#: (command, model sections, the failure message) of schema-valid configs
#: whose arithmetic leaves float64, by the command and the value that takes
#: it there; a message names the derived quantity that failed and its inputs
#: in SI units
ARITHMETIC_FAILURES = [pytest.param(command, body, message, id=f"{command}-{case}")
                       for command, case, body, message in [
    ("gas", "cavity_thz=1e-300", _cavity(cavity_thz="1e-300"),
     "gamma' = omega_p^2/omega^2 leaves float64 at omega[rad/s] = 6.28319e-288, "
     "omega_p[rad/s] = 6.4089e-139"),
    ("gas", "mass_ratio=1e-300", _cavity(mass_ratio="1e-300"), _CAVITY_OMEGA_P2),
    ("gas", "density_cm2=1e200", _cavity(density_cm2="1e200"), _FERMI.format(0.336)),
    *[(command, "mass_ratio=1e-300", _cavity(mass_ratio="1e-300", grid=_GRID),
       _CAVITY_OMEGA_P2) for command in ("response", "conductivity")],
    ("response", "density_cm2=1e200", _cavity(density_cm2="1e200", grid=_GRID),
     "(e^2 N/m*)^2 leaves float64 at N[1] = 1e+204, mass_ratio[1] = 0.336"),
    ("conductivity", "density_cm2=1e200", _cavity(density_cm2="1e200", grid=_GRID),
     "omega_p^4 leaves float64 at omega_p[rad/s] = 2.56356e+105, n2d[1/m^2] = 1e+204"),
    ("response", "span=1e300", _cavity(grid=_GRID + "span = 1e300\n"),
     "grid half-width span omega_tilde leaves float64 at span[1] = 1e+300, "
     "omega_tilde[rad/s] = 1.33919e+12"),
    ("eft", "mass_ratio=1e-300", _eft(mass_ratio="1e-300"),
     "alpha leaves float64 at l_z[m] = 0.001, mass_ratio[1] = 1e-300"),
    ("eft", "density_cm2=1e200", _eft(density_cm2="1e200"), _FERMI.format(1)),
    ("eft", "lz_mm=1e-300", _eft(lz_mm="1e-300"),
     "alpha leaves float64 at l_z[m] = 1e-303, mass_ratio[1] = 1"),
    ("eft", "lz_mm=1e200", _eft(lz_mm="1e200"),
     "Casimir pressure leaves float64 at l_z[m] = 1e+197, n2d[1/m^2] = 1.3e+16, "
     "mass_ratio[1] = 1"),
    ("landau", "mass_ratio=1e-300", _landau(mass_ratio="1e-300"),
     "omega_c = e B/m* leaves float64 at B[T] = 2, mass_ratio[1] = 1e-300"),
    ("landau", "mass_ratio=1e200", _landau(mass_ratio="1e200"),
     "Landau-level DOS leaves float64 at B[T] = 2, eta[J] = 3.7096e-225, mass_ratio[1] = 1e+200"),
    ("landau", "b_tesla=1e-320", _landau(b_tesla="1e-320"),
     "filling factor leaves float64 at n2d[1/m^2] = 1.3e+16, B[T] = 9.99989e-321"),
    ("landau", "b_tesla=1e200", _landau(b_tesla="1e200"),
     "Landau-level DOS leaves float64 at B[T] = 1e+200, eta[J] = 1.8548e+175, mass_ratio[1] = 1"),
    ("landau", "b_tesla=1e300", _landau(b_tesla="1e300"),
     "energy window hbar omega_c (n_max + 1) leaves float64 at B[T] = 1e+300, mass_ratio[1] = 1"),
    ("mtg-check", "a=1e200-flux_ratio", _MTG_1E200 + "flux_ratio = 0.5\n",
     "flux through the enlarged cell is nan in float64"),
    ("mtg-check", "a=1e200-b_tesla", _MTG_1E200 + "b_tesla = 1\n",
     "flux through the enlarged cell is inf in float64"),
    ("polariton", "b_max_tesla=1e200",
     _cavity() + "[sweep]\nb_min_tesla = 0.1\nb_max_tesla = 1e200\npoints = 5\n",
     "Omega^2 = omega_p^2 + omega_c^2 leaves float64 at b_max[T] = 1e+200, "
     "omega_p[rad/s] = 2.92291e+11, mass_ratio[1] = 0.336"),
    ("polariton", "b_max_tesla=1e140",
     _cavity() + "[sweep]\nb_min_tesla = 0.1\nb_max_tesla = 1e140\npoints = 5\n",
     "lower branch omega_p omega_c^2 / 2 Omega^2 leaves float64 at b_max[T] = 1e+140, "
     "omega_p[rad/s] = 2.92291e+11, mass_ratio[1] = 0.336"),
]]


class TestArithmeticFailures:
    """A run whose arithmetic overflows, divides by zero or makes a NaN exits
    3 with one `numerical failure:` line, warns nothing and writes nothing;
    the polaritonic helpers take their large-g limits, and g = 0 is solved
    as given."""

    @staticmethod
    def main_recording(tmp_path, command, body, fmt="csv"):
        """(exit code, stderr, warnings, output path) of cli.main on `body`."""
        out, cfg = tmp_path / "out", tmp_path / "run.ini"
        cfg.write_text(config_text(command, body, out, fmt))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(cfg)])
        return code, err.getvalue(), [str(w.message) for w in caught], out

    @pytest.mark.parametrize("command, body, message", ARITHMETIC_FAILURES)
    def test_exits_numerical_without_warning_or_file(self, tmp_path, command, body, message):
        code, err, caught, out = self.main_recording(tmp_path, command, body)
        assert code == cli.EXIT_NUMERICAL, err
        assert err == f"numerical failure: {message}\n"
        assert caught == []
        assert not out.exists()

    def test_nan_result_names_its_column(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cavity_gas, "ground_state_photon_occupation", lambda *_: math.nan)
        code, err, _, out = self.main_recording(tmp_path, "gas", _cavity())
        assert code == cli.EXIT_NUMERICAL
        assert err == "numerical failure: photon_occupation_per_polarization[1] is NaN\n"
        assert not out.exists()

    @staticmethod
    def polariton_rows(tmp_path, mode, g_min, g_max):
        """{g: {(k index, eig index): value}} of a polariton-butterfly run
        over g_min and g_max, and its exit code and stderr."""
        body = ("[lattice]\nkind = square\na1_angstrom = 2.0\na2_angstrom = 2.0\nv0_ev = 3.0\n"
                f"[sweep]\nflux_ratio = 1.0\ng_min = {g_min}\ng_max = {g_max}\npoints = 2\n"
                "[truncation]\nn_max = 3\n[kgrid]\nkx_points = 2\nkw_points = 2\n"
                f"[solver]\nmode = {mode}\n")
        code, err, caught, out = TestArithmeticFailures.main_recording(
            tmp_path, "polariton-butterfly", body)
        assert caught == []
        rows = {}
        for line in out.read_text().splitlines()[1:]:
            g, k_idx, eig_idx, value = line.split(",")
            rows.setdefault(g, {})[(int(k_idx), int(eig_idx))] = float(value)
        return code, err, rows

    @pytest.mark.parametrize("mode", ["auto", "matrix", "reduced"])
    @pytest.mark.parametrize("g_max", ["1e103", "1e150", "1e200"])
    def test_large_coupling_takes_its_limit(self, tmp_path, mode, g_max):
        code, err, rows = self.polariton_rows(tmp_path, mode, "1e100", g_max)
        assert code == cli.EXIT_OK, err
        assert sorted(rows, key=float) == ["1e+100", g_max.replace("e", "e+")]
        near, far = rows["1e+100"], rows[g_max.replace("e", "e+")]
        assert near.keys() == far.keys()
        width = max(near.values()) - min(near.values())
        assert max(abs(far[key] - near[key]) for key in near) <= 1e-12 * width

    @pytest.mark.parametrize("mode", ["auto", "matrix", "reduced"])
    def test_zero_coupling_is_solved_as_given(self, tmp_path, mode):
        code, err, rows = self.polariton_rows(tmp_path, mode, "0", "1e-13")
        assert code == cli.EXIT_OK, err
        assert sorted(rows) == ["0.0", "1e-13"]
        assert len(rows["0.0"]) == len(rows["1e-13"]) > 0


class TestScatterFormat:
    @pytest.mark.parametrize("command", sorted(UNPLOTTABLE_BODIES))
    def test_config_format_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out.svg"
        cfg = tmp_path / "run.ini"
        cfg.write_text(config_text(command, UNPLOTTABLE_BODIES[command], out, "svg-scatter"))
        with pytest.raises(ConfigError) as err:
            parse_config(cfg.read_text())
        assert any("svg-scatter" in v for v in err.value.violations)
        assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "config error: [output] format 'svg-scatter'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(UNPLOTTABLE_BODIES))
    def test_format_override_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        cfg = tmp_path / "run.ini"
        cfg.write_text(config_text(command, UNPLOTTABLE_BODIES[command], out, "csv"))
        code = cli.main([command, "--config", str(cfg), "--format", "svg-scatter"])
        assert code == cli.EXIT_CONFIG
        assert "config error: [output] format 'svg-scatter'" in capsys.readouterr().err
        assert not out.exists()
        # the same config writes its CSV
        assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_OK
        assert out.exists()

    def test_polariton_still_plots(self, tmp_path):
        out = tmp_path / "out.svg"
        cfg = tmp_path / "run.ini"
        cfg.write_text(POLARITON_CONFIG.format(path=out))
        assert cli.main(["polariton", "--config", str(cfg)]) == cli.EXIT_OK
        assert out.read_text().count("<circle") == 20


#: INI-like text: section headers, key = value lines and stray lines, with
#: keys, values and section names drawn from the config vocabulary or made up
_INI_WORDS = st.sampled_from([
    "run", "command", "butterfly", "gas", "eft", "lattice", "kind", "square", "oblique",
    "sweep", "points", "flux_min", "n_max", "j_max", "threads", "output", "format", "csv",
    "cavity_thz", "density_cm2", "1e400", "-1", "0", "nan", "inf", "2.0", "",
])
_INI_TOKEN = st.one_of(_INI_WORDS, st.text(max_size=12))
_INI_LINE = st.one_of(
    st.builds("[{}]".format, _INI_TOKEN),
    st.builds("{} = {}".format, _INI_TOKEN, _INI_TOKEN),
    _INI_TOKEN,
)


class TestParseConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(_INI_LINE, max_size=12).map("\n".join), st.text()))
    def test_returns_or_raises_config_error(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass


#: values a valid config may hold for some keys; every sweep, basis and grid
#: size stays small so one example runs in milliseconds
_MAIN_VALUES = {
    "kind": BRAVAIS_KINDS,
    "a1_angstrom": ("2.0", "3.0"),
    "a2_angstrom": ("2.0", "3.0"),
    "theta_deg": ("60", "75", "90", "110"),
    "density_cm2": ("1.3e12", "1e9"),
    "points": ("1", "2", "4"),
    "kx_points": ("1", "3", "4"),
    "kw_points": ("1", "2"),
    "n_max": ("1", "3"),
    "j_max": ("0", "2"),
    "scaling": ("raw-joules", "harper-scaled"),
    "mode": ("auto", "matrix", "reduced"),
    "n_electrons": ("1", "1e6"),
    "lambda0": ("1", "1.2"),
    "p": ("1", "3"),
}
#: keys whose default is a large size, so they are never left out
_SIZE_KEYS = ("points", "kx_points", "kw_points", "n_max")
_ANY_VALUE = ("0.05", "0.5", "1", "2.0", "7.5", "1e-320", "1e-300", "1e120", "1e200",
              "1e300")
_BAD_VALUE = ("0", "-1", "nan", "inf", "1e400", "x", "", "1%", "%(x)s")


@st.composite
def _cli_configs(draw):
    """(command, INI text without its [output] section) over the command's
    schema keys, each left out, valid or invalid."""
    command = draw(st.sampled_from(COMMANDS))
    sections = {}
    for section, key in config._schema_for(command).keys:
        good = st.sampled_from(_MAIN_VALUES.get(key, _ANY_VALUE))
        choices = [good, good, st.sampled_from(_BAD_VALUE)]
        if key not in _SIZE_KEYS:
            choices.append(st.none())
        value = draw(st.one_of(choices))
        if value is not None:
            sections.setdefault(section, []).append(f"{key} = {value}")
    body = "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())
    return command, f"[run]\ncommand = {command}\n{body}"


class TestMainProperty:
    @settings(max_examples=300, deadline=None)
    @given(_cli_configs(), st.sampled_from(FORMATS + ("png",)))
    def test_documented_exit_codes_only(self, drawn, fmt):
        command, text = drawn
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.ini"
            cfg.write_text(f"{text}[output]\npath = {Path(tmp) / 'out'}\nformat = {fmt}\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(cfg)])
            out = Path(tmp) / "out"
            written = out.read_text() if code == cli.EXIT_OK and out.exists() else ""
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_IO)
        assert "Traceback" not in err.getvalue()
        if fmt == "json" and written:
            written = json.dumps(json.loads(written)["payload"])  # the config echo aside
        assert not re.search(r"\bnan\b", written, re.IGNORECASE)

