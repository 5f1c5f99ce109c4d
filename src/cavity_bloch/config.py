"""Plain-text run configuration: INI-style sections, one level deep.

Input units at this boundary follow the numbers quoted throughout the
problem domain (angstrom, eV, tesla, THz, 1/cm^2, mm); everything is
converted to SI once, at parse time.  parse_config is the one place a run
request is validated: the CLI's --out, --format and --seed replace their INI
keys before it reads them, and it collects every violation before failing.
Rules on one key live in the command's schema (_schema_for), rules across
keys in _cross_checks.
"""

import configparser
import io
import math
from dataclasses import dataclass

from .constants import (
    ANGSTROM,
    CM2_DENSITY,
    DEFAULT_ETA_FRACTION,
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_SPAN,
    EV,
    THZ,
)
from .errors import ConfigError
from .lattice import BRAVAIS_KINDS

COMMANDS = (
    "gas",
    "response",
    "conductivity",
    "eft",
    "landau",
    "polariton",
    "butterfly",
    "polariton-butterfly",
    "mtg-check",
)

FORMATS = ("csv", "json", "svg-scatter")

#: commands whose output has the two numeric columns a scatter plot needs
SCATTER_COMMANDS = ("response", "conductivity", "polariton", "butterfly", "polariton-butterfly")


@dataclass(frozen=True)
class RunConfig:
    """Validated run request: command, SI parameters, output target."""

    command: str
    parameters: dict
    output_path: str
    output_format: str
    source_text: str
    seed: int = 0
    # selects nothing and parse_config never sets it; only perfbench/child.py
    # does, with dataclasses.replace, so removing it waits for the next
    # change to that benchmark (ROADMAP item 1)
    threads: int = 1


class _Schema:
    """Declarative per-command key schema with unit conversions."""

    def __init__(self):
        self.keys = {}  # (section, key) -> (required, converter, validator, default)
        self.below = {}  # (section, key) -> the key of that section it must be below

    def add(self, section, key, converter, required=True, check=None, default=None,
            below=None):
        self.keys[(section, key)] = (required, converter, check, default)
        if below is not None:
            self.below[(section, key)] = below
        return self


def _angstrom(x):
    return float(x) * ANGSTROM


def _ev(x):
    return float(x) * EV


def _thz_angular(x):
    """Ordinary-frequency THz input -> angular rad/s."""
    return 2.0 * math.pi * float(x) * THZ


def _cm2(x):
    return float(x) * CM2_DENSITY


def _deg(x):
    return math.radians(float(x))


def _mm(x):
    return float(x) * 1e-3


_POS = (lambda v: v > 0.0, "must be positive")
_NONNEG = (lambda v: v >= 0.0, "must be >= 0")
_INT_POS = (lambda v: v >= 1, "must be a positive integer")
_AT_LEAST_ONE = (lambda v: v >= 1.0, "must be >= 1")


def _one_of(choices):
    return (lambda v: v in choices, f"not one of {choices}")


def _lattice_schema(schema):
    schema.add("lattice", "kind", str, check=_one_of(BRAVAIS_KINDS))
    schema.add("lattice", "a1_angstrom", _angstrom, check=_POS)
    schema.add("lattice", "a2_angstrom", _angstrom, check=_POS)
    schema.add("lattice", "theta_deg", _deg, required=False, default=None)
    return schema


def _cavity_schema(schema):
    schema.add("cavity", "cavity_thz", _thz_angular, check=_POS)
    schema.add("cavity", "density_cm2", _cm2, check=_POS)
    schema.add("cavity", "mass_ratio", float, required=False, check=_POS, default=1.0)
    return schema


def _grid_schema(schema):
    schema.add("grid", "points", int, required=False, check=_INT_POS,
               default=DEFAULT_GRID_POINTS)
    schema.add("grid", "span", float, required=False, check=_POS, default=DEFAULT_GRID_SPAN)
    schema.add("grid", "eta_fraction", float, required=False, check=_POS,
               default=DEFAULT_ETA_FRACTION)
    return schema


def _schema_for(command):
    s = _Schema()
    if command == "gas":
        _cavity_schema(s)
        s.add("gas", "area_um2", lambda x: float(x) * 1e-12, required=False, check=_POS,
              default=1e-9)
    elif command in ("response", "conductivity"):
        _cavity_schema(s)
        _grid_schema(s)
    elif command == "eft":
        s.add("eft", "lz_mm", _mm, check=_POS)
        s.add("eft", "density_cm2", _cm2, check=_POS)
        s.add("eft", "n_electrons", float, check=_AT_LEAST_ONE)
        s.add("eft", "lambda0", float, check=_AT_LEAST_ONE)
        s.add("eft", "mass_ratio", float, required=False, check=_POS, default=1.0)
    elif command == "landau":
        s.add("landau", "b_tesla", float, check=_POS)
        s.add("landau", "density_cm2", _cm2, check=_POS)
        s.add("landau", "mass_ratio", float, required=False, check=_POS, default=1.0)
        s.add("landau", "n_max", int, required=False, check=_INT_POS, default=60)
        s.add("landau", "eta_fraction", float, required=False, check=_POS, default=0.01)
        s.add("landau", "points", int, required=False, check=_INT_POS, default=2001)
    elif command == "polariton":
        _cavity_schema(s)
        s.add("sweep", "b_min_tesla", float, check=_NONNEG, below="b_max_tesla")
        s.add("sweep", "b_max_tesla", float, check=_POS)
        s.add("sweep", "points", int, required=False, check=_INT_POS, default=200)
    elif command == "butterfly":
        _lattice_schema(s)
        s.add("lattice", "v0_ev", _ev, check=_POS)
        s.add("sweep", "flux_min", float, check=_POS, below="flux_max")
        s.add("sweep", "flux_max", float, check=_POS)
        s.add("sweep", "points", int, required=False, check=_INT_POS, default=300)
        s.add("truncation", "n_max", int, required=False, check=_INT_POS, default=30)
        s.add("truncation", "j_max", int, required=False, check=_NONNEG, default=0)
        s.add("kgrid", "kx_points", int, required=False, check=_INT_POS, default=32)
        s.add("sweep", "scaling", str, required=False,
              check=_one_of(("raw-joules", "harper-scaled")), default="raw-joules")
        s.add("plot", "emin_ev", float, required=False, default=None, below="emax_ev")
        s.add("plot", "emax_ev", float, required=False, default=None)
    elif command == "polariton-butterfly":
        _lattice_schema(s)
        s.add("lattice", "v0_ev", _ev, check=_POS)
        s.add("sweep", "flux_ratio", float, check=_POS)
        s.add("sweep", "g_min", float, check=_NONNEG, below="g_max")
        s.add("sweep", "g_max", float, check=_POS)
        s.add("sweep", "points", int, required=False, check=_INT_POS, default=220)
        s.add("truncation", "n_max", int, required=False, check=_INT_POS, default=30)
        s.add("kgrid", "kx_points", int, required=False, check=_INT_POS, default=16)
        s.add("kgrid", "kw_points", int, required=False, check=_INT_POS, default=1)
        s.add("solver", "mode", str, required=False,
              check=_one_of(("auto", "matrix", "reduced")), default="auto")
    elif command == "mtg-check":
        _lattice_schema(s)
        s.add("mtg", "flux_ratio", float, required=False, check=_POS, default=None)
        s.add("mtg", "b_tesla", float, required=False, check=_NONNEG, default=None)
        s.add("mtg", "p", int, check=_INT_POS)
    else:  # pragma: no cover - guarded by the command check in parse_config
        raise AssertionError(command)
    return s


def parse_config(text, *, command=None, out=None, fmt=None, seed=None):
    """Parse and fully validate a run request; raises ConfigError listing
    every violation.

    `command` is the command the caller asked for, which [run] command must
    name.  `out`, `fmt` and `seed`, when given, replace [output] path,
    [output] format and [run] seed before anything is validated, so an
    invalid INI value that a flag replaces is never read."""
    parser = configparser.ConfigParser(interpolation=None)  # values are read verbatim
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc

    name = parser.get("run", "command", fallback=None)
    if name is None:
        raise ConfigError(["[run] command is required"])
    if name not in COMMANDS:
        raise ConfigError([f"[run] command {name!r} not one of {COMMANDS}"])

    violations = []
    if command is not None and command != name:
        violations.append(f"[run] command = {name!r} does not match the CLI command {command!r}")
    out_path = parser.get("output", "path", fallback="result.csv") if out is None else out
    if not out_path:
        violations.append("[output] path must not be empty" if out is None
                          else "--out must not be empty")
    out_format = parser.get("output", "format", fallback="csv") if fmt is None else fmt
    if out_format not in FORMATS:
        violations.append(f"[output] format {out_format!r} not one of {FORMATS}")
    elif out_format == "svg-scatter" and name not in SCATTER_COMMANDS:
        violations.append(f"[output] format 'svg-scatter' needs two numeric columns, which "
                          f"command {name!r} does not write; scatter commands are "
                          f"{SCATTER_COMMANDS}")
    if seed is None:
        seed = parser.get("run", "seed", fallback="0")
        try:
            seed = int(seed)
        except ValueError:
            violations.append(f"[run] seed must be an integer, got {seed!r}")

    schema = _schema_for(name)
    known = {("run", "command"), ("run", "seed"), ("output", "path"), ("output", "format")}
    known |= set(schema.keys)

    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in known:
                violations.append(f"[{section}] unknown key {key!r} for command {name!r}")

    params = {}
    for (section, key), (required, conv, check, default) in schema.keys.items():
        raw = parser.get(section, key, fallback=None)
        if raw is None:
            if required:
                violations.append(f"[{section}] missing required key {key!r}")
            else:
                params[key] = default
            continue
        try:
            value = conv(raw)
        except (TypeError, ValueError):
            violations.append(f"[{section}] {key} = {raw!r} is not a valid value")
            continue
        if isinstance(value, float) and not math.isfinite(value):
            violations.append(f"[{section}] {key} = {raw!r} must be finite")
            continue
        if check is not None:
            ok, msg = check
            if not ok(value):
                violations.append(f"[{section}] {key} = {raw!r} {msg}")
                continue
        params[key] = value

    violations += _cross_checks(name, params)
    for (section, low), high in schema.below.items():
        if None not in (params.get(low), params.get(high)) and params[low] >= params[high]:
            violations.append(f"[{section}] {low} must be below {high}")
    if violations:
        raise ConfigError(violations)
    return RunConfig(
        command=name,
        parameters=params,
        output_path=out_path,
        output_format=out_format,
        source_text=text,
        seed=seed,
    )


def _cross_checks(command, params):
    """Validations spanning several keys (run after per-key conversion)."""
    violations = []
    if command == "butterfly" and params.get("scaling") == "harper-scaled":
        if params.get("kind") != "square":
            violations.append("[sweep] harper-scaled output is defined for the square lattice")
        # the scale t(flux) of harper-scaled output changes along the sweep,
        # so an eV window has no one value in its units
        if params.get("emin_ev") is not None or params.get("emax_ev") is not None:
            violations.append("[plot] emin_ev/emax_ev apply to eV output only, "
                              "not to scaling = harper-scaled")
    if command == "polariton-butterfly" and params.get("kind") != "square":
        violations.append(
            "[lattice] the polaritonic Harper sweep is defined on the square lattice")
    if command == "mtg-check":
        if params.get("flux_ratio") is None and params.get("b_tesla") is None:
            violations.append("[mtg] give either flux_ratio or b_tesla")
    if command == "eft":
        lz = params.get("lz_mm")
        n2d = params.get("density_cm2")
        n_el = params.get("n_electrons")
        lam = params.get("lambda0")
        mr = params.get("mass_ratio", 1.0)
        if None not in (lz, n2d, n_el, lam):
            from .eft import EftSetup  # imported here: only the eft command needs it

            # lambda0 = 1 is always inside the window, so the setup builds
            lam_max = EftSetup(
                l_z=lz, n2d=n2d, n_electrons=n_el, lambda0=1.0, mass_ratio=mr
            ).lambda0_max
            if lam > lam_max:
                violations.append(
                    f"[eft] lambda0 = {lam:g} beyond the stability window "
                    f"1 <= lambda0 <= exp(1/(N alpha)) = {lam_max:g}"
                )
    return violations
