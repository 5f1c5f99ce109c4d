#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cavity-bloch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs only the checkout's
`src`, numpy and scipy.  The workload (perfbench/workloads.py) is written as
an INI file from the seed and handed to the CLI, which runs as a user runs
it: one child process per run, `python -m cavity_bloch.cli`, writing a real
output file.  The package is not installed, so children get the absolute
`src` path on PYTHONPATH and otherwise the caller's environment unchanged.

--trace 0 measures end to end, with no tracing in the program:
  setup_s       median over fresh interpreters of `import cavity_bloch.cli`
                plus `parse_config` of the workload INI
  wall_s        median wall time of a CLI child, from exec to exit
  cpu_s         median user + system CPU time of a CLI child (its own rusage)
  peak_rss_mb   median peak resident set of a CLI child (its own rusage)
  ok_fraction   1 - failed_fraction: (axis, k) points present in the
                outputs / points attempted.  A failed point writes no rows,
                and a non-zero exit fails every point of that child.
CLI children run back to back until their summed wall time reaches
--seconds, and at least twice.

--trace 1 runs pairs of one untraced CLI child and one traced child
(perfbench/child.py trace), which wraps the layer functions by rebinding
them and calls parse_config, cli.run and output.export in one process.  It
reports the per-layer metrics of PER_LAYER, medians over the pairs; the
pairs run until their summed wall time reaches --seconds, and at least once.

Every output file is checked (perfbench/checks.py).  The last line of
standard output is the JSON result; the line before it records the
environment and the raw samples.  Problems go to standard error.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from workloads import WORKLOADS, ini_text

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE.parent / ".perfbench-work"

SETUP_PROBES = 9
MIN_CHILDREN = 2
CHILD_TIMEOUT_S = 150.0
EXTENSIONS = {"csv": "csv", "json": "json", "svg-scatter": "svg"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "ok_fraction": "fraction"}

PER_LAYER = {
    "import.s": "s",
    "config.parse_config.s": "s",
    "numerics.hermitian_eigvals.calls": "count",
    "numerics.hermitian_eigvals.s": "s",
    "numerics.hermiticity_residual.s": "s",
    "numerics.matrix_bytes": "bytes",
    "qed_bloch.assemble.self_s": "s",
    "qed_bloch.harper_matrix.calls": "count",
    "qed_bloch.harper_matrix.s": "s",
    "qed_bloch.assemble_llb_matrix.calls": "count",
    "qed_bloch.assemble_llb_matrix.s": "s",
    "qed_bloch.polariton_harper_eigvals.calls": "count",
    "qed_bloch.polariton_harper_eigvals.s": "s",
    "qed_bloch.polariton.mode_matrix": "count",
    "qed_bloch.polariton.mode_reduced": "count",
    "kernels.fill_coupling.calls": "count",
    "kernels.fill_coupling.s": "s",
    "kernels.displacement_block.calls": "count",
    "kernels.displacement_block.s": "s",
    "qed_bloch.sweep.s": "s",
    "qed_bloch.sweep.points": "count",
    "qed_bloch.sweep.points_failed": "count",
    "cli.rows.self_s": "s",
    "output.export.s": "s",
    "output.bytes": "bytes",
    "failed_fraction": "fraction",
    "bench.trace_overhead_s": "s",
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv, work, tag):
    """Run argv to exit in `work`; returns (exit code, wall s, rusage, stdout)."""
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=_child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return proc.returncode, wall, usage, out_path.read_text()


class Run:
    """One benchmark invocation: its workload files, checks and tallies."""

    def __init__(self, workload, check, seed, work):
        self.workload = workload
        self.check = check
        self.params = workload.params(seed)
        self.points = workload.points(self.params)
        self.work = work
        self.out = work / f"out.{EXTENSIONS[workload.fmt]}"
        self.config = work / "run.ini"
        self.config.write_text(ini_text(workload.command, self.params, self.out, workload.fmt))
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _checked(self, code, label):
        """Failed points of the output just written; records any problem."""
        self.attempted += self.points
        if code != 0:
            self.problems.append(f"{label}: exit code {code}")
            failed = self.points
        else:
            failed, problems = self.check(self.out, self.params, self.rng)
            self.problems += [f"{label}: {p}" for p in problems]
        self.failed += failed
        return failed

    def cli(self):
        self.out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "cavity_bloch.cli", self.workload.command,
                "--config", str(self.config), "--threads", str(self.workload.threads)]
        code, wall, usage, _ = _spawn(argv, self.work, "cli")
        failed = self._checked(code, "cli")
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "failed": failed}

    def setup(self):
        code, _, _, stdout = _spawn(
            [sys.executable, str(HERE / "child.py"), "setup", str(self.config)], self.work, "setup")
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
        probe = json.loads(stdout.splitlines()[-1])
        return probe["import_s"] + probe["parse_s"]

    def traced(self):
        self.out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), "trace", str(self.config), str(self.out),
                self.workload.fmt, str(self.workload.threads)]
        code, wall, _, stdout = _spawn(argv, self.work, "trace")
        self._checked(code, "traced")
        if code != 0:
            raise RuntimeError(f"traced run exited with {code}")
        return wall, json.loads(stdout.splitlines()[-1])


def _median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def measure(run, seconds):
    setup = [run.setup() for _ in range(SETUP_PROBES)]
    children = []
    while len(children) < MIN_CHILDREN or sum(c["wall_s"] for c in children) < seconds:
        children.append(run.cli())
    metrics = {key: _median_of(children, key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    metrics["ok_fraction"] = 1.0 - run.failed / run.attempted
    return metrics, {"setup_s": setup, "children": children}


def measure_traced(run, seconds):
    pairs = []
    spent = 0.0
    while not pairs or spent < seconds:
        plain = run.cli()
        traced_wall, layers = run.traced()
        layers["bench.trace_overhead_s"] = traced_wall - plain["wall_s"]
        layers["failed_fraction"] = plain["failed"] / run.points
        pairs.append(layers)
        spent += plain["wall_s"] + traced_wall
    return {key: _median_of(pairs, key) for key in PER_LAYER}, {"pairs": pairs}


def environment(workload, seed):
    try:
        from cavity_bloch.kernels import HAS_NUMBA
    except ImportError:  # a version of the package without the numba kernels
        HAS_NUMBA = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "has_numba": HAS_NUMBA,
        "workload": workload.name,
        "sweep_threads": workload.threads,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cavity_bloch" / "cli.py").is_file():
        print(f"no cavity_bloch sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from checks import CHECKS  # imports cavity_bloch for the oracles

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, CHECKS[workload.name], args.seed, work)
        if args.trace:
            values, samples = measure_traced(run, args.seconds)
            units = PER_LAYER
        else:
            values, samples = measure(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(workload, args.seed), "samples": samples}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
