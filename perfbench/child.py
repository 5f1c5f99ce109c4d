"""Fresh-interpreter probes that perfbench/run.py starts as child processes.

    python3 perfbench/child.py setup CONFIG
        Time `import cavity_bloch.cli` and `parse_config` of CONFIG.
    python3 perfbench/child.py trace CONFIG OUT FORMAT THREADS
        Run the command of CONFIG in this process, the way the CLI does, with
        the layer functions wrapped; write OUT in FORMAT.

Each prints one JSON object as its last line of standard output.  Only the
standard library is imported before the timed package import, and the
package must be importable (run.py puts the checkout's src on PYTHONPATH).
"""

import dataclasses
import functools
import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def setup(config_path):
    text = _read(config_path)
    t0 = perf_counter()
    import cavity_bloch.cli  # noqa: F401  (the import is what is timed)

    t1 = perf_counter()
    from cavity_bloch.config import parse_config

    t2 = perf_counter()
    parse_config(text)
    t3 = perf_counter()
    return {"import_s": t1 - t0, "parse_s": t3 - t2}


class Tracer:
    """Call counts and summed durations of rebound module-level functions.

    Durations are summed over threads, so under the sweep pool a layer's
    seconds are busy time, not wall time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._saved = []

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def timed(self, key, fn, on_result=None):
        """`fn` wrapped to add its calls and duration under `key`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                with self._lock:
                    self.calls[key] += 1
                    self.seconds[key] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def rebind(self, modules, name, key, on_result=None, inner=None):
        """Point `name`, in every module that binds it, at the original wrapped
        by `timed` (around inner(original) when given).  A function the
        package no longer has is left out and reads as 0 calls."""
        modules = [m for m in modules if m is not None and hasattr(m, name)]
        if not modules:
            return
        original = getattr(modules[0], name)
        wrapper = self.timed(key, inner(original) if inner else original, on_result)
        for module in modules:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)

    def restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def _module(name):
    """cavity_bloch.`name`, or None in a version of the package without it."""
    try:
        return importlib.import_module(f"cavity_bloch.{name}")
    except ModuleNotFoundError:
        return None


def trace(config_path, out_path, fmt, threads):
    text = _read(config_path)
    t0 = perf_counter()
    from cavity_bloch import cli, config, output, qed_bloch

    import_s = perf_counter() - t0
    numerics, kernels = _module("numerics"), _module("kernels")
    tracer = Tracer()

    def matrix_bytes(args, _result):
        mat = args[0]
        tracer.count("numerics.matrix_bytes", mat.shape[0] ** 2 * mat.itemsize)

    def polariton_mode(_args, result):
        tracer.count(f"qed_bloch.polariton.mode_{result[1]}")

    def sweep_points(_args, grid):
        tracer.count("qed_bloch.sweep.points", grid.axis_values.size * len(grid.k_labels))
        tracer.count("qed_bloch.sweep.points_failed", len(grid.failures))

    def with_timed_assembler(sweep):
        def sweep_timing_assembler(assembler, *args, **kwargs):
            return sweep(tracer.timed("sweep.busy", assembler), *args, **kwargs)

        return sweep_timing_assembler

    # `from .numerics import hermitian_eigvals` gives qed_bloch and cli their own
    # bindings, so the name is rebound in all three modules
    tracer.rebind((numerics, qed_bloch, cli), "hermitian_eigvals",
                  "numerics.hermitian_eigvals", matrix_bytes)
    tracer.rebind((numerics,), "hermiticity_residual", "numerics.hermiticity_residual")
    for name in ("fill_coupling", "displacement_block"):
        tracer.rebind((kernels,), name, f"kernels.{name}")
    for name in ("harper_matrix", "assemble_llb_matrix"):
        tracer.rebind((qed_bloch,), name, f"qed_bloch.{name}")
    tracer.rebind((qed_bloch,), "polariton_harper_eigvals",
                  "qed_bloch.polariton_harper_eigvals", polariton_mode)
    tracer.rebind((qed_bloch,), "sweep", "qed_bloch.sweep", sweep_points, with_timed_assembler)
    try:
        t0 = perf_counter()
        cfg = config.parse_config(text)
        parse_s = perf_counter() - t0
        cfg = dataclasses.replace(cfg, threads=threads)
        t0 = perf_counter()
        envelope = cli.run(cfg)
        run_s = perf_counter() - t0
        t0 = perf_counter()
        output.export(envelope, out_path, fmt)
        export_s = perf_counter() - t0
    finally:
        tracer.restore()

    metrics = {
        "import.s": import_s,
        "config.parse_config.s": parse_s,
        "numerics.hermiticity_residual.s": tracer.seconds["numerics.hermiticity_residual"],
        "numerics.matrix_bytes": tracer.counts["numerics.matrix_bytes"],
        "qed_bloch.assemble.self_s": (tracer.seconds["sweep.busy"]
                                      - tracer.seconds["numerics.hermitian_eigvals"]),
        "qed_bloch.polariton.mode_matrix": tracer.counts["qed_bloch.polariton.mode_matrix"],
        "qed_bloch.polariton.mode_reduced": tracer.counts["qed_bloch.polariton.mode_reduced"],
        "qed_bloch.sweep.s": tracer.seconds["qed_bloch.sweep"],
        "qed_bloch.sweep.points": tracer.counts["qed_bloch.sweep.points"],
        "qed_bloch.sweep.points_failed": tracer.counts["qed_bloch.sweep.points_failed"],
        "cli.rows.self_s": run_s - tracer.seconds["qed_bloch.sweep"],
        "output.export.s": export_s,
        "output.bytes": os.path.getsize(out_path),
    }
    for key in ("numerics.hermitian_eigvals", "qed_bloch.harper_matrix",
                "qed_bloch.assemble_llb_matrix", "qed_bloch.polariton_harper_eigvals",
                "kernels.fill_coupling", "kernels.displacement_block"):
        metrics[f"{key}.calls"] = tracer.calls[key]
        metrics[f"{key}.s"] = tracer.seconds[key]
    return metrics


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        result = setup(argv[1])
    elif len(argv) == 5 and argv[0] == "trace":
        result = trace(argv[1], argv[2], argv[3], int(argv[4]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
