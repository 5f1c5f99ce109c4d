"""Spectrum exporters against the row-by-row writers they replaced.

The CSV, JSON and SVG writers format a SpectrumPayload one (axis, k) block at
a time.  The references below build one Python list per row and format it one
cell at a time, as the exporters did before; every file must match them byte
for byte.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import signal
import threading

import numpy as np
import pytest

from cavity_bloch import cli, output, parallel
from cavity_bloch.config import parse_config
from cavity_bloch.errors import CavityBlochError

COLUMNS = ["flux_ratio[1]", "k_index[1]", "eig_index[1]", "energy[eV]"]

BUTTERFLY_CONFIG = """
[run]
command = butterfly

[lattice]
kind = square
a1_angstrom = 2.0
a2_angstrom = 2.0
v0_ev = 3.0

[sweep]
flux_min = 0.05
flux_max = 1.9
points = 7
scaling = harper-scaled

[truncation]
n_max = 6

[kgrid]
kx_points = 3

[output]
path = out.csv
format = csv
"""


RAW_JOULES_CONFIG = (BUTTERFLY_CONFIG.replace("scaling = harper-scaled", "scaling = raw-joules")
                     .replace("n_max = 6", "n_max = 4\nj_max = 1"))

POLARITON_KW2_CONFIG = """
[run]
command = polariton-butterfly

[lattice]
kind = square
a1_angstrom = 2.0
a2_angstrom = 2.0
v0_ev = 3.0

[sweep]
flux_ratio = 1.0
g_min = 0.0
g_max = 2.0
points = 5

[truncation]
n_max = 4

[kgrid]
kx_points = 3
kw_points = 2

[output]
path = out.csv
format = csv
"""


def with_processes(monkeypatch, processes):
    """Split sweeps and exports across `processes` processes (at most one per
    axis value), whatever the CPU and BLAS thread counts."""
    monkeypatch.setattr(parallel, "_available_cpus", lambda: processes)
    monkeypatch.setattr(parallel, "_blas_threads", lambda: 1)


def reference_rows(payload):
    """[axis value, k index, eigen index, value] per eigenvalue; a failed
    point (empty array) has no row."""
    return [
        [float(axis), k_idx, e_idx, float(value)]
        for axis, per_axis in zip(payload.axis_values, payload.eigenvalues)
        for k_idx, eigs in enumerate(per_axis)
        for e_idx, value in enumerate(eigs)
    ]


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv(payload):
    lines = [",".join(payload.columns)]
    for row in reference_rows(payload):
        lines.append(",".join(_format_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def reference_json(envelope):
    table = output.TablePayload(columns=envelope.payload.columns,
                                rows=reference_rows(envelope.payload), kind="spectrum")
    handle = io.StringIO()
    json.dump(dataclasses.replace(envelope, payload=table).to_jsonable(), handle,
              indent=1, sort_keys=True)
    handle.write("\n")
    return handle.getvalue().encode()


def reference_svg(payload, window=None):
    """The scatter plot of the rows whose x and y are finite and whose y is
    inside the window, its axis ends those of the plotted rows."""
    lo, hi = window or (None, None)
    rows = [(row[0], row[3]) for row in reference_rows(payload)
            if math.isfinite(row[0]) and math.isfinite(row[3])
            and (lo is None or row[3] >= lo) and (hi is None or row[3] <= hi)]
    if not rows:
        raise CavityBlochError("nothing to plot")
    x = np.array([row[0] for row in rows], dtype=float)
    y = np.array([row[1] for row in rows], dtype=float)
    width, height, pad = output.SVG_WIDTH, output.SVG_HEIGHT, 60
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xspan = x1 - x0 or 1.0
    yspan = y1 - y0 or 1.0

    def sx(v):
        return pad + (v - x0) / xspan * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / yspan * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="16">{payload.columns[0]}</text>',
        f'<text x="20" y="{height // 2}" text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 20 {height // 2})">{payload.columns[3]}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 20}" font-size="12">{x0:.6g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" '
        f'font-size="12">{x1:.6g}</text>',
        f'<text x="{pad - 5}" y="{height - pad}" text-anchor="end" '
        f'font-size="12">{y0:.6g}</text>',
        f'<text x="{pad - 5}" y="{pad + 5}" text-anchor="end" font-size="12">{y1:.6g}</text>',
    ]
    for xi, yi in zip(x, y):
        parts.append(f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="1" fill="black"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def identity_maps(eigenvalues):
    """Partner maps that make every point its own partner."""
    return [list(range(len(per_axis))) for per_axis in eigenvalues]


def spectrum_envelope(axis_values, eigenvalues):
    payload = output.SpectrumPayload(
        columns=COLUMNS, axis_values=np.asarray(axis_values, dtype=float),
        eigenvalues=[[np.asarray(e, dtype=float) for e in per_axis] for per_axis in eigenvalues],
        partners=identity_maps(eigenvalues),
    )
    return output.ResultEnvelope(config_text="[run]\ncommand = butterfly\n",
                                 command="butterfly", payload=payload)


def written(writer, envelope, path, **kwargs):
    writer(envelope, path, **kwargs)
    return path.read_bytes()


def assert_matches_reference(envelope, tmp_path, window=None):
    payload = envelope.payload
    assert written(output.write_csv, envelope, tmp_path / "s.csv") == reference_csv(payload)
    assert written(output.write_json, envelope, tmp_path / "s.json") == reference_json(envelope)
    assert (written(output.write_svg_scatter, envelope, tmp_path / "s.svg", window=window)
            == reference_svg(payload, window))


#: ragged band counts, a failed point in the middle of an axis row and of a
#: k column, and values whose repr needs care
SPECTRA = {
    "failed-point-ragged": (
        [0.1, 0.25, 1.0],
        [[[-1.5, 0.0, 2.0], [], [-3.0, 4.0]],
         [[1.0], [-0.5, 0.5, 1.5, 2.5], [0.75]],
         [[], [-2.0, -1.0], [3.0, 3.5, 4.0]]],
    ),
    "special-values": (
        [1e-12, 2.0],
        [[[-2.5e20, -0.0, 1e-300, 0.1]], [[-0.0, 0.0, 1.0000000000000002, 5e-324]]],
    ),
    "non-finite": (
        [0.5, 1.5],
        [[[-1.0, float("nan")]], [[float("-inf"), 1.0, float("inf")]]],
    ),
    "single-value": ([0.3], [[[7.0]]]),
}


#: axis values whose points all failed: first, so that a later range opens
#: the JSON rows, and last, so that the last ranges write no row
SPLIT_SPECTRA = {
    "first-axis-values-failed": (
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        [[[], []], [[], []], [[], []], [[], []], [[1.0], [2.0, 3.0]], [[], [-1.0]],
         [[0.5], []]],
    ),
    "last-axis-values-failed": (
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        [[[1.0], [2.0]], [[-1.0], []], [[3.0], [4.0, 5.0]], [[], [6.0]], [[], []], [[], []],
         [[], []]],
    ),
    "every-point-failed": ([0.1, 0.2, 0.3], [[[], []], [[], []], [[], []]]),
}


class TestSpectrumWriters:
    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_byte_identical_to_row_reference(self, name, tmp_path):
        assert_matches_reference(spectrum_envelope(*SPECTRA[name]), tmp_path)

    def test_windowed_svg(self, tmp_path):
        env = spectrum_envelope(*SPECTRA["failed-point-ragged"])
        assert_matches_reference(env, tmp_path, window=(-1.0, 2.0))

    def test_all_failed_sweep(self, tmp_path):
        env = spectrum_envelope([0.1, 0.2], [[[], []], [[], []]])
        csv = written(output.write_csv, env, tmp_path / "s.csv")
        assert csv == reference_csv(env.payload) == (",".join(COLUMNS) + "\n").encode()
        text = written(output.write_json, env, tmp_path / "s.json")
        assert text == reference_json(env)
        assert b'"rows": []' in text
        with pytest.raises(CavityBlochError, match="nothing to plot"):
            output.write_svg_scatter(env, tmp_path / "s.svg")

    #: two spectra and a failed point (empty), each held by two points per
    #: axis value, as C2 partners hold them
    SHARED_A, SHARED_B = np.array([-1.5, 0.25, 2.0]), np.array([-0.5, 1.0 / 3.0])

    def shared_layouts(self):
        a, b, failed = self.SHARED_A, self.SHARED_B, np.empty(0)
        shared = [[a, b, b, a], [b, a, a, b], [failed, b, b, failed]]
        alone = identity_maps(shared)
        return {
            "partners": (shared, [[0, 1, 1, 0]] * 3),
            "shared": (shared, alone),
            "copies": ([[e.copy() for e in per_axis] for per_axis in shared], alone),
            "lists": ([[e.tolist() for e in per_axis] for per_axis in shared], alone),
        }

    def shared_envelope(self, layout):
        env = spectrum_envelope([0.1, 0.2, 0.4], [[self.SHARED_A]])
        env.payload.eigenvalues, env.payload.partners = layout
        env.produced_at = "2000-01-01T00:00:00+00:00"
        return env

    def test_shared_arrays_write_the_bytes_of_copies_and_lists(self, tmp_path):
        # C2 partner points hold one array object, which the writers format
        # once per axis value when the partner map names the sharing; shared
        # objects under identity maps, equal copies and plain lists must give the
        # same bytes
        files = {}
        for name, layout in self.shared_layouts().items():
            env = self.shared_envelope(layout)
            files[name] = (written(output.write_csv, env, tmp_path / "s.csv"),
                           written(output.write_json, env, tmp_path / "s.json"),
                           written(output.write_svg_scatter, env, tmp_path / "s.svg"),
                           written(output.write_svg_scatter, env, tmp_path / "w.svg",
                                   window=(-1.0, 1.0)))
        assert files["partners"] == files["shared"] == files["copies"] == files["lists"]
        assert files["shared"] == (reference_csv(env.payload), reference_json(env),
                                   reference_svg(env.payload),
                                   reference_svg(env.payload, (-1.0, 1.0)))

    @pytest.mark.parametrize("writer, formatter, window", [
        (output.write_csv, "_csv_lines", None),
        (output.write_svg_scatter, "_svg_ys", None),
        (output.write_svg_scatter, "_svg_ys", (-1.0, 1.0)),
    ])
    def test_partner_map_formats_each_array_once_per_axis_value(self, tmp_path, monkeypatch,
                                                                 call_log, writer, formatter,
                                                                 window):
        # with the partner map, each of the two solved points per axis value
        # is formatted once; under identity maps, every point is.  The log
        # sees the points formatted in the processes writing the CSV's ranges
        original = getattr(output, formatter)
        monkeypatch.setattr(output, formatter,
                            lambda eigs, *args: call_log.append(eigs.size) or original(eigs, *args))
        kwargs = {} if window is None else {"window": window}
        layouts = self.shared_layouts()
        writer(self.shared_envelope(layouts["partners"]), tmp_path / "out", **kwargs)
        assert len(call_log.entries()) == 3 * 2
        call_log.path.unlink()
        writer(self.shared_envelope(layouts["shared"]), tmp_path / "out", **kwargs)
        assert len(call_log.entries()) == 3 * 4

    def test_cli_spectra_at_one_and_two_threads(self, tmp_path):
        outputs = []
        cfg = parse_config(BUTTERFLY_CONFIG)
        for threads in (1, 2):
            env = cli.run(dataclasses.replace(cfg, threads=threads))
            env.produced_at = "2000-01-01T00:00:00+00:00"
            assert_matches_reference(env, tmp_path)
            outputs.append([written(output.write_csv, env, tmp_path / "c.csv"),
                            written(output.write_json, env, tmp_path / "c.json"),
                            written(output.write_svg_scatter, env, tmp_path / "c.svg")])
        assert outputs[0] == outputs[1]


#: what a writer raises when the process writing range 1 of 2 fails
CHILD_FAILURES = {
    "segment-exists": r"cannot write {label} to .*File exists",
    "formatter-raises": r"synthetic failure in a child",
    "killed": r"the process writing range 1 of 2 of the {label} ended without finishing it "
              r"\(killed by signal 9\)",
}


def fail_in_child(monkeypatch, target, failure):
    """Make the forked process writing range 1 of 2 of `target` fail: its
    file already exists, or its formatting raises, or it is killed."""
    parent = os.getpid()
    if failure == "segment-exists":
        target.with_name(f"{target.name}.{parent}.partial.1").write_bytes(b"stale\n")
        return
    blocks = output.SpectrumPayload.blocks

    def failing(self, *args, **kwargs):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise CavityBlochError("synthetic failure in a child")
        yield from blocks(self, *args, **kwargs)

    monkeypatch.setattr(output.SpectrumPayload, "blocks", failing)


class TestSplitWriters:
    """CSV and JSON written by P processes, each formatting a contiguous range
    of axis values into its own file, are the bytes one process writes."""

    def split_files(self, monkeypatch, tmp_path, call_log, env):
        """The (CSV, JSON) bytes of env written by 1, 2, 3 and more processes
        than axis values (one per axis value); checks that the CSV's ranges
        were formatted in as many processes."""
        original = output._csv_lines
        monkeypatch.setattr(output, "_csv_lines",
                            lambda eigs: call_log.append(os.getpid()) or original(eigs))
        count = len(env.payload.axis_values)
        files = []
        for processes in (1, 2, 3, count + 2):
            with_processes(monkeypatch, processes)
            files.append((written(output.write_csv, env, tmp_path / "s.csv"),
                          written(output.write_json, env, tmp_path / "s.json")))
            assert len(set(call_log.entries())) == min(processes, count)
            call_log.path.unlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.json"]
        return files

    @pytest.mark.parametrize("text", [
        BUTTERFLY_CONFIG,
        RAW_JOULES_CONFIG,
        RAW_JOULES_CONFIG.replace("kind = square", "kind = oblique")
        .replace("a2_angstrom = 2.0", "a2_angstrom = 2.3\ntheta_deg = 75"),
        POLARITON_KW2_CONFIG,
    ], ids=["harper-scaled", "raw-joules-square", "raw-joules-oblique", "polariton-kw2"])
    def test_cli_spectra(self, tmp_path, monkeypatch, call_log, text):
        env = cli.run(parse_config(text))
        env.produced_at = "2000-01-01T00:00:00+00:00"
        files = self.split_files(monkeypatch, tmp_path, call_log, env)
        assert files == [(reference_csv(env.payload), reference_json(env))] * 4

    @pytest.mark.parametrize("name", sorted(SPLIT_SPECTRA))
    def test_failed_axis_values(self, tmp_path, monkeypatch, call_log, name):
        env = spectrum_envelope(*SPLIT_SPECTRA[name])
        files = self.split_files(monkeypatch, tmp_path, call_log, env)
        assert files == [(reference_csv(env.payload), reference_json(env))] * 4

    @pytest.mark.parametrize("writer, label", [(output.write_csv, "CSV"),
                                               (output.write_json, "JSON")])
    @pytest.mark.parametrize("failure", ["segment-exists", "formatter-raises", "killed"])
    def test_failure_in_a_child_keeps_the_earlier_file(self, tmp_path, monkeypatch, writer,
                                                         label, failure):
        with_processes(monkeypatch, 2)
        env = spectrum_envelope(*SPECTRA["failed-point-ragged"])
        target = tmp_path / "out"
        target.write_bytes(b"earlier run\n")
        fail_in_child(monkeypatch, target, failure)
        with pytest.raises(CavityBlochError, match=CHILD_FAILURES[failure].format(label=label)):
            writer(env, target)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert target.read_bytes() == b"earlier run\n"

    @pytest.mark.parametrize("failure", ["segment-exists", "formatter-raises"])
    def test_failure_in_a_child_is_an_output_failure(self, tmp_path, monkeypatch, capsys,
                                                      failure):
        with_processes(monkeypatch, 2)
        target = tmp_path / "out.csv"
        target.write_bytes(b"earlier run\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(BUTTERFLY_CONFIG.replace("path = out.csv", f"path = {target}"))
        fail_in_child(monkeypatch, target, failure)
        assert cli.main(["butterfly", "--config", str(cfg)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("output failure: ")
        assert re.search(CHILD_FAILURES[failure].format(label="CSV"), err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.ini"]
        assert target.read_bytes() == b"earlier run\n"


class TestAtomicWriters:
    """Each writer streams its text to a sibling file that replaces the
    target only once the text is complete."""

    @pytest.mark.parametrize("writer", [output.write_csv, output.write_json])
    def test_failure_after_the_first_block_keeps_the_earlier_file(self, tmp_path, monkeypatch,
                                                                   writer):
        # one process, so that no segment of another range is being written
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        env = spectrum_envelope(*SPECTRA["failed-point-ragged"])
        target = tmp_path / "out"
        target.write_bytes(b"earlier run\n")
        seen = []  # the directory while the writer is between blocks

        def first_block_written():
            seen.extend(p.name for p in tmp_path.iterdir())
            return RuntimeError("synthetic")

        blocks = output.SpectrumPayload.blocks

        def failing(self, *args, **kwargs):
            for count, block in enumerate(blocks(self, *args, **kwargs)):
                if count:
                    raise first_block_written()
                yield block

        monkeypatch.setattr(output.SpectrumPayload, "blocks", failing)
        with pytest.raises(RuntimeError, match="synthetic"):
            writer(env, target)
        assert sorted(seen) == ["out", f"out.{os.getpid()}.partial"]
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert target.read_bytes() == b"earlier run\n"

    def test_unwritable_target_is_an_export_error(self, tmp_path):
        # the target is a directory
        env = spectrum_envelope(*SPECTRA["single-value"])
        (tmp_path / "out").mkdir()
        with pytest.raises(CavityBlochError, match="cannot write CSV"):
            output.write_csv(env, tmp_path / "out")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("writer, label", [(output.write_csv, "CSV"),
                                               (output.write_json, "JSON"),
                                               (output.write_svg_scatter, "SVG")])
    def test_empty_path_is_refused_before_any_file_is_made(self, tmp_path, monkeypatch,
                                                           writer, label):
        # "" would name a partial file beside the working directory
        env = spectrum_envelope(*SPECTRA["failed-point-ragged"])
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(CavityBlochError, match=f"cannot write {label} to an empty path"):
            writer(env, "")
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert list(work.iterdir()) == []

    def test_symlink_is_written_through(self, tmp_path):
        env = spectrum_envelope(*SPECTRA["single-value"])
        (tmp_path / "data.csv").write_text("earlier run\n")
        (tmp_path / "link.csv").symlink_to("data.csv")
        output.write_csv(env, tmp_path / "link.csv")
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "data.csv").read_bytes() == reference_csv(env.payload)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "link.csv"]

    def test_pipe_is_written_in_place(self, tmp_path, monkeypatch):
        # a pipe (as /dev/stdout may be) cannot be replaced by a file, and is
        # written by one process whatever the split
        with_processes(monkeypatch, 2)
        env = spectrum_envelope(*SPECTRA["failed-point-ragged"])
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            output.write_csv(env, fifo)
        finally:
            if not received:  # unblock the reader if the writer never opened the pipe
                with contextlib.suppress(OSError):
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert received == [reference_csv(env.payload)]
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    @pytest.mark.parametrize("name", ["/dev/fd/{}", "/proc/self/fd/{}"])
    def test_held_descriptor_is_written_through(self, tmp_path, monkeypatch, name):
        # a path naming a descriptor of this process writes through it, by
        # one process whatever the split: a file opened to append keeps its
        # text, gets no partial sibling and is not replaced
        with_processes(monkeypatch, 2)
        env = spectrum_envelope(*SPECTRA["failed-point-ragged"])
        log = tmp_path / "log"
        log.write_bytes(b"earlier\n")
        with open(log, "ab") as stream:
            inode = os.fstat(stream.fileno()).st_ino
            output.write_csv(env, name.format(stream.fileno()))
            stream.write(b"later\n")
        assert log.read_bytes() == b"earlier\n" + reference_csv(env.payload) + b"later\n"
        assert os.stat(log).st_ino == inode
        assert [p.name for p in tmp_path.iterdir()] == ["log"]

    @pytest.mark.parametrize("path, fd", [
        ("/dev/stdin", 0), ("/dev/stdout", 1), ("/dev/stderr", 2), ("/dev/fd/7", 7),
        ("/proc/self/fd/12", 12), ("/dev/fd/x", None), ("/dev/fd/", None),
        ("/proc/1/fd/1", None), ("dev/stdout", None), ("/dev/null", None),
    ])
    def test_held_descriptor_names(self, path, fd):
        assert output._held_descriptor(path) == fd

    @pytest.mark.parametrize("writer", [output.write_csv, output.write_json,
                                        output.write_svg_scatter])
    def test_success_replaces_the_earlier_file(self, tmp_path, writer):
        env = spectrum_envelope(*SPECTRA["failed-point-ragged"])
        target = tmp_path / "out"
        target.write_bytes(b"earlier run\n" * 1000)
        fresh = written(writer, env, tmp_path / "fresh")
        assert written(writer, env, target) == fresh
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]


class TestScatterPoints:
    def test_table_plots_first_column_against_last(self, tmp_path):
        rows = [[1.0, "a", 5.0], [2.0, "b", 7.0]]
        payload = output.TablePayload(columns=["x[1]", "label[name]", "y[1]"], rows=rows)
        x_label, y_label, x, y = output._scatter_points(payload)
        assert (x_label, y_label) == ("x[1]", "y[1]")
        assert x.tolist() == [1.0, 2.0] and y.tolist() == [5.0, 7.0]

    def test_scalars_cannot_be_plotted(self, tmp_path):
        env = output.ResultEnvelope(config_text="cfg", command="gas",
                                    payload=output.ScalarPayload(values={"a[1]": 1.0}))
        with pytest.raises(CavityBlochError, match="cannot plot payload of type ScalarPayload"):
            output.write_svg_scatter(env, tmp_path / "s.svg")
        assert not (tmp_path / "s.svg").exists()

    @staticmethod
    def table_envelope(rows):
        payload = output.TablePayload(columns=["x[1]", "y[1]"], rows=rows)
        return output.ResultEnvelope(config_text="cfg", command="conductivity", payload=payload)

    def test_axis_ends_are_those_of_the_plotted_points(self, tmp_path):
        # a row with a non-finite x or y is neither plotted nor an axis end
        finite = [[1.0, 5.0], [2.0, -3.0], [4.0, 7.0]]
        rows = finite + [[3.0, math.inf], [math.nan, 9.0], [-math.inf, 0.0], [5.0, math.nan]]
        text = written(output.write_svg_scatter, self.table_envelope(rows), tmp_path / "a.svg")
        assert text == written(output.write_svg_scatter, self.table_envelope(finite),
                               tmp_path / "b.svg")
        labels = re.findall(rb'font-size="12">([^<]*)</text>', text)
        assert labels == [b"1", b"4", b"-3", b"7"]
        assert text.count(b"<circle") == 3

    @pytest.mark.parametrize("rows", [[], [[1.0, math.inf], [2.0, math.nan], [math.nan, 1.0]]],
                             ids=["no-rows", "no-finite-point"])
    def test_table_with_nothing_to_plot_is_an_export_error(self, tmp_path, rows):
        with pytest.raises(CavityBlochError, match="^nothing to plot$"):
            output.write_svg_scatter(self.table_envelope(rows), tmp_path / "s.svg")
        assert not (tmp_path / "s.svg").exists()

    def test_window_that_excludes_every_finite_point(self, tmp_path):
        env = self.table_envelope([[1.0, 5.0], [2.0, math.nan], [3.0, 9.0]])
        with pytest.raises(CavityBlochError, match="^plot window excludes every point$"):
            output.write_svg_scatter(env, tmp_path / "s.svg", window=(6.0, 8.0))
        assert not (tmp_path / "s.svg").exists()

    def test_non_numeric_table_is_an_export_error(self, tmp_path):
        payload = output.TablePayload(columns=["name[name]", "value[1]"], rows=[["a", 1.0]])
        env = output.ResultEnvelope(config_text="cfg", command="landau", payload=payload)
        with pytest.raises(CavityBlochError, match="numeric first and last columns"):
            output.write_svg_scatter(env, tmp_path / "s.svg")

