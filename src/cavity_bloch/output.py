"""Result envelopes and exporters (CSV, JSON, SVG scatter).

Every emitted file names its units in the header; the CSV payload carries no
timestamp so identical runs produce byte-identical files.

The CSV and JSON text of a SpectrumPayload is written by as many processes
as its sweep ran on (parallel.process_count), each formatting a contiguous
range of axis values into its own sibling file, which are joined in axis
order; the bytes do not depend on that number.  SVG needs the extent of
every value before its first circle, and is written by one process.
"""

import contextlib
import datetime
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import CavityBlochError

SCHEMA_VERSION = "0.1.0"
SVG_WIDTH = 1200
SVG_HEIGHT = 900
#: stands in for a SpectrumPayload's rows until write_json splices them in
ROWS_SLOT = "\u0000rows\u0000"


@dataclass
class TablePayload:
    """Column-oriented payload: names like 'energy[eV]' with unit brackets."""

    columns: list
    rows: list
    kind: str = "table"

    def to_jsonable(self):
        return {"kind": self.kind, "columns": self.columns, "rows": self.rows}


@dataclass
class SpectrumPayload:
    """A sweep's spectra, as qed_bloch.sweep returns them, written as rows
    (axis value, k index, eigen index, value) in that order; a failed point
    writes no row.

    `eigenvalues[axis][k]` is the point's ascending array, empty when the
    point failed; `failures` holds one message per failed point and is
    reported by the CLI, never written.  `partners` holds one partner map
    per axis value: a point whose `partners[axis][k]` is another point holds
    that point's array object.
    """

    axis_values: np.ndarray
    eigenvalues: list
    partners: list
    k_labels: list = None
    failures: list = field(default_factory=list)
    columns: list = None
    kind: str = "spectrum"

    @property
    def points(self):
        """Number of (axis, k) points the sweep attempted."""
        return sum(len(per_axis) for per_axis in self.eigenvalues)

    def converted(self, convert, start=0, stop=None):
        """convert(eigenvalues) of every point of the axis values
        [start, stop), one list per axis value: a point that is its own
        partner is converted once, and every other point holds its partner's
        result (the same object)."""
        for per_axis, partners in zip(self.eigenvalues[start:stop], self.partners[start:stop]):
            results = []
            for k_idx, partner in enumerate(partners):
                results.append(convert(per_axis[k_idx]) if partner == k_idx else results[partner])
            yield results

    def blocks(self, convert=np.asarray, start=0, stop=None):
        """(axis value, k index, convert(eigenvalues as a float array)) of
        every point of the axis values [start, stop) that has any, in row
        order, converted as `converted` does."""
        rows = self.converted(lambda eigs: convert(np.asarray(eigs, dtype=float)), start, stop)
        for axis, per_axis, results in zip(self.axis_values[start:stop].tolist(),
                                           self.eigenvalues[start:stop], rows):
            for k_idx, (eigs, values) in enumerate(zip(per_axis, results)):
                if len(eigs):
                    yield axis, k_idx, values

    def rows_before(self):
        """Whether any point of the axis values before index i has a row, for
        i from 0 to the number of axis values."""
        flags = [False]
        for per_axis in self.eigenvalues:
            flags.append(flags[-1] or any(len(eigs) for eigs in per_axis))
        return flags

    def to_jsonable(self):
        """The payload with ROWS_SLOT for its rows, which write_json fills."""
        return {"kind": self.kind, "columns": self.columns, "rows": ROWS_SLOT}


@dataclass
class ScalarPayload:
    """Named scalar results; each key carries its unit in brackets."""

    values: dict
    kind: str = "scalars"

    def to_jsonable(self):
        return {"kind": self.kind, "values": self.values}


@dataclass
class ResultEnvelope:
    config_text: str
    command: str
    payload: object
    seed: int = 0
    produced_at: str = ""
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self):
        if not self.produced_at:
            self.produced_at = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def to_jsonable(self):
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "config_echo": self.config_text,
            "seed": self.seed,
            "produced_at": self.produced_at,
            "payload": self.payload.to_jsonable(),
        }


def _table_of(payload):
    if isinstance(payload, TablePayload):
        return payload
    if isinstance(payload, ScalarPayload):
        return TablePayload(
            columns=["quantity[name]", "value[mixed]"],
            rows=[[k, v] for k, v in payload.values.items()],
        )
    raise CavityBlochError(f"cannot tabulate payload of type {type(payload).__name__}")


def _format_cell(value):
    # float() first: numpy 2 spells the repr of its scalars np.float64(...)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _append(fd, path):
    """Append the file at `path` to the file open at `fd`, in the kernel."""
    with open(path, "rb") as segment:
        size = os.fstat(segment.fileno()).st_size
        offset = 0
        while offset < size:
            sent = os.sendfile(fd, segment.fileno(), offset, size - offset)
            if not sent:
                raise OSError(f"{path} ended at byte {offset} of {size}")
            offset += sent


#: paths that name a descriptor of the process that opens them
_STD_STREAMS = {"/dev/stdin": 0, "/dev/stdout": 1, "/dev/stderr": 2}


def _held_descriptor(path):
    """The descriptor of this process that `path` names (/dev/stdout,
    /dev/stderr, /dev/fd/N, /proc/self/fd/N), or None."""
    if path in _STD_STREAMS:
        return _STD_STREAMS[path]
    for prefix in ("/dev/fd/", "/proc/self/fd/"):
        if path.startswith(prefix) and path[len(prefix):].isdecimal():
            return int(path[len(prefix):])
    return None


def _write_chunks(path, chunks, label, items=1):
    """Write the text chunks(0, items) to `path` as UTF-8, line ends
    untranslated, one chunk at a time; returns the path.  chunks(start, stop)
    gives the text of the items [start, stop), and the texts of contiguous
    ranges joined in order are the text of their union.

    The text goes to a sibling file named after this process's id, created
    exclusively, which then replaces the file at `path` (through any
    symlink) in one step.  The items are split into P contiguous ranges of
    equal count, P as parallel.process_count gives it: this process writes
    range 0 to that file and a forked child writes each other range r to
    its own sibling `<that file>.<r>`, created exclusively, which this
    process appends in order before the replacement; the bytes do not
    depend on P (parallel.split).  If writing fails, or the chunks raise
    anywhere, every child is reaped, those files are removed and any
    earlier file at `path` is left as it was.  A path that names a
    descriptor this process holds (/dev/stdout, /dev/fd/N, ...) is written
    through that descriptor, so a shell's `>>` appends and its `>` writes at
    the shell's offset; a path that exists but is no regular file, such as a
    pipe, cannot be replaced and is written in place.  Both are written by
    this process alone.  An empty path is refused before any file is
    touched."""
    if not os.fspath(path):
        raise CavityBlochError(f"cannot write {label} to an empty path")
    try:
        held = _held_descriptor(os.fspath(path))
        if held is not None or (os.path.exists(path) and not os.path.isfile(path)):
            fd = os.open(path, os.O_WRONLY) if held is None else os.dup(held)
            with open(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks(0, items))
            return path
        target = os.path.realpath(path)
        partial = f"{target}.{os.getpid()}.partial"
        procs = parallel.process_count(items)
        files = [partial] + [f"{partial}.{share}" for share in range(1, procs)]

        def write_share(share, procs):
            fd = os.open(files[share], os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with open(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks(share * items // procs, (share + 1) * items // procs))
            return {share: None}

        def lost(share, procs, how):
            return CavityBlochError(f"the process writing range {share} of {procs} of the "
                                    f"{label} ended without finishing it ({how})")

        try:
            shares = parallel.split(write_share, procs, lost)
            with open(partial, "r+b") as joined:
                joined.seek(0, os.SEEK_END)  # sendfile refuses a target opened to append
                for share in range(1, len(shares)):
                    _append(joined.fileno(), files[share])
            os.replace(partial, target)
        finally:
            for name in files:  # the partial file is gone once it replaced the target
                with contextlib.suppress(OSError):
                    os.unlink(name)
    except OSError as exc:
        raise CavityBlochError(f"cannot write {label} to {path}: {exc}") from exc
    return path


def _csv_lines(eigs):
    """The "eig_index,value" texts of a point's CSV rows."""
    return [f"{e_idx},{value!r}" for e_idx, value in enumerate(eigs.tolist())]


def _csv_blocks(payload, start, stop):
    """The CSV text of a SpectrumPayload's axis values [start, stop), one
    chunk per point, after its header line if start is 0."""
    if start == 0:
        yield ",".join(payload.columns) + "\n"
    for axis, k_idx, lines in payload.blocks(_csv_lines, start, stop):
        prefix = f"{axis!r},{k_idx},"
        yield prefix + f"\n{prefix}".join(lines) + "\n"


def _csv_table(payload):
    """The CSV text of a table or scalar payload: its header line, then one
    chunk per row."""
    table = _table_of(payload)
    yield ",".join(table.columns) + "\n"
    for row in table.rows:
        yield ",".join(_format_cell(v) for v in row) + "\n"


def write_csv(envelope, path):
    """Deterministic CSV: header row with units, one row per record."""
    payload = envelope.payload
    if isinstance(payload, SpectrumPayload):
        return _write_chunks(path, lambda start, stop: _csv_blocks(payload, start, stop), "CSV",
                             len(payload.axis_values))
    return _write_chunks(path, lambda *_: _csv_table(payload), "CSV")


def _json_rows(payload, depth, start, stop, rows_before):
    """The rows of a SpectrumPayload's axis values [start, stop) as JSON
    text, one chunk per point, laid out as json.dumps(indent=1) lays out a
    list that opens on a line indented by `depth` spaces.  The list opens
    at the first row, so with a row before `start` (rows_before[start],
    from payload.rows_before()) the text continues it; the last axis value
    closes it."""
    row, cell = "\n" + " " * (depth + 1), "\n" + " " * (depth + 2)

    def entries(eigs):
        """Each row's text after its k index: eigen index, value, closing bracket."""
        # json spells non-finite floats NaN/Infinity where repr gives nan/inf
        values = eigs.tolist()
        texts = map(repr, values) if np.isfinite(eigs).all() else map(json.dumps, values)
        return [f"{e_idx},{cell}{text}{row}]" for e_idx, text in enumerate(texts)]

    opening = f",{row}" if rows_before[start] else f"[{row}"
    for axis, k_idx, texts in payload.blocks(entries, start, stop):
        prefix = f"[{cell}{json.dumps(axis)},{cell}{k_idx},{cell}"
        yield opening + prefix + f",{row}{prefix}".join(texts)
        opening = f",{row}"
    if stop == len(payload.axis_values):
        yield "\n" + " " * depth + "]" if rows_before[stop] else "[]"


def write_json(envelope, path):
    """The envelope as json.dumps(indent=1, sort_keys=True) lays it out; a
    SpectrumPayload's rows stream in chunks between the text before and
    after ROWS_SLOT."""
    text = json.dumps(envelope.to_jsonable(), indent=1, sort_keys=True) + "\n"
    payload = envelope.payload
    if not isinstance(payload, SpectrumPayload):
        return _write_chunks(path, lambda *_: [text], "JSON")
    head, _, tail = text.rpartition(json.dumps(ROWS_SLOT))
    line = head[head.rfind("\n") + 1:]
    depth = len(line) - len(line.lstrip(" "))
    rows_before = payload.rows_before()

    def chunks(start, stop):
        if start == 0:
            yield head
        yield from _json_rows(payload, depth, start, stop, rows_before)
        if stop == len(payload.axis_values):
            yield tail

    return _write_chunks(path, chunks, "JSON", len(payload.axis_values))


def _scatter_points(payload):
    """(x label, y label, x, y) of the scatter plot of a payload: the first
    column against the last."""
    if isinstance(payload, SpectrumPayload):
        blocks = list(payload.blocks())
        if not blocks:
            raise CavityBlochError("nothing to plot")
        x = np.repeat([axis for axis, _, _ in blocks], [eigs.size for _, _, eigs in blocks])
        y = np.concatenate([eigs for _, _, eigs in blocks])
        return payload.columns[0], payload.columns[-1], x, y
    if not isinstance(payload, TablePayload):
        raise CavityBlochError(f"cannot plot payload of type {type(payload).__name__}")
    try:
        x = np.array([row[0] for row in payload.rows], dtype=float)
        y = np.array([row[-1] for row in payload.rows], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CavityBlochError(
            f"scatter export needs numeric first and last columns: {exc}") from exc
    return payload.columns[0], payload.columns[-1], x, y


def _plotted(y, window):
    """Mask of the values of y that a scatter plot shows at a finite x: the
    finite ones inside the plot window (lo, hi), either end None for no
    bound; every finite one when window is None."""
    keep = np.isfinite(y)
    if window is not None:
        lo, hi = window
        if lo is not None:
            keep &= y >= lo
        if hi is not None:
            keep &= y <= hi
    return keep


def _svg_ys(eigs, window, to_y):
    """The cy texts of a spectrum point's plotted values, mapped by to_y."""
    return [f"{v:.2f}" for v in to_y(eigs[_plotted(eigs, window)]).tolist()]


def _svg_circles(payload, window, to_x, to_y):
    """The circle texts of a spectrum's scatter plot, one chunk per point.
    Each point's values are formatted as `blocks` converts them, once per
    axis value for partner points, and joined around its axis value's x."""
    end = '" r="1" fill="black"/>\n'
    for axis, _, texts in payload.blocks(lambda eigs: _svg_ys(eigs, window, to_y)):
        if texts and math.isfinite(axis):
            start = f'<circle cx="{to_x(axis):.2f}" cy="'
            yield start + f"{end}{start}".join(texts) + end


def write_svg_scatter(envelope, path, window=None):
    """Fixed-canvas (1200x900) point-cloud SVG with unit-labelled axes.

    `window` optionally restricts the plotted y range (full data always lives
    in the CSV/JSON exports, never here).  A point is plotted where x and y
    are finite and y is inside the window, and the axis ends are those of
    the plotted points; a result with none fails.
    """
    x_label, y_label, x, y = _scatter_points(envelope.payload)
    keep = np.isfinite(x) & _plotted(y, window)
    if not keep.any():
        finite = np.isfinite(x) & np.isfinite(y)
        raise CavityBlochError("plot window excludes every point" if finite.any()
                               else "nothing to plot")
    x, y = x[keep], y[keep]
    pad = 60
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xspan = x1 - x0 or 1.0
    yspan = y1 - y0 or 1.0

    def to_x(v):
        return pad + (v - x0) / xspan * (SVG_WIDTH - 2 * pad)

    def to_y(v):
        return SVG_HEIGHT - pad - (v - y0) / yspan * (SVG_HEIGHT - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH // 2}" y="{SVG_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="16">{x_label}</text>',
        f'<text x="20" y="{SVG_HEIGHT // 2}" text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 20 {SVG_HEIGHT // 2})">{y_label}</text>',
        f'<line x1="{pad}" y1="{SVG_HEIGHT - pad}" x2="{SVG_WIDTH - pad}" '
        f'y2="{SVG_HEIGHT - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{SVG_HEIGHT - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{SVG_HEIGHT - pad + 20}" font-size="12">{x0:.6g}</text>',
        f'<text x="{SVG_WIDTH - pad}" y="{SVG_HEIGHT - pad + 20}" text-anchor="end" '
        f'font-size="12">{x1:.6g}</text>',
        f'<text x="{pad - 5}" y="{SVG_HEIGHT - pad}" text-anchor="end" '
        f'font-size="12">{y0:.6g}</text>',
        f'<text x="{pad - 5}" y="{pad + 5}" text-anchor="end" font-size="12">{y1:.6g}</text>',
    ]
    if isinstance(envelope.payload, SpectrumPayload):
        circles = _svg_circles(envelope.payload, window, to_x, to_y)
    else:
        circles = (f'<circle cx="{a:.2f}" cy="{b:.2f}" r="1" fill="black"/>\n'
                   for a, b in zip(to_x(x).tolist(), to_y(y).tolist()))
    chunks = itertools.chain(["\n".join(parts) + "\n"], circles, ["</svg>\n"])
    return _write_chunks(path, lambda *_: chunks, "SVG")


def export(envelope, path, fmt, window=None):
    """Write the envelope in one of the supported formats; returns the path."""
    if fmt == "csv":
        return write_csv(envelope, path)
    if fmt == "json":
        return write_json(envelope, path)
    if fmt == "svg-scatter":
        return write_svg_scatter(envelope, path, window=window)
    raise CavityBlochError(f"unknown export format {fmt!r}")
