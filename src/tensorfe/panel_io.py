"""Long-format CSV ingestion and export for multidimensional panels.

A panel CSV has one row per cell: ``d`` index columns, one outcome column,
and one column per regressor.  Index labels are arbitrary strings; each
dimension's labels are taken in order of first appearance, and the file must
contain every label combination exactly once (a complete grid).  Floats are
written back with full precision, so an export/reload roundtrip reproduces
the tensors bit for bit.

Parse rules of ``load_panel_csv``:

* fields are separated by ``,`` and may be quoted with ``"`` (a doubled
  ``""`` inside quotes is a literal quote); labels keep surrounding spaces;
* there is no comment character, so a label such as ``#3`` is data;
* an empty line is skipped; any other row needs at least as many fields as
  the header;
* values follow numpy's float grammar (``1.5``, ``-2e-3``, `` 4 ``), which
  unlike Python's ``float`` rejects digit separators such as ``1_000``;
  ``inf`` and ``nan`` parse but are rejected as non-finite;
* the file is text in the locale's encoding, read with universal newlines:
  a line ends at ``\n``, ``\r\n`` or ``\r``, and a line break inside a
  quoted label reads as ``\n`` whatever the file's line endings; a file that
  does not decode (a compressed file, say) is rejected.

The columns are parsed by one ``numpy.loadtxt`` pass over the file's path,
which numpy reads in large blocks, coding the labels as it reads them.  Only
when that parse or the grid check finds a fault is the file read again row
by row, to name the offending row, cell or labels.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import PanelFormatError
from .tensor_ops import as_tensor

_MAX_REPORTED = 10
_GRAMMAR = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
# suffixes that numpy's file opener decompresses; it also fetches a name with a scheme (``a://b``)
_OPENER_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


@dataclass
class PanelFrame:
    """Index metadata for a densified panel."""

    dim_names: tuple[str, ...]
    dim_labels: list[list[str]]
    y_name: str
    x_names: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(labels) for labels in self.dim_labels)


def load_panel_csv(path, index_cols, y_col: str, x_cols) -> tuple[PanelFrame, np.ndarray, list[np.ndarray]]:
    """Densify a long-format panel CSV into tensors.

    Parameters
    ----------
    path : str, bytes or path-like
        CSV file with a header row.
    index_cols : sequence of str
        Names of the index columns, in dimension order.
    y_col : str
        Name of the outcome column.
    x_cols : sequence of str
        Names of the regressor columns (at least one).

    Raises
    ------
    PanelFormatError
        On a file that does not decode in the locale's encoding, a column
        requested twice, missing or repeated header columns,
        unparseable or non-finite values, duplicate cells, or an incomplete
        grid; messages cite the offending row or labels.
    """
    index_cols = list(index_cols)
    x_cols = list(x_cols)
    if not index_cols:
        raise PanelFormatError("need at least one index column")
    if not x_cols:
        raise PanelFormatError("need at least one regressor column")
    requested = index_cols + [y_col] + x_cols
    twice = [c for c in dict.fromkeys(requested) if requested.count(c) > 1]
    if twice:
        raise PanelFormatError(f"column(s) {twice} requested more than once among the index, outcome and regressors")

    try:
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            header_lines = reader.line_num  # a quoted header name may span lines
        if header is None:
            raise PanelFormatError(f"{path}: empty file")
        missing_cols = [c for c in requested if c not in header]
        if missing_cols:
            raise PanelFormatError(f"{path}: missing column(s) {missing_cols}; header has {header}")
        repeated = [c for c in dict.fromkeys(requested) if header.count(c) > 1]
        if repeated:
            raise PanelFormatError(f"{path}: column(s) {repeated} appear more than once in the header {header}")
        idx_pos = [header.index(c) for c in index_cols]
        val_pos = [header.index(c) for c in [y_col] + x_cols]

        try:
            dim_labels, tensors = _read_grid(path, header_lines, idx_pos, val_pos, len(header))
        except ValueError as exc:  # a UnicodeDecodeError too: _diagnose meets it again
            _diagnose(path, idx_pos, val_pos, len(header))
            raise PanelFormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise PanelFormatError(f"{path}: not {exc.encoding} text (undecodable byte 0x{byte:02x})") from None
    frame = PanelFrame(
        dim_names=tuple(index_cols),
        dim_labels=dim_labels,
        y_name=y_col,
        x_names=tuple(x_cols),
    )
    return frame, tensors[0], tensors[1:]


def _read_grid(path, header_lines: int, idx_pos, val_pos, n_fields: int):
    """Labels and tensors of a valid panel file; ``ValueError`` on any fault.

    One ``loadtxt`` pass reads the label and value columns as float64.  It is
    handed the path, not a file object, since it reads a path in blocks but a
    file object one line at a time; a name that numpy's opener would
    decompress or fetch goes in as an open file, so it is read as written.
    Each label column's converter is the ``__getitem__`` of a ``defaultdict``
    whose factory counts up in floats, so labels are coded in order of first
    appearance, as the float64 that ``loadtxt`` stores, without a Python
    frame per field.  The last header column is read too (its converter is
    ``len``, so its text is never parsed as a float) when no requested
    column is last, so that ``loadtxt`` rejects a row shorter than the
    header.  Converter keys are file-column indices.
    """
    sentinel = [n_fields - 1] if n_fields - 1 > max(idx_pos + val_pos) else []
    label_maps = [defaultdict(itertools.count(0.0).__next__) for _ in idx_pos]
    converters = {pos: label_map.__getitem__ for pos, label_map in zip(idx_pos, label_maps)}
    converters.update(dict.fromkeys(sentinel, len))
    source = os.fsdecode(path)
    with warnings.catch_warnings(), contextlib.ExitStack() as stack:
        # loadtxt warns on an empty line (skipped by design) and on a file without rows (rejected below)
        warnings.simplefilter("ignore", UserWarning)
        if source.endswith(_OPENER_SUFFIXES) or "://" in source:
            source = stack.enter_context(open(path))
        table = np.loadtxt(
            source, usecols=idx_pos + val_pos + sentinel, converters=converters, skiprows=header_lines, **_GRAMMAR
        )
    if len(table) == 0:
        raise ValueError("no data rows")
    values = table[:, len(idx_pos) : len(idx_pos) + len(val_pos)]
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value")
    dim_labels = [list(label_map) for label_map in label_maps]
    shape = tuple(len(labels) for labels in dim_labels)
    flat = np.ravel_multi_index(table[:, : len(idx_pos)].T.astype(np.intp), shape)
    if len(flat) != math.prod(shape) or np.any(np.bincount(flat, minlength=len(flat)) != 1):
        raise ValueError("duplicate or missing cells")
    tensors = [np.empty(shape) for _ in val_pos]
    for tensor, column in zip(tensors, values.T):
        tensor.reshape(-1)[flat] = column
    return dim_labels, tensors


def _diagnose(path, idx_pos, val_pos, n_fields: int) -> None:
    """Re-read a file row by row and raise ``PanelFormatError`` at its first fault.

    Row-level faults (too few fields, an unparseable or non-finite value)
    name the row; duplicate and missing cells are named by their labels, at
    most ``_MAX_REPORTED`` of each.  Returns if the row loop finds no fault.
    """
    with open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        label_maps: list[dict[str, int]] = [{} for _ in idx_pos]
        seen: set[tuple[int, ...]] = set()
        duplicates: list[tuple[str, ...]] = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < n_fields:
                raise PanelFormatError(f"{path}:{row_num}: expected {n_fields} fields, got {len(row)}")
            labels = tuple(row[p] for p in idx_pos)
            key = tuple(
                label_maps[d].setdefault(lab, len(label_maps[d])) for d, lab in enumerate(labels)
            )
            try:
                values = tuple(float(row[p]) for p in val_pos)
            except ValueError as exc:
                raise PanelFormatError(f"{path}:{row_num}: {exc}") from None
            if not all(np.isfinite(v) for v in values):
                raise PanelFormatError(f"{path}:{row_num}: non-finite value at cell {labels}")
            if key in seen:
                if len(duplicates) < _MAX_REPORTED:
                    duplicates.append(labels)
            else:
                seen.add(key)

    if duplicates:
        raise PanelFormatError(f"{path}: duplicate cell(s), e.g. {duplicates}")
    dim_labels = [list(m) for m in label_maps]
    shape = tuple(len(labels) for labels in dim_labels)
    if any(s == 0 for s in shape):
        raise PanelFormatError(f"{path}: no data rows")
    expected = math.prod(shape)
    if len(seen) != expected:
        missing = []
        for key in itertools.product(*(range(s) for s in shape)):
            if key not in seen:
                missing.append(tuple(dim_labels[d][i] for d, i in enumerate(key)))
                if len(missing) >= _MAX_REPORTED:
                    break
        raise PanelFormatError(
            f"{path}: incomplete grid; {expected - len(seen)} of {expected} cells missing, "
            f"e.g. {missing}"
        )


def write_panel_csv(path, y, xs, *, dim_names=None, dim_labels=None, y_name: str = "y", x_names=None) -> None:
    """Export tensors to a long-format panel CSV (dimension 1 fastest).

    Values are written with ``repr`` so that reloading reproduces them
    exactly.  Default labels are 1-based integers.
    """
    y_arr = as_tensor(y, name="outcome", min_order=1)
    xs = [xs] if isinstance(xs, np.ndarray) else list(xs)
    xs = [as_tensor(xk, name=f"regressor {k + 1}") for k, xk in enumerate(xs)]
    for k, xk in enumerate(xs):
        if xk.shape != y_arr.shape:
            raise PanelFormatError(f"regressor {k + 1} has shape {xk.shape}, expected {y_arr.shape}")
    shape = y_arr.shape
    order = len(shape)
    dim_names = tuple(dim_names) if dim_names is not None else tuple(f"dim{n}" for n in range(1, order + 1))
    x_names = tuple(x_names) if x_names is not None else tuple(f"x{k}" for k in range(1, len(xs) + 1))
    if dim_labels is None:
        dim_labels = [[str(i + 1) for i in range(s)] for s in shape]
    if len(dim_names) != order or len(dim_labels) != order or len(x_names) != len(xs):
        raise PanelFormatError("metadata lengths do not match the tensor order / regressor count")
    if any(len(labels) != s for labels, s in zip(dim_labels, shape)):
        raise PanelFormatError(f"label counts {[len(labels) for labels in dim_labels]} do not match shape {shape}")

    columns = [
        np.tile(np.repeat(np.asarray(labels, dtype=object), math.prod(shape[:d])), math.prod(shape[d + 1:])).tolist()
        for d, labels in enumerate(dim_labels)
    ]
    columns += [map(repr, t.ravel(order="F").tolist()) for t in [y_arr] + xs]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dim_names) + [y_name] + list(x_names))
        writer.writerows(zip(*columns))
