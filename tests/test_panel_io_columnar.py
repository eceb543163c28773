"""The columnar CSV loader and writer against their row-by-row references.

``reference_load`` and ``reference_write`` are the row-loop implementations
that ``load_panel_csv`` and ``write_panel_csv`` replaced.  The loader must
give the same ``PanelFormatError`` text on malformed files and the same
tensors on valid ones; the writer must give the same bytes.
"""

import csv
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tensorfe.cli import main
from tensorfe.dgp import DgpConfig, draw
from tensorfe.errors import PanelFormatError
from tensorfe.inference import pooled_ols
from tensorfe.panel_io import load_panel_csv, write_panel_csv

INDEX = ["store", "product", "week"]
HEADER = "store,product,week,y,x1"


def reference_load(path, index_cols, y_col, x_cols):
    """The row-loop loader: csv.reader, float() and a dict keyed by label codes."""
    index_cols = list(index_cols)
    x_cols = list(x_cols)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        positions = {name: i for i, name in enumerate(header)}
        missing_cols = [c for c in index_cols + [y_col] + x_cols if c not in positions]
        if missing_cols:
            raise PanelFormatError(f"{path}: missing column(s) {missing_cols}; header has {header}")
        idx_pos = [positions[c] for c in index_cols]
        val_pos = [positions[y_col]] + [positions[c] for c in x_cols]
        label_maps = [{} for _ in index_cols]
        cells = {}
        duplicates = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) < len(header):
                raise PanelFormatError(f"{path}:{row_num}: expected {len(header)} fields, got {len(row)}")
            labels = tuple(row[p] for p in idx_pos)
            key = tuple(label_maps[d].setdefault(lab, len(label_maps[d])) for d, lab in enumerate(labels))
            try:
                values = tuple(float(row[p]) for p in val_pos)
            except ValueError as exc:
                raise PanelFormatError(f"{path}:{row_num}: {exc}") from None
            if not all(np.isfinite(v) for v in values):
                raise PanelFormatError(f"{path}:{row_num}: non-finite value at cell {labels}")
            if key in cells:
                if len(duplicates) < 10:
                    duplicates.append(labels)
            else:
                cells[key] = values
    if duplicates:
        raise PanelFormatError(f"{path}: duplicate cell(s), e.g. {duplicates}")
    dim_labels = [list(m) for m in label_maps]
    shape = tuple(len(labels) for labels in dim_labels)
    if any(s == 0 for s in shape):
        raise PanelFormatError(f"{path}: no data rows")
    expected = int(np.prod(shape))
    if len(cells) != expected:
        missing = []
        for key in itertools.product(*(range(s) for s in shape)):
            if key not in cells:
                missing.append(tuple(dim_labels[d][i] for d, i in enumerate(key)))
                if len(missing) >= 10:
                    break
        raise PanelFormatError(
            f"{path}: incomplete grid; {expected - len(cells)} of {expected} cells missing, e.g. {missing}"
        )
    y = np.empty(shape)
    xs = [np.empty(shape) for _ in x_cols]
    for key, values in cells.items():
        y[key] = values[0]
        for k in range(len(x_cols)):
            xs[k][key] = values[k + 1]
    return dim_labels, y, xs


def reference_write(path, y, xs, dim_names, dim_labels, y_name, x_names):
    """The per-cell writer loop (dimension 1 fastest)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dim_names) + [y_name] + list(x_names))
        for rev_key in itertools.product(*(range(s) for s in reversed(y.shape))):
            key = rev_key[::-1]
            row = [dim_labels[d][i] for d, i in enumerate(key)]
            row.append(repr(float(y[key])))
            row.extend(repr(float(xk[key])) for xk in xs)
            writer.writerow(row)


def grid_rows(shape, skip=()):
    """``s<i>,p<j>,w<k>,value,value`` rows in C order, leaving out the cells in ``skip``."""
    return [
        f"s{i},p{j},w{k},{i + 0.5 * j},{k - 0.25}"
        for i, j, k in itertools.product(*(range(n) for n in shape))
        if (i, j, k) not in skip
    ]


def shuffled(rows, seed):
    order = np.random.default_rng(seed).permutation(len(rows))
    return [rows[i] for i in order]


MALFORMED = {
    "cell three times": grid_rows((2, 2, 2)) + ["s1,p0,w1,9.0,9.0", "s1,p0,w1,8.0,8.0"],
    "more than ten duplicates": grid_rows((2, 3, 2)) + grid_rows((2, 3, 2))[:11] + ["s0,p0,w0,1.0,1.0"],
    "more than ten missing cells": shuffled(
        grid_rows((3, 4, 3), skip={(i, j, k) for i in range(3) for j in range(4) for k in range(3) if (i + j + k) % 3 == 1}),
        seed=4,
    ),
    "oops in a value column": grid_rows((2, 2, 2))[:5] + ["s1,p0,w1,1.0,oops"] + grid_rows((2, 2, 2))[6:],
    "row fault after a duplicate": ["s0,p0,w0,1.0,1.0", "s0,p0,w0,1.0,1.0", "s1,p0,w0,oops,1.0"],
    "inf": grid_rows((2, 2, 2))[:3] + ["s0,p1,w1,inf,2.0"] + grid_rows((2, 2, 2))[4:],
    "nan": grid_rows((2, 2, 2))[:7] + ["s1,p1,w1,1.0,nan"],
    "short row": grid_rows((2, 2, 2))[:2] + ["s0,p1,w0,1.0"] + grid_rows((2, 2, 2))[3:],
    "whitespace-only line": grid_rows((2, 2, 2))[:2] + ["   "] + grid_rows((2, 2, 2))[2:],
    "empty value": ["s0,p0,w0,,1.0"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_gives_the_reference_message(tmp_path, case):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join([HEADER] + MALFORMED[case]) + "\n")
    with pytest.raises(PanelFormatError) as expected:
        reference_load(path, INDEX, "y", ["x1"])
    with pytest.raises(PanelFormatError) as got:
        load_panel_csv(path, INDEX, "y", ["x1"])
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "text, x_cols",
    [("", ["x1"]), (HEADER + "\n", ["x1"]), (HEADER + "\ns0,p0,w0,1.0,2.0\n", ["price", "x1", "promo"])],
    ids=["empty file", "header only", "missing columns"],
)
def test_unusable_file_gives_the_reference_message(tmp_path, text, x_cols):
    path = tmp_path / "panel.csv"
    path.write_text(text)
    with pytest.raises(PanelFormatError) as expected:
        reference_load(path, INDEX, "y", x_cols)
    with pytest.raises(PanelFormatError) as got:
        load_panel_csv(path, INDEX, "y", x_cols)
    assert str(got.value) == str(expected.value)


def test_short_row_is_caught_when_the_last_column_is_not_requested(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join([HEADER + ",note", "s0,p0,w0,1.0,2.0,a", "s1,p0,w0,1.0,2.0"]) + "\n")
    with pytest.raises(PanelFormatError, match=r":3: expected 6 fields, got 5"):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_blank_lines_are_skipped_without_a_warning(tmp_path):
    rows = grid_rows((2, 3, 2))
    plain, gapped, blank = tmp_path / "plain.csv", tmp_path / "gapped.csv", tmp_path / "blank.csv"
    plain.write_text("\n".join([HEADER] + rows) + "\n")
    gapped.write_text("\n".join([HEADER] + rows[:4] + [""] + rows[4:9] + ["", ""] + rows[9:]) + "\n\n")
    blank.write_text(HEADER + "\n\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's UserWarnings must not leak out of the loader
        frame, y, xs = load_panel_csv(gapped, INDEX, "y", ["x1"])
        with pytest.raises(PanelFormatError, match="no data rows"):
            load_panel_csv(blank, INDEX, "y", ["x1"])
    labels, y_ref, xs_ref = reference_load(plain, INDEX, "y", ["x1"])
    assert frame.dim_labels == labels
    assert_array_equal(y, y_ref)
    assert_array_equal(xs[0], xs_ref[0])
    with pytest.raises(PanelFormatError, match="expected 5 fields, got 0"):
        reference_load(gapped, INDEX, "y", ["x1"])  # the row loop used to reject them


def test_digit_separators_are_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join([HEADER, "s0,p0,w0,1_000,2.0", "s1,p0,w0,1.0,2.0"]) + "\n")
    assert reference_load(path, INDEX, "y", ["x1"])[1][0, 0, 0] == 1000.0  # float() took it
    with pytest.raises(PanelFormatError, match="1_000"):
        load_panel_csv(path, INDEX, "y", ["x1"])


@pytest.mark.parametrize("name", ["week", "y", "x1"])
def test_repeated_header_name_is_rejected(tmp_path, name):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join([HEADER + f",{name}", "s0,p0,w0,1.0,2.0,3.0", "s1,p0,w0,1.0,2.0,3.0"]) + "\n")
    with pytest.raises(PanelFormatError, match=f"'{name}'.*more than once"):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_repeated_unrequested_name_is_allowed(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join([HEADER + ",note,note", "s0,p0,w0,1.0,2.0,a,b", "s1,p0,w0,3.0,4.0,c,d"]) + "\n")
    _, y, xs = load_panel_csv(path, INDEX, "y", ["x1"])
    assert_array_equal(y.ravel(), [1.0, 3.0])
    assert_array_equal(xs[0].ravel(), [2.0, 4.0])


def test_writer_matches_the_reference_bytes(tmp_path):
    rng = np.random.default_rng(5)
    shape = (3, 2, 4, 2)
    y = rng.standard_normal(shape)
    xs = [rng.standard_normal(shape), rng.integers(0, 2, shape).astype(float)]
    meta = dict(
        dim_names=["market", "brand, name", "week", 'flag "q"'],
        dim_labels=[["a,1", 'b"2', "c"], ["x", ""], ["#1", "02", " 3 ", "4"], ["lo", "hi"]],
        y_name="y",
        x_names=["price", "promo"],
    )
    write_panel_csv(tmp_path / "new.csv", y, xs, **meta)
    reference_write(tmp_path / "old.csv", y, xs, **meta)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_writer_rejects_a_label_count_that_does_not_match_the_shape(tmp_path):
    with pytest.raises(PanelFormatError, match="label counts"):
        write_panel_csv(tmp_path / "p.csv", np.zeros((2, 3)), [np.ones((2, 3))], dim_labels=[["a", "b"], ["c", "d"]])


def test_shuffled_rows_reload_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    shape = (4, 3, 5)
    y = rng.standard_normal(shape)
    xs = [rng.standard_normal(shape), rng.standard_normal(shape)]
    labels = [[f"s{i}" for i in range(4)], [f"p{j}" for j in range(3)], [f"w{k}" for k in range(5)]]
    path = tmp_path / "panel.csv"
    write_panel_csv(path, y, xs, dim_names=INDEX, dim_labels=labels, x_names=["x1", "x2"])
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + shuffled(rows, seed=3)) + "\n")

    frame, y2, xs2 = load_panel_csv(path, INDEX, "y", ["x1", "x2"])
    perms = [[original.index(lab) for lab in found] for original, found in zip(labels, frame.dim_labels)]
    assert all(sorted(p) != p for p in perms)  # the shuffle reordered every dimension
    first_rows = [row.split(",")[: len(INDEX)] for row in shuffled(rows, seed=3)]
    for d in range(len(INDEX)):
        assert frame.dim_labels[d] == list(dict.fromkeys(r[d] for r in first_rows))
    grid = np.ix_(*perms)
    assert_array_equal(y2, y[grid])
    for a, b in zip(xs, xs2):
        assert_array_equal(b, a[grid])


@pytest.mark.parametrize("shape", [(3, 2, 4, 2), (1, 1, 1)])
def test_reload_is_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    y = rng.standard_normal(shape)
    xs = [rng.standard_normal(shape)]
    names = [f"d{n}" for n in range(len(shape))]
    path = tmp_path / "panel.csv"
    write_panel_csv(path, y, xs, dim_names=names)
    frame, y2, xs2 = load_panel_csv(path, names, "y", ["x1"])
    assert frame.shape == shape
    assert_array_equal(y2, y)
    assert_array_equal(xs2[0], xs[0])
    assert y2.flags.c_contiguous and y2.flags.owndata


def test_awkward_labels_survive_a_round_trip(tmp_path):
    labels = [["a,b", 'say "hi"', "#3"], ["007", "7", " padded "], ["w1", "w2"]]
    y = np.arange(18, dtype=float).reshape(3, 3, 2)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, y, [-y], dim_names=INDEX, dim_labels=labels, x_names=["x1"])
    frame, y2, xs2 = load_panel_csv(path, INDEX, "y", ["x1"])
    assert frame.dim_labels == labels
    assert reference_load(path, INDEX, "y", ["x1"])[0] == labels
    assert_array_equal(y2, y)
    assert_array_equal(xs2[0], -y)


def test_estimate_runs_on_a_4d_csv(tmp_path):
    panel = draw(DgpConfig(design="fixed", dims=(5, 4, 4, 3)), np.random.SeedSequence([9]))
    names = ["market", "store", "product", "week"]
    path = tmp_path / "panel.csv"
    write_panel_csv(path, panel.outcome, panel.regressors, dim_names=names)
    out = tmp_path / "report.json"
    args = ["estimate", "--input", str(path), "--index-cols", ",".join(names), "--y", "y", "--x", "x1"]
    assert main(args + ["--method", "ols", "--out", str(out)]) == 0
    assert_allclose(json.loads(out.read_text())["beta"], pooled_ols(panel.outcome, panel.regressors), atol=1e-12)
    assert main(args + ["--method", "ic", "--ranks", "2,2,2,2", "--bandwidth", "1.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_cells"] == 5 * 4 * 4 * 3
    assert np.all(np.isfinite(payload["beta"])) and np.all(np.asarray(payload["se"]) > 0)


def test_labels_are_coded_in_one_pass_in_order_of_first_appearance(tmp_path):
    labels = [["s0", "s\n1", "s2", "s3"], ["p0", "p,1", "p2"], ["w0", "w1"]]
    rng = np.random.default_rng(6)
    y = rng.standard_normal((4, 3, 2))
    path = tmp_path / "panel.csv"
    write_panel_csv(path, y, [2 * y], dim_names=INDEX, dim_labels=labels, x_names=["x1"])
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows = shuffled(rows, seed=1)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    ref_labels, ref_y, ref_xs = reference_load(path, INDEX, "y", ["x1"])
    with path.open("a", newline="") as fh:
        fh.write("\n\n")
    frame, y2, xs2 = load_panel_csv(path, INDEX, "y", ["x1"])
    assert frame.dim_labels == ref_labels
    assert_array_equal(y2, ref_y)
    assert_array_equal(xs2[0], ref_xs[0])


def test_label_converters_follow_file_columns_in_any_usecols_order(tmp_path):
    """The requested columns appear in the file in another order than requested,
    so ``usecols`` is shuffled; the converters are keyed by file column."""
    rows = shuffled(grid_rows((3, 2, 4)), seed=2)
    path = tmp_path / "panel.csv"
    fields = [r.split(",") for r in rows]
    order = [4, 2, 3, 0, 1]  # x1, week, y, store, product
    path.write_text("\n".join(["x1,week,y,store,product"] + [",".join(f[i] for i in order) for f in fields]) + "\n")
    ref_labels, ref_y, ref_xs = reference_load(path, INDEX, "y", ["x1"])
    frame, y, xs = load_panel_csv(path, INDEX, "y", ["x1"])
    assert frame.dim_labels == ref_labels
    assert_array_equal(y, ref_y)
    assert_array_equal(xs[0], ref_xs[0])


@pytest.mark.parametrize("long_label", [False, True])
def test_load_peak_memory_is_a_small_multiple_of_the_tensors(tmp_path, long_label):
    rng = np.random.default_rng(2)
    shape = (40, 30, 50)
    y = rng.standard_normal(shape)
    xs = [rng.standard_normal(shape), rng.standard_normal(shape)]
    labels = [[str(i + 1) for i in range(n)] for n in shape]
    if long_label:  # one wide label must not widen every row's storage
        labels[0][0] = "x" * 200
    path = tmp_path / "panel.csv"
    write_panel_csv(path, y, xs, dim_names=INDEX, dim_labels=labels, x_names=["x1", "x2"])
    tracemalloc.start()
    try:
        frame, y2, xs2 = load_panel_csv(path, INDEX, "y", ["x1", "x2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.dim_labels == labels
    assert_array_equal(y2, y)
    assert peak <= 12 * 3 * y.nbytes
