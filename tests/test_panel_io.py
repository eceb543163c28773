"""CSV panel round trips and malformed-input reporting."""

import codecs
import gzip
import locale
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from tensorfe.errors import PanelFormatError
from tensorfe.panel_io import load_panel_csv, write_panel_csv

INDEX = ["store", "product", "week"]


def write_rows(path, rows, header="store,product,week,y,x1"):
    path.write_text("\n".join([header] + rows) + "\n")


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    y = rng.standard_normal((3, 4, 2))
    xs = [rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 4, 2))]
    path = tmp_path / "panel.csv"
    write_panel_csv(path, y, xs, dim_names=INDEX, x_names=["x1", "x2"])
    _, y2, xs2 = load_panel_csv(path, INDEX, "y", ["x1", "x2"])
    assert_array_equal(y2, y)  # repr round trip: no precision loss at all
    for a, b in zip(xs, xs2):
        assert_array_equal(b, a)


def test_labels_keep_first_appearance_order(tmp_path):
    path = tmp_path / "panel.csv"
    rows = [
        "b,q,1,1.0,2.0",
        "a,q,1,3.0,4.0",
        "b,p,1,5.0,6.0",
        "a,p,1,7.0,8.0",
    ]
    write_rows(path, rows)
    frame, y, _ = load_panel_csv(path, INDEX, "y", ["x1"])
    assert frame.dim_labels[0] == ["b", "a"]
    assert frame.dim_labels[1] == ["q", "p"]
    assert y.shape == (2, 2, 1)
    assert y[0, 0, 0] == 1.0  # (b, q) comes first
    assert y[1, 1, 0] == 7.0


def test_custom_labels_survive_a_round_trip(tmp_path):
    y = np.arange(8, dtype=float).reshape(2, 2, 2)
    path = tmp_path / "panel.csv"
    write_panel_csv(
        path,
        y,
        [y * 2],
        dim_names=INDEX,
        dim_labels=[["s1", "s2"], ["cola", "chips"], ["w1", "w2"]],
        x_names=["price"],
    )
    frame, y2, xs2 = load_panel_csv(path, INDEX, "y", ["price"])
    assert frame.dim_labels[1] == ["cola", "chips"]
    assert_array_equal(y2, y)
    assert_array_equal(xs2[0], 2 * y)


def test_missing_column_is_reported(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, ["1,1,1,1.0,2.0"])
    with pytest.raises(PanelFormatError, match="price"):
        load_panel_csv(path, INDEX, "y", ["price"])


def test_duplicate_cell_names_the_labels(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, ["s1,p1,w1,1.0,2.0", "s1,p1,w1,3.0,4.0"])
    with pytest.raises(PanelFormatError, match="s1"):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_incomplete_grid_names_missing_cells(tmp_path):
    path = tmp_path / "panel.csv"
    rows = [
        "s1,p1,w1,1.0,2.0",
        "s1,p2,w1,1.0,2.0",
        "s2,p1,w1,1.0,2.0",
        # (s2, p2, w1) never appears
    ]
    write_rows(path, rows)
    with pytest.raises(PanelFormatError, match="p2"):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_non_numeric_value_reports_the_row(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, ["s1,p1,w1,1.0,2.0", "s2,p1,w1,oops,2.0"])
    with pytest.raises(PanelFormatError, match="3.*oops"):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_non_finite_value_is_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, ["s1,p1,w1,1.0,2.0", "s2,p1,w1,inf,2.0"])
    with pytest.raises(PanelFormatError):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_short_row_is_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("store,product,week,y,x1\ns1,p1,w1,1.0\n")
    with pytest.raises(PanelFormatError):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("")
    with pytest.raises(PanelFormatError):
        load_panel_csv(path, INDEX, "y", ["x1"])


def test_header_only_file_is_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("store,product,week,y,x1\n")
    with pytest.raises(PanelFormatError):
        load_panel_csv(path, INDEX, "y", ["x1"])


def complete_panel(tmp_path):
    """A complete 2 x 3 x 2 panel with index columns a, b, c."""
    rows = [f"{i},{j},{k},{i + j + k}.0,{i * j * k}.0" for i in (1, 2) for j in (1, 2, 3) for k in (1, 2)]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["a,b,c,y,x1"] + rows) + "\n")
    return path


@pytest.mark.parametrize(
    "index_cols, x_cols, repeated",
    [(["a", "a", "c"], ["x1"], "'a'"), (["a", "b", "c"], ["x1", "x1"], "'x1'"), (["a", "b", "c"], ["y"], "'y'")],
    ids=["index", "regressor", "outcome-as-regressor"],
)
def test_column_requested_twice_is_rejected_before_reading_rows(tmp_path, monkeypatch, index_cols, x_cols, repeated):
    path = complete_panel(tmp_path)
    load_panel_csv(path, ["a", "b", "c"], "y", ["x1"])  # the file itself is fine

    def no_rows(*args, **kwargs):
        raise AssertionError("rows read before the column names were checked")

    monkeypatch.setattr("tensorfe.panel_io._read_grid", no_rows)
    with pytest.raises(PanelFormatError, match=f"{repeated}.*requested more than once"):
        load_panel_csv(path, index_cols, "y", x_cols)


def newline_panel(path, first_dim_labels):
    """A 2 x 2 x 2 panel written by ``write_panel_csv`` with the given labels on dimension 1."""
    y = np.arange(8.0).reshape(2, 2, 2) / 3
    write_panel_csv(path, y, [-y], dim_names=INDEX, dim_labels=[first_dim_labels, ["p1", "p2"], ["w1", "w2"]])
    return y


def test_a_line_break_in_a_label_reads_as_a_newline(tmp_path):
    path = tmp_path / "panel.csv"
    y = newline_panel(path, ["a\r\nb", "c\rd"])
    assert b'"a\r\nb"' in path.read_bytes() and b'"c\rd"' in path.read_bytes()  # written as given
    frame, y2, xs2 = load_panel_csv(path, INDEX, "y", ["x1"])
    assert frame.dim_labels[0] == ["a\nb", "c\nd"]
    assert_array_equal(y2, y)
    assert_array_equal(xs2[0], -y)


def test_labels_differing_only_in_line_ending_are_one_label(tmp_path):
    path = tmp_path / "panel.csv"
    newline_panel(path, ["a\r\nb", "a\nb"])
    with pytest.raises(PanelFormatError, match=r"duplicate cell\(s\), e\.g\. \[\('a\\nb', 'p1', 'w1'\)"):
        load_panel_csv(path, INDEX, "y", ["x1"])


@pytest.mark.parametrize("kind", [str, os.fsencode, lambda p: p], ids=["str", "bytes", "pathlib"])
def test_every_kind_of_path_loads(tmp_path, kind):
    path = tmp_path / "panel.csv"
    y = newline_panel(path, ["s1", "s2"])
    frame, y2, _ = load_panel_csv(kind(path), INDEX, "y", ["x1"])
    assert frame.dim_labels[0] == ["s1", "s2"]
    assert_array_equal(y2, y)


def test_a_plain_text_file_named_gz_is_read_as_written(tmp_path):
    path = tmp_path / "panel.csv.gz"
    y = newline_panel(path, ["s1", "s2"])
    _, y2, _ = load_panel_csv(path, INDEX, "y", ["x1"])
    assert_array_equal(y2, y)


def test_a_relative_path_that_looks_like_a_url_is_read_as_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a:").mkdir()
    y = newline_panel(tmp_path / "a:" / "panel.csv", ["s1", "s2"])
    _, y2, _ = load_panel_csv("a://panel.csv", INDEX, "y", ["x1"])
    assert_array_equal(y2, y)


utf8_locale = pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="the bytes below are undecodable only in a UTF-8 locale",
)


@utf8_locale
@pytest.mark.parametrize("dim", [0, 2], ids=["in the header's chunk", "past the first chunk"])
def test_a_latin1_label_names_the_file(tmp_path, dim):
    shape = (40, 30, 2)
    labels = [[f"l{i}" for i in range(n)] for n in shape]
    labels[dim][-1] = "caf\u00e9"
    path = tmp_path / "panel.csv"
    write_panel_csv(path, np.ones(shape), [np.ones(shape)], dim_names=INDEX, dim_labels=labels)
    text = path.read_text(encoding="utf-8")
    assert (text.index("caf") > 8192) == (dim > 0)
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(PanelFormatError, match=re.escape(f"{path}: not utf-8 text (undecodable byte 0xe9)") + "$"):
        load_panel_csv(path, INDEX, "y", ["x1"])


@utf8_locale
def test_a_gzip_file_is_rejected(tmp_path):
    plain = tmp_path / "panel.csv"
    newline_panel(plain, ["s1", "s2"])
    path = tmp_path / "panel.csv.gz"
    path.write_bytes(gzip.compress(plain.read_bytes()))
    with pytest.raises(PanelFormatError, match=re.escape(f"{path}: not utf-8 text")):
        load_panel_csv(path, INDEX, "y", ["x1"])
