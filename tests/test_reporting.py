import csv
import io
import math

import numpy as np
import pytest

from ccfom import reporting
from ccfom.reporting import (
    CSV_VERSION_LINE,
    Table,
    fmt_column,
    format_rows,
    open_csv,
    read_csv,
    write_csv,
)


def _reference_csv(meta, columns, rows: Table) -> str:
    """The schema-v1 text as csv.writer writes it, a column of fmt text at a time."""
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n")
    for key, val in meta.items():
        buf.write(f"# {key} = {val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*(fmt_column(rows.columns[c]) for c in columns)))
    return buf.getvalue()


_FLOATS = [math.nan, -math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf, -0.0, 0.0,
           5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, 2.0**53 + 2.0, 1e16, 123.0]
_TEXTS = ["plain", "a,b", 'say "hi"', "two\nlines", '",\n"', "", " spaced ", "quad:diag=1,100"]
_MIXED = ["text", 1.5, 7, True, math.nan, "x,y"]


def _table(n: int) -> Table:
    """n rows cycling through every kind of cell, one column per kind."""
    return Table({
        "k": np.arange(n),
        "f": np.resize(np.array(_FLOATS), n),
        "neg": -np.resize(np.array(_FLOATS), n),
        "int32": np.resize(np.array([-3, 0, 2**31 - 1], dtype=np.int32), n),
        "flag": np.resize(np.array([True, False, True]), n),
        "flag64": np.resize(np.array([0, 1], dtype=np.int64), n),
        "text": np.resize(np.array(_TEXTS), n),
        "mixed": [_MIXED[i % len(_MIXED)] for i in range(n)],
    })


_CHUNK = reporting._CSV_CHUNK_ROWS


@pytest.mark.parametrize("n", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_write_csv_is_bytewise_that_of_csv_writer(tmp_path, n):
    rows = _table(n)
    meta = {"problem": "quad:diag=1,100", "eps_rel": "1e-09"}
    columns = ["k", "f", "neg", "int32", "flag", "flag64", "text", "mixed"]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_csv(got, meta, columns, rows)
    ref.write_text(_reference_csv(meta, columns, rows))
    assert got.read_bytes() == ref.read_bytes()


def test_write_csv_with_column_subset_order_and_quoted_header(tmp_path):
    rows = _table(9)
    rows.columns["a,b"] = np.arange(9.0)
    columns = ["text", "a,b", "f", "k"]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_csv(got, {}, columns, rows)
    ref.write_text(_reference_csv({}, columns, rows))
    assert got.read_bytes() == ref.read_bytes()


def test_csv_of_zero_blocks(tmp_path):
    columns = ["problem", "k", "f_xk"]
    got = tmp_path / "empty.csv"
    with open_csv(got, {"sweep": "0 cells"}, columns):
        pass
    empty = Table({c: [] for c in columns})
    assert got.read_text() == _reference_csv({"sweep": "0 cells"}, columns, empty)
    meta, cols, rows = read_csv(got)
    assert (meta, cols, len(rows)) == ({"sweep": "0 cells"}, columns, 0)
    assert rows.columns == {c: () for c in columns}


@pytest.mark.parametrize("n", [0, 1, 7, _CHUNK + 1])
def test_prefixed_blocks_are_bytewise_those_of_csv_writer(tmp_path, n):
    """Each block's rows behind constant cells, a text cell holding a newline
    among them, equal csv.writer's rows of the prefix columns and the table."""
    rows = _table(n)
    columns = ["text", "f", "k", "mixed"]
    prefixes = [("quad:diag=1,100", "two\nlines", 20), (3, 'say "hi"', -0.5),
                ("", '",\n"', math.nan)]
    got = tmp_path / "got.csv"
    with open_csv(got, {"sweep": "3 cells"}, ["p", "q", "r"] + columns) as write:
        for prefix in prefixes:
            for lines in format_rows(columns, rows):
                write(lines, prefix)
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n# sweep = 3 cells\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "q", "r"] + columns)
    for prefix in prefixes:
        cells = zip(*(fmt_column(rows.columns[c]) for c in columns))
        writer.writerows([*map(reporting.fmt, prefix), *row] for row in cells)
    assert got.read_text() == buf.getvalue()


def test_written_cells_parse_back_with_the_csv_module(tmp_path):
    rows = _table(2 * len(_TEXTS) * len(_MIXED))
    columns = list(rows.columns)
    path = tmp_path / "t.csv"
    write_csv(path, {}, columns, rows)
    with open(path, newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    parsed = list(csv.reader(lines))
    assert parsed[0] == columns
    assert parsed[1:] == [list(r) for r in zip(*(fmt_column(rows.columns[c]) for c in columns))]
