"""The CSV reader: the tokenizer of ``read_csv`` and the decimal-to-binary kernel
of ``ccfom.cells``, against the csv module and ``np.asarray``."""

import csv
import math
import re
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from ccfom import cells
from ccfom.cli import _CHECKED_COLUMNS, main
from ccfom.config import parse_config_text
from ccfom.errors import ConfigError
from ccfom.reporting import CSV_VERSION_LINE, fmt_column, read_csv


def _columns(*columns: list[str]) -> list[cells.TextColumn]:
    """Text columns of the cells ``columns``, back to back in one buffer padded
    as a data block is."""
    raw = [t.encode() for texts in columns for t in texts]
    size = np.array([len(r) for r in raw], dtype=np.int64)
    end = np.cumsum(size) + 24
    data = np.frombuffer(bytes(24) + b"".join(raw) + bytes(24), np.uint8)
    bounds = np.cumsum([0] + [len(texts) for texts in columns])
    return [cells.TextColumn(data, end[lo:hi] - size[lo:hi], end[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _column(texts: list[str]) -> cells.TextColumn:
    return _columns(texts)[0]


def _bits(x: np.ndarray) -> list[int]:
    return x.view(np.int64).tolist()


def _assert_parsed_as_numpy(texts: list[str], dtype=np.float64) -> float:
    """parse gives np.asarray's values bit for bit; returns the kernel's share."""
    col = _column(texts)
    (got,) = cells.parse([col], [dtype])
    want = np.asarray(texts, dtype=dtype)
    bad = [(t, g, w) for t, g, w in zip(texts, got.tolist(), want.tolist())
           if np.array(g, dtype).view(np.int64) != np.array(w, dtype).view(np.int64)]
    assert not bad, bad[:5]
    ints, int_ok, floats, float_ok = cells.read_cells(col)
    value, ok = (ints, int_ok) if dtype == np.int64 else (floats, float_ok)
    assert _bits(value[ok]) == _bits(want[ok])
    return float(ok.mean())


# ---------------------------------------------------------------------------
# the kernel against np.asarray


def test_writer_spellings_of_random_bit_patterns_read_back():
    bits = np.random.default_rng(20261019).integers(0, 2**64, 100_000, dtype=np.uint64)
    exponent = np.uint64(0x7FF0_0000_0000_0000)
    bits[:3000] &= ~exponent  # zeros and subnormals of both signs
    bits[3000:4000] |= exponent  # NaNs with payloads, and the infinities
    bits[3000:3002] &= ~np.uint64(0x000F_FFFF_FFFF_FFFF)
    x = bits.view(np.float64)
    x[4000:6000] = np.round(x[4000:6000] % 1e6)  # integers
    x[6000:6632] = [float(f"1e{j}") for j in range(-323, 309)]
    x[6632:7264] = -x[6000:6632]
    texts = fmt_column(x)
    share = _assert_parsed_as_numpy(texts)
    (back,) = cells.parse([_column(texts)], [np.float64])
    finite = ~np.isnan(x)
    assert _bits(back[finite]) == _bits(x[finite])
    assert np.isnan(back[~finite]).all()
    # exponents spread evenly: the 1e-280..1e281 range is 91% of them
    assert share > 0.85


def test_writer_spellings_at_the_edges_of_the_range():
    lo, hi = cells.FAST_EXP
    edges = np.array([float(f"{m}e{e}") for e in (lo - 13, lo - 12, lo - 1, lo, lo + 1, hi, hi + 1)
                      for m in (1, 1.5, 9.999999999999999)])
    near = np.concatenate([edges.view(np.int64) + d for d in range(-40, 41)]).view(np.float64)
    _assert_parsed_as_numpy(fmt_column(np.concatenate([near, -near])))


def _canonical(d: Decimal) -> str:
    """``[-]d.ddd…e±XX``: the kernel's spelling of a decimal."""
    sign, digits, exp = d.as_tuple()
    text = "".join(map(str, digits))
    e = exp + len(digits) - 1
    return f"{'-' * sign}{text[0]}.{text[1:] or '0'}e{'-' if e < 0 else '+'}{abs(e):02d}"


def test_decimals_next_to_midpoints_between_doubles():
    """17 to 20 digits on both sides of the midpoint between each double and the
    next: rounding them takes the last bits of the product, and the bracket
    must send every one it cannot certify to numpy."""
    rng = np.random.default_rng(7)
    x = np.abs(rng.standard_normal(3000)) * 10.0 ** rng.integers(-300, 300, 3000)
    texts = []
    for v in x.tolist():
        with localcontext() as ctx:
            ctx.prec = 800
            mid = (Decimal(v) + Decimal(np.nextafter(v, math.inf))) / 2
        for n in (17, 18, 19, 20):
            for rounding in (ROUND_FLOOR, ROUND_CEILING):
                with localcontext() as ctx:
                    ctx.prec, ctx.rounding = n, rounding
                    texts.append(_canonical(+mid))
    texts += ["-" + t for t in texts[:2000]]
    assert _assert_parsed_as_numpy(texts) > 0.2


def test_exact_ties_go_to_numpy():
    """Decimals exactly halfway between two doubles (k + 1/4 and k + 3/4 for
    2^51 <= k < 2^52, k + 1/2 for 2^52 <= k < 2^53, odd k >= 2^53 spelt with
    a fraction): the bracket around each straddles the tie, so none is read
    by the kernel, and numpy rounds each half to even."""
    rng = np.random.default_rng(11)
    k51, k52, k53 = (rng.integers(2**b, 2 ** (b + 1), 2000) for b in (51, 52, 53))
    texts = ([f"{k}.25" for k in k51.tolist()] + [f"{k}.75" for k in k51.tolist()]
             + [f"{k}.5" for k in k52.tolist()] + [f"{k | 1}.0" for k in k53.tolist()]
             + [f"{k}5e-1" for k in k52.tolist()])
    texts += ["-" + t for t in texts]
    assert _assert_parsed_as_numpy(texts) == 0.0


def test_tiny_values_next_to_the_range():
    """Values a little below 1e-280 whose power of ten is in the table: the
    range check sends them to numpy."""
    rng = np.random.default_rng(13)
    m = rng.integers(1, 10**6, 5000).tolist()
    e = rng.integers(-292, -281, 5000).tolist()
    texts = [f"{a}e{b}" for a, b in zip(m, e)] + [f"{a}.{a}e{b}" for a, b in zip(m, e)]
    _assert_parsed_as_numpy(texts)
    _assert_parsed_as_numpy(fmt_column(np.array([float(t) for t in texts])))


def test_fixed_notation_and_leading_zeros():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-6, 18, 20_000)
    texts = [f"{v:.{p}f}" for v, p in zip(x.tolist(), rng.integers(0, 22, x.size).tolist())]
    assert _assert_parsed_as_numpy(texts) > 0.5  # those over 24 bytes or 17 digits go to numpy
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-6, 6, 20_000)
    texts = [f"{v:.{p}f}" for v, p in zip(x.tolist(), rng.integers(0, 11, x.size).tolist())]
    texts += ["0", "-0", "0.0", "-0.000", "0e+00", "-0e-300", "007", "00.50", "1.5e+300",
              "12345678901234567", "123456789012345678", "1234567890123456789", "0.1e+05",
              "99999999999999999", "9007199254740993", "1e+22", "1e+23", "4.9406564584124654e-324"]
    assert _assert_parsed_as_numpy(texts) > 0.9
    (zeros,) = cells.parse([_column(["0", "-0", "-0.000e+05"])], [np.float64])
    assert [math.copysign(1, z) for z in zeros.tolist()] == [1, -1, -1]


# The cells of test_cell_conversion_is_that_of_float_and_int, and their errors
FLOAT_CELLS = ["nan", "-nan", "NaN", "inf", "-inf", "-Infinity", "1e5000", "-1e5000", "1_0",
               " 1.5 ", "\t-2e-3\n", "5e-324", "1e-400", "-0.0", "0.1", "+.5", "5.", "1E-3",
               ".5", "-.5e+05", "1e+5", "1.e+05"]
INT_CELLS = [" 5 ", "1_0", "-3", "+7", "9223372036854775807", "-9223372036854775808", "007",
             "-0", "123456789012345678", "1234567890123456789"]


def test_cells_of_other_spellings_are_read_by_numpy():
    assert _assert_parsed_as_numpy(FLOAT_CELLS) < 0.1
    _assert_parsed_as_numpy(INT_CELLS, np.int64)
    _assert_parsed_as_numpy([str(v) for v in np.random.default_rng(5).integers(
        -(2**63), 2**63 - 1, 20_000).tolist()], np.int64)


@pytest.mark.parametrize("bad,dtype,error", [
    ("abc", np.float64, ValueError), ("", np.float64, ValueError), ("1__0", np.float64, ValueError),
    ("0x10", np.float64, ValueError), ("1e", np.float64, ValueError), ("1.5.5", np.float64, ValueError),
    ("--1", np.float64, ValueError), ("1e+5x", np.float64, ValueError),
    ("5.0", np.int64, ValueError), ("1e+05", np.int64, ValueError),
    ("9223372036854775808", np.int64, OverflowError),
    ("-99999999999999999999", np.int64, OverflowError),
])
def test_errors_are_those_of_numpy(bad, dtype, error):
    """The first cell numpy cannot convert, in column order, raises numpy's error."""
    good = ["1", "2.5" if dtype == np.float64 else "2"]
    with pytest.raises(error) as want:
        np.asarray(good + [bad], dtype=dtype)
    columns = _columns(good + [bad], ["abc"] if dtype == np.float64 else ["x"])
    with pytest.raises(error, match=re.escape(str(want.value))):
        cells.parse(columns, [dtype, dtype])


def test_the_first_bad_cell_is_in_column_order():
    with pytest.raises(ValueError, match="'late'"):
        cells.parse(_columns(["1", "2", "late"], ["early", "1", "2"]), [np.float64] * 2)
    with pytest.raises(ValueError, match=re.escape("int() with base 10: '2.5'")):
        cells.parse(_columns(["1", "2.5"], ["early"]), [np.int64, np.float64])
    ks, floats = cells.parse(_columns(["1", "-2"], ["1", "-2.5"]), [np.int64, np.float64])
    assert ks.dtype == np.int64 and ks.tolist() == [1, -2] and floats.tolist() == [1.0, -2.5]


# ---------------------------------------------------------------------------
# the tokenizer against the csv module


def _csv_module_read(path):
    """read_csv as the csv module reads every file: the reference."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != CSV_VERSION_LINE:
        raise ConfigError(f"{path} is not a ccfom-csv v1 file")
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    try:
        meta = parse_config_text("\n".join(line[1:] for line in lines[1:i]))
    except ConfigError as exc:
        raise ConfigError(f"{path} metadata {exc}") from None
    if i >= len(lines) or not lines[i].strip():
        raise ConfigError(f"{path} has no header row")
    reader = csv.reader(lines[i:])
    columns = [c.strip() for c in next(reader)]
    rows = [vals for vals in reader if vals]
    for vals in rows:
        if len(vals) != len(columns):
            raise ConfigError(f"{path}: row has {len(vals)} fields, header has {len(columns)}")
    return meta, columns, dict(zip(columns, zip(*rows) if rows else [()] * len(columns)))


def _read(path):
    """read_csv's output, or its error, with each column as a tuple of str."""
    try:
        meta, columns, rows = read_csv(path)
    except (ConfigError, csv.Error) as exc:
        return type(exc), str(exc)
    return meta, columns, {c: tuple(v) for c, v in rows.columns.items()}


def _reference(path):
    try:
        return _csv_module_read(path)
    except (ConfigError, csv.Error) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def run_csv(tmp_path_factory) -> bytes:
    out = tmp_path_factory.mktemp("run")
    (out / "run.cfg").write_text("problem = lse:dim=2\nmethod = accelerated\nx0 = 1.3,-1.1\n"
                                 "iterations = 40\ncsv = run.csv\nreport = run.txt\n")
    assert main(["run", "--config", str(out / "run.cfg"), "--out", str(out)]) == 0
    return (out / "run.csv").read_bytes()


def _edit_cell(raw: bytes, row: int, column: int, text: bytes) -> bytes:
    lines = raw.split(b"\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(b"k,")) + 1 + row
    cells_ = lines[i].split(b",")
    cells_[column] = text
    lines[i] = b",".join(cells_)
    return b"\n".join(lines)


# each edit puts into the file a byte or a line that the fast split leaves to the csv module
SLOW_EDITS = {
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "lone cr": lambda raw: raw.replace(b"\n", b"\r", 3),
    "quoted cell": lambda raw: _edit_cell(raw, 3, 1, b'"' + raw.split(b"\n")[12].split(b",")[1] + b'"'),
    "quoted header": lambda raw: raw.replace(b"\nk,", b'\n"k",', 1),
    "header over two lines": lambda raw: raw.replace(b"\nk,", b'\n"k\nk",', 1),
    "empty line": lambda raw: raw.replace(b"\n5,", b"\n\n5,", 1),
    "empty first data line": lambda raw: raw.replace(b",verdict\n", b",verdict\n\n", 1),
    "trailing empty line": lambda raw: raw + b"\n",
    "non-ascii cell": lambda raw: _edit_cell(raw, 2, 10, "PASSé".encode()),
    "non-ascii metadata": lambda raw: raw.replace(b"\n# method", "\n# note = café\n# method".encode(), 1),
    "form feed": lambda raw: _edit_cell(raw, 2, 10, b"PA\x0cSS"),
    "vertical tab in metadata": lambda raw: raw.replace(b"\n# method", b"\n# x = 1\x0b# method", 1),
    "record separator": lambda raw: _edit_cell(raw, 2, 3, b"1\x1e2"),
    "nul": lambda raw: _edit_cell(raw, 2, 10, b"PA\x00SS"),
    "quote and a missing field": lambda raw: _edit_cell(raw, 1, 1, b'"1.5'),
}
FAST_EDITS = {
    "as written": lambda raw: raw,
    "no final newline": lambda raw: raw.rstrip(b"\n"),
    "respelt cells": lambda raw: _edit_cell(_edit_cell(raw, 1, 2, b" 1.5 "), 2, 3, b"+.5\t"),
    "an extra field": lambda raw: _edit_cell(raw, 5, 10, b"PASS,"),
    "a missing field": lambda raw: raw.replace(b",PASS\n", b"\n", 1),
    "a one-field row": lambda raw: raw.replace(b"\n5,", b"\n   \n5,", 1),
    "no data rows": lambda raw: raw[: raw.index(b",verdict\n") + 9],
    "header only, no newline": lambda raw: raw[: raw.index(b",verdict\n") + 8],
    "no header": lambda raw: raw[: raw.index(b"\nk,") + 1],
    "comments only": lambda raw: raw[: raw.index(b"\nk,")],
    "empty header": lambda raw: raw.replace(b"\nk,", b"\n\nk,", 1),
    "not a ccfom csv": lambda raw: raw[raw.index(b"\n") + 1 :],
    "empty file": lambda raw: b"",
    "bad metadata": lambda raw: raw.replace(b"\n# method =", b"\n# method", 1),
}


def _spy_split(monkeypatch) -> list:
    """The outputs of cells.split_rows from here on: None for a block it leaves
    to the csv module."""
    outputs = []
    real = cells.split_rows
    monkeypatch.setattr(cells, "split_rows", lambda *a: outputs.append(real(*a)) or outputs[-1])
    return outputs


@pytest.mark.parametrize("edit", list(SLOW_EDITS), ids=list(SLOW_EDITS))
def test_files_the_fast_split_leaves_to_the_csv_module(tmp_path, monkeypatch, run_csv, edit):
    path = tmp_path / "t.csv"
    path.write_bytes(SLOW_EDITS[edit](run_csv))
    split = _spy_split(monkeypatch)
    assert _read(path) == _reference(path)
    assert all(columns is None for columns in split)


@pytest.mark.parametrize("edit", list(FAST_EDITS), ids=list(FAST_EDITS))
def test_the_fast_split_reads_as_the_csv_module(tmp_path, monkeypatch, run_csv, edit):
    path = tmp_path / "t.csv"
    path.write_bytes(FAST_EDITS[edit](run_csv))
    split = _spy_split(monkeypatch)
    got = _read(path)
    assert got == _reference(path)
    if isinstance(got[0], dict) and any(got[2].values()):
        assert split and split[0] is not None  # a file with data rows went through the fast split


def test_a_field_over_the_csv_limit_raises_the_csv_modules_error(tmp_path, run_csv):
    path = tmp_path / "t.csv"
    path.write_bytes(run_csv)
    limit = csv.field_size_limit(12)
    try:
        with pytest.raises(csv.Error) as want:
            _csv_module_read(path)
        with pytest.raises(csv.Error, match=re.escape(str(want.value))):
            read_csv(path)
    finally:
        csv.field_size_limit(limit)


def test_text_cells_compare_as_bytes(run_csv, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(_edit_cell(_edit_cell(run_csv, 0, 10, b"FAIL"), 1, 10, b"PASS" + b"x" * 30))
    verdicts = read_csv(path)[2].columns["verdict"]
    assert isinstance(verdicts, cells.TextColumn)
    same = cells.same_text(verdicts, np.full(len(verdicts), "PASS"))
    assert same.tolist() == [False, False] + [True] * (len(verdicts) - 2)
    assert verdicts[1] == "PASS" + "x" * 30 and list(verdicts[:2]) == ["FAIL", "PASS" + "x" * 30]


def test_an_accelerated_run_is_read_by_the_kernel(tmp_path):
    """At K = 10^4 all but a few cells (NaN, ties) take the fast path: a
    kernel that silently sent every cell to numpy would fail here."""
    (tmp_path / "l.cfg").write_text("problem = lse:dim=2\nmethod = accelerated\nx0 = 1.3,-1.1\n"
                                    "iterations = 10000\ncsv = l.csv\nreport = l.txt\n")
    assert main(["run", "--config", str(tmp_path / "l.cfg"), "--out", str(tmp_path)]) == 0
    columns = read_csv(tmp_path / "l.csv")[2].columns
    floats = [columns[c] for c in _CHECKED_COLUMNS]
    whole = cells.TextColumn(floats[0].data, np.concatenate([c.start for c in floats]),
                             np.concatenate([c.end for c in floats]))
    assert cells.read_cells(whole)[3].mean() >= 0.99
    assert cells.read_cells(columns["k"])[1].all()
    assert main(["verify", str(tmp_path / "l.csv")]) == 0
