"""The CSV reader: ``read_csv``'s one ``np.loadtxt`` call against the csv module
and ``np.asarray``, and the files it leaves to the csv module."""

import csv
import math
import re
import warnings
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from ccfom import cells
from ccfom.cli import _COLUMN_DTYPES, main
from ccfom.config import parse_config_text
from ccfom.errors import ConfigError
from ccfom.reporting import CSV_VERSION_LINE, read_csv
from conftest import csv_cells


def _bits(x: np.ndarray) -> list[int]:
    return x.view(np.int64).tolist()


def _read_column(path: Path, texts: list[str], dtype):
    """The cells ``texts``, one per line under the header ``x``, as read_csv
    reads them given that column's dtype."""
    path.write_text(CSV_VERSION_LINE + "\nx\n" + "".join(t + "\n" for t in texts))
    return read_csv(path, {"x": dtype})[2].columns["x"]


def _assert_read_as_numpy(path: Path, texts: list[str], dtype=np.float64) -> np.ndarray:
    """loadtxt reads every cell, with np.asarray's values bit for bit."""
    got = _read_column(path, texts, dtype)
    assert isinstance(got, np.ndarray) and got.dtype == dtype
    want = np.asarray(texts, dtype=dtype)
    bad = [(t, g, w) for t, g, w in zip(texts, _bits(got), _bits(want)) if g != w]
    assert not bad, bad[:5]
    return got


# ---------------------------------------------------------------------------
# loadtxt against np.asarray


def test_writer_spellings_of_random_bit_patterns_read_back(tmp_path):
    bits = np.random.default_rng(20261019).integers(0, 2**64, 100_000, dtype=np.uint64)
    exponent = np.uint64(0x7FF0_0000_0000_0000)
    bits[:3000] &= ~exponent  # zeros and subnormals of both signs
    bits[3000:4000] |= exponent  # NaNs with payloads, and the infinities
    bits[3000:3002] &= ~np.uint64(0x000F_FFFF_FFFF_FFFF)
    x = bits.view(np.float64)
    x[4000:6000] = np.round(x[4000:6000] % 1e6)  # integers
    x[6000:6632] = [float(f"1e{j}") for j in range(-323, 309)]
    x[6632:7264] = -x[6000:6632]
    back = _assert_read_as_numpy(tmp_path / "c.csv", csv_cells(x))
    finite = ~np.isnan(x)
    assert _bits(back[finite]) == _bits(x[finite])
    assert np.isnan(back[~finite]).all()


def test_writer_spellings_at_the_edges_of_the_range(tmp_path):
    lo, hi = cells.FAST_EXP
    edges = np.array([float(f"{m}e{e}") for e in (lo - 13, lo - 12, lo - 1, lo, lo + 1, hi, hi + 1)
                      for m in (1, 1.5, 9.999999999999999)])
    near = np.concatenate([edges.view(np.int64) + d for d in range(-40, 41)]).view(np.float64)
    _assert_read_as_numpy(tmp_path / "c.csv", csv_cells(np.concatenate([near, -near])))


def _canonical(d: Decimal) -> str:
    """``[-]d.ddd…e±XX``: a decimal in the writer's exponent notation."""
    sign, digits, exp = d.as_tuple()
    text = "".join(map(str, digits))
    e = exp + len(digits) - 1
    return f"{'-' * sign}{text[0]}.{text[1:] or '0'}e{'-' if e < 0 else '+'}{abs(e):02d}"


def test_decimals_next_to_midpoints_between_doubles(tmp_path):
    """17 to 20 digits on both sides of the midpoint between each double and the
    next: rounding them takes every digit."""
    rng = np.random.default_rng(7)
    x = np.abs(rng.standard_normal(3000)) * 10.0 ** rng.integers(-300, 300, 3000)
    texts = []
    for v in x.tolist():
        with localcontext() as ctx:
            ctx.prec = 800
            mid = (Decimal(v) + Decimal(np.nextafter(v, math.inf))) / 2
        for n in (17, 18, 19, 20, 25):
            for rounding in (ROUND_FLOOR, ROUND_CEILING):
                with localcontext() as ctx:
                    ctx.prec, ctx.rounding = n, rounding
                    texts.append(_canonical(+mid))
    texts += ["-" + t for t in texts[:2000]]
    _assert_read_as_numpy(tmp_path / "c.csv", texts)


def test_exact_ties_round_half_to_even(tmp_path):
    """Decimals exactly halfway between two doubles (k + 1/4 and k + 3/4 for
    2^51 <= k < 2^52, k + 1/2 for 2^52 <= k < 2^53, odd k >= 2^53 spelt with
    a fraction): each half rounds to even, as numpy rounds it."""
    rng = np.random.default_rng(11)
    k51, k52, k53 = (rng.integers(2**b, 2 ** (b + 1), 2000) for b in (51, 52, 53))
    texts = ([f"{k}.25" for k in k51.tolist()] + [f"{k}.75" for k in k51.tolist()]
             + [f"{k}.5" for k in k52.tolist()] + [f"{k | 1}.0" for k in k53.tolist()]
             + [f"{k}5e-1" for k in k52.tolist()])
    texts += ["-" + t for t in texts]
    _assert_read_as_numpy(tmp_path / "c.csv", texts)


def test_tiny_values_next_to_the_range(tmp_path):
    """Values a little below 1e-280, the writer's fast range, in both spellings."""
    rng = np.random.default_rng(13)
    m = rng.integers(1, 10**6, 5000).tolist()
    e = rng.integers(-292, -281, 5000).tolist()
    texts = [f"{a}e{b}" for a, b in zip(m, e)] + [f"{a}.{a}e{b}" for a, b in zip(m, e)]
    _assert_read_as_numpy(tmp_path / "c.csv", texts)
    _assert_read_as_numpy(tmp_path / "c.csv", csv_cells(np.array([float(t) for t in texts])))


def test_fixed_notation_and_leading_zeros(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-6, 18, 20_000)
    texts = [f"{v:.{p}f}" for v, p in zip(x.tolist(), rng.integers(0, 22, x.size).tolist())]
    _assert_read_as_numpy(tmp_path / "c.csv", texts)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-6, 6, 20_000)
    texts = [f"{v:.{p}f}" for v, p in zip(x.tolist(), rng.integers(0, 11, x.size).tolist())]
    texts += ["0", "-0", "0.0", "-0.000", "0e+00", "-0e-300", "007", "00.50", "1.5e+300",
              "12345678901234567", "123456789012345678", "1234567890123456789", "0.1e+05",
              "99999999999999999", "9007199254740993", "1e+22", "1e+23", "4.9406564584124654e-324"]
    _assert_read_as_numpy(tmp_path / "c.csv", texts)
    zeros = _assert_read_as_numpy(tmp_path / "c.csv", ["0", "-0", "-0.000e+05"])
    assert [math.copysign(1, z) for z in zeros.tolist()] == [1, -1, -1]


# The cells of test_cells_of_other_spellings_read_as_float_and_int_read_them
FLOAT_CELLS = ["nan", "-nan", "NaN", "inf", "-inf", "-Infinity", "1e5000", "-1e5000", "1_0",
               " 1.5 ", "\t-2e-3\n", "5e-324", "1e-400", "-0.0", "0.1", "+.5", "5.", "1E-3",
               ".5", "-.5e+05", "1e+5", "1.e+05", "١.٥", "\x0c1.5", "1.5\xa0"]
INT_CELLS = [" 5 ", "1_0", "-3", "+7", "9223372036854775807", "-9223372036854775808", "007",
             "-0", "123456789012345678", "1234567890123456789", "١", "\x0c4"]


@pytest.mark.parametrize("texts,dtype,refused", [
    (FLOAT_CELLS, np.float64, {"1_0", "١.٥"}), (INT_CELLS, np.int64, {"1_0", "١"}),
], ids=["float", "int"])
def test_cells_of_other_spellings_read_as_float_and_int_read_them(tmp_path, texts, dtype, refused):
    """Each cell alone in a file: loadtxt reads it with np.asarray's bits, or
    refuses it and the file is read as text, which np.asarray converts.  It
    refuses only what float() and int() read beyond ASCII digits."""
    seen = set()
    for text in texts:
        got = _read_column(tmp_path / "c.csv", [text], dtype)
        if not isinstance(got, np.ndarray):
            seen.add(text)
            assert got == (text.rstrip("\n"),)
        assert _bits(np.asarray(got, dtype)) == _bits(np.asarray([text], dtype))
    assert seen == refused
    _assert_read_as_numpy(tmp_path / "c.csv", [str(v) for v in np.random.default_rng(5).integers(
        -(2**63), 2**63 - 1, 20_000).tolist()], np.int64)


@pytest.mark.parametrize("bad,dtype,error", [
    ("abc", np.float64, ValueError), ("", np.float64, ValueError), ("1__0", np.float64, ValueError),
    ("0x10", np.float64, ValueError), ("1e", np.float64, ValueError), ("1.5.5", np.float64, ValueError),
    ("--1", np.float64, ValueError), ("1e+5x", np.float64, ValueError),
    ("5.0", np.int64, ValueError), ("1e+05", np.int64, ValueError),
    ("9223372036854775808", np.int64, OverflowError),
    ("-99999999999999999999", np.int64, OverflowError),
])
def test_errors_are_those_of_numpy(tmp_path, bad, dtype, error):
    """A cell np.asarray cannot convert sends the file to the csv module, and
    its text then raises numpy's error."""
    good = ["1", "2.5" if dtype == np.float64 else "2"]
    with pytest.raises(error) as want:
        np.asarray(good + [bad], dtype=dtype)
    path = tmp_path / "c.csv"
    path.write_text(CSV_VERSION_LINE + "\nx,y\n" + "".join(f"{t},1\n" for t in good + [bad]))
    got = read_csv(path, {"x": dtype, "y": dtype})[2].columns
    assert got == {"x": (*good, bad), "y": ("1",) * 3}
    with pytest.raises(error, match=re.escape(str(want.value))):
        np.asarray(got["x"], dtype=dtype)


# ---------------------------------------------------------------------------
# whole files against the csv module


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


def _converted(columns: dict, dtypes: dict) -> dict:
    """Each column as cmd_verify converts it: text as text, numbers as the bits
    of ``np.asarray(column, dtype)`` or the error it raises."""
    out = {}
    for c, column in columns.items():
        if dtypes.get(c, object) is object:
            out[c] = tuple(column)
            continue
        try:
            out[c] = _bits(np.asarray(column, dtype=dtypes[c]))
        except (ValueError, OverflowError) as exc:
            out[c] = (type(exc), str(exc))
    return out


def _read(path, dtypes=None):
    """read_csv's output, converted, or its error."""
    try:
        meta, columns, rows = read_csv(path, dtypes)
    except (ConfigError, csv.Error) as exc:
        return type(exc), str(exc)
    return meta, columns, _converted(rows.columns, dtypes or {})


def _reference(path, dtypes=None):
    try:
        meta, columns, rows = _csv_module_read(path)
    except (ConfigError, csv.Error) as exc:
        return type(exc), str(exc)
    return meta, columns, _converted(rows, dtypes or {})


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


# How read_csv reads each file given the run columns' dtypes: "loadtxt" when
# np.loadtxt reads it, "csv" when loadtxt is not tried (a quote, no data line,
# no header), "loadtxt, then csv" when loadtxt refuses it.
EDITS = {
    "crlf": (lambda raw: raw.replace(b"\n", b"\r\n"), "loadtxt"),
    "lone cr": (lambda raw: raw.replace(b"\n", b"\r", 3), "loadtxt"),
    "quoted cell": (lambda raw: _edit_cell(raw, 3, 1, b'"' + raw.split(b"\n")[12].split(b",")[1] + b'"'),
                    "csv"),
    "quoted header": (lambda raw: raw.replace(b"\nk,", b'\n"k",', 1), "csv"),
    "header over two lines": (lambda raw: raw.replace(b"\nk,", b'\n"k\nk",', 1), "csv"),
    "empty line": (lambda raw: raw.replace(b"\n5,", b"\n\n5,", 1), "loadtxt"),
    "empty first data line": (lambda raw: raw.replace(b",verdict\n", b",verdict\n\n", 1), "loadtxt"),
    "trailing empty line": (lambda raw: raw + b"\n", "loadtxt"),
    "non-ascii cell": (lambda raw: _edit_cell(raw, 2, 10, "PASSé".encode()), "loadtxt"),
    "non-ascii metadata": (lambda raw: raw.replace(b"\n# method", "\n# note = café\n# method".encode(), 1),
                           "loadtxt"),
    "form feed": (lambda raw: _edit_cell(raw, 2, 10, b"PA\x0cSS"), "loadtxt, then csv"),
    "vertical tab in metadata": (lambda raw: raw.replace(b"\n# method", b"\n# x = 1\x0b# method", 1),
                                 "loadtxt"),
    "record separator": (lambda raw: _edit_cell(raw, 2, 3, b"1\x1e2"), "loadtxt, then csv"),
    "nul": (lambda raw: _edit_cell(raw, 2, 10, b"PA\x00SS"), "loadtxt"),
    "quote and a missing field": (lambda raw: _edit_cell(raw, 1, 1, b'"1.5'), "csv"),
    "as written": (lambda raw: raw, "loadtxt"),
    "no final newline": (lambda raw: raw.rstrip(b"\n"), "loadtxt"),
    "respelt cells": (lambda raw: _edit_cell(_edit_cell(raw, 1, 2, b" 1.5 "), 2, 3, b"+.5\t"), "loadtxt"),
    "an extra field": (lambda raw: _edit_cell(raw, 5, 10, b"PASS,"), "loadtxt, then csv"),
    "a missing field": (lambda raw: raw.replace(b",PASS\n", b"\n", 1), "loadtxt, then csv"),
    "a one-field row": (lambda raw: raw.replace(b"\n5,", b"\n   \n5,", 1), "loadtxt, then csv"),
    "no data rows": (lambda raw: raw[: raw.index(b",verdict\n") + 9], "csv"),
    "header only, no newline": (lambda raw: raw[: raw.index(b",verdict\n") + 8], "csv"),
    "no header": (lambda raw: raw[: raw.index(b"\nk,") + 1], "csv"),
    "comments only": (lambda raw: raw[: raw.index(b"\nk,")], "csv"),
    "empty header": (lambda raw: raw.replace(b"\nk,", b"\n\nk,", 1), "csv"),
    "not a ccfom csv": (lambda raw: raw[raw.index(b"\n") + 1 :], "csv"),
    "empty file": (lambda raw: b"", "csv"),
    "bad metadata": (lambda raw: raw.replace(b"\n# method =", b"\n# method", 1), "csv"),
}


def _spy_loadtxt(monkeypatch) -> list[str]:
    """How each np.loadtxt call ends from here on: "read" or "refused"."""
    calls = []
    real = np.loadtxt

    def spy(*args, **kwargs):
        try:
            data = real(*args, **kwargs)
        except Exception:
            calls.append("refused")
            raise
        calls.append("read")
        return data

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


@pytest.mark.parametrize("edit", list(EDITS), ids=list(EDITS))
def test_edited_files_read_as_the_csv_module_reads_them(tmp_path, monkeypatch, run_csv, edit):
    path = tmp_path / "t.csv"
    path.write_bytes(EDITS[edit][0](run_csv))
    calls = _spy_loadtxt(monkeypatch)
    assert _read(path) == _reference(path)
    assert calls == []  # with no dtypes, every file is read as text
    assert _read(path, _COLUMN_DTYPES) == _reference(path, _COLUMN_DTYPES)
    assert calls == {"loadtxt": ["read"], "csv": [], "loadtxt, then csv": ["refused"]}[EDITS[edit][1]]


def test_a_field_over_the_csv_limit_raises_the_csv_modules_error(tmp_path, monkeypatch, run_csv):
    """At a limit of 12 a header field is over it, at 20 only data cells are."""
    path = tmp_path / "t.csv"
    path.write_bytes(run_csv)
    calls = _spy_loadtxt(monkeypatch)
    limit = csv.field_size_limit()
    try:
        for low in (12, 20):
            csv.field_size_limit(low)
            with pytest.raises(csv.Error) as want:
                _csv_module_read(path)
            for dtypes in (None, _COLUMN_DTYPES):
                with pytest.raises(ConfigError, match=re.escape(f"{path}: {want.value}")):
                    read_csv(path, dtypes)
    finally:
        csv.field_size_limit(limit)
    assert calls == []


def test_a_loadtxt_warning_sends_the_file_to_the_csv_module(tmp_path, monkeypatch, run_csv):
    """numpy 1.23-1.26 read an int64 from "1.0" with a DeprecationWarning; the
    file is then read as text, and int() refuses that cell."""
    real = np.loadtxt

    def warns(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warns)
    path = tmp_path / "t.csv"
    path.write_bytes(run_csv)
    columns = read_csv(path, _COLUMN_DTYPES)[2].columns
    assert all(isinstance(column, tuple) for column in columns.values())
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("verdict", ["VACUOUSXX", " PASS", "PASS ", "PA\x00SS"])
def test_a_verdict_cell_is_compared_as_written(tmp_path, capsys, run_csv, verdict):
    """loadtxt neither truncates nor strips a verdict: each of these mismatches
    PASS, and the message quotes it as written."""
    path = tmp_path / "t.csv"
    path.write_bytes(_edit_cell(run_csv, 4, 10, verdict.encode()))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert failures == [f"FAIL k=5: verdict mismatch: stored {verdict} vs recomputed PASS"]


def test_the_first_bad_cell_is_in_column_order(tmp_path, capsys, run_csv):
    """verify converts k, then each checked column in turn: its error names the
    first bad cell of the first column that holds one."""
    for edits, named in [([(3, 1, b"late"), (1, 2, b"early")], "'late'"),
                         ([(2, 0, b"2.5"), (1, 1, b"early")], "int() with base 10: '2.5'")]:
        raw = run_csv
        for row, column, text in edits:
            raw = _edit_cell(raw, row, column, text)
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        capsys.readouterr()
        assert main(["verify", str(path)]) == 3
        assert named in capsys.readouterr().err


def test_an_accelerated_run_is_read_by_loadtxt(tmp_path, monkeypatch):
    """At K = 10^4 (a CSV of several writer chunks, NaN cells included) verify
    reads the file with one loadtxt call and no fallback."""
    (tmp_path / "l.cfg").write_text("problem = lse:dim=2\nmethod = accelerated\nx0 = 1.3,-1.1\n"
                                    "iterations = 10000\ncsv = l.csv\nreport = l.txt\n")
    assert main(["run", "--config", str(tmp_path / "l.cfg"), "--out", str(tmp_path)]) == 0
    calls = _spy_loadtxt(monkeypatch)
    assert main(["verify", str(tmp_path / "l.csv")]) == 0
    assert calls == ["read"]
