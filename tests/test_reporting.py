import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ccfom
from ccfom import cells, reporting
from ccfom.proxprobe import CompositeProblem, probe_instance, regularizer_from_id
from ccfom.reporting import (
    CSV_VERSION_LINE,
    RUN_COLUMNS,
    CONJECTURE_COLUMNS,
    Table,
    conjecture_rows,
    fmt,
    format_rows,
    open_csv,
    read_csv,
    write_csv,
)
from conftest import csv_cells


def _cells(column) -> list[str]:
    """A column's cells, each spelt alone by fmt: the reference the kernel must meet."""
    return [fmt(v) for v in column]


def _reference_csv(meta, columns, rows: Table) -> str:
    """The schema-v1 text as csv.writer writes it, each cell spelt by fmt."""
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n")
    for key, val in meta.items():
        buf.write(f"# {key} = {val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*(_cells(rows.columns[c]) for c in columns)))
    return buf.getvalue()


_FLOATS = [math.nan, -math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf, -0.0, 0.0,
           5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, 2.0**53 + 2.0, 1e16, 123.0]
_TEXTS = ["plain", "a,b", 'say "hi"', "two\nlines", '",\n"', "", " spaced ", "quad:diag=1,100"]
_MIXED = ["text", 1.5, 7, True, math.nan, "x,y"]


def _table(n: int) -> Table:
    """n rows cycling through every kind of cell, one column per kind, and two
    constant text columns, one of them quoted."""
    return Table({
        "k": np.arange(n),
        "f": np.resize(np.array(_FLOATS), n),
        "neg": -np.resize(np.array(_FLOATS), n),
        "int32": np.resize(np.array([-3, 0, 2**31 - 1], dtype=np.int32), n),
        "flag": np.resize(np.array([True, False, True]), n),
        "flag64": np.resize(np.array([0, 1], dtype=np.int64), n),
        "text": np.resize(np.array(_TEXTS), n),
        "mixed": [_MIXED[i % len(_MIXED)] for i in range(n)],
        "verdict": np.full(n, "PASS"),
        "psi": np.full(n, 'l1 "lam", 0.5'),
    })


_CHUNK = ccfom.methods._BLOCK_SIZE


@pytest.mark.parametrize("n", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_write_csv_is_bytewise_that_of_csv_writer(tmp_path, n):
    rows = _table(n)
    meta = {"problem": "quad:diag=1,100", "eps_rel": "1e-09"}
    columns = ["k", "f", "neg", "int32", "flag", "flag64", "text", "mixed", "verdict", "psi"]
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
        cells = zip(*(_cells(rows.columns[c]) for c in columns))
        writer.writerows([*map(fmt, prefix), *row] for row in cells)
    assert got.read_text() == buf.getvalue()


def test_a_text_cell_holding_nul_is_refused(tmp_path):
    """The grid drops NUL bytes, so a cell that holds one cannot be written."""
    for column in (["a\0b"], np.array(["PASS", "a\0b", "PASS"])):  # a list, and a `U` array
        with pytest.raises(ValueError, match="NUL"):
            write_csv(tmp_path / "t.csv", {}, ["t"], Table({"t": column}))
    with pytest.raises(ValueError, match="NUL"):
        with open_csv(tmp_path / "p.csv", {}, ["p", "k"]) as write:
            for grid in format_rows(["k"], Table({"k": np.arange(3)})):
                write(grid, ("a\0b",))


def test_written_cells_parse_back_with_the_csv_module(tmp_path):
    rows = _table(2 * len(_TEXTS) * len(_MIXED))
    columns = list(rows.columns)
    path = tmp_path / "t.csv"
    write_csv(path, {}, columns, rows)
    with open(path, newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    parsed = list(csv.reader(lines))
    assert parsed[0] == columns
    assert parsed[1:] == [list(r) for r in zip(*(_cells(rows.columns[c]) for c in columns))]


# ---------------------------------------------------------------------------
# the cell kernel against "%.17g", each value spelt alone


def _assert_spelt_as_17g(x: np.ndarray):
    got = csv_cells(x)
    assert len(got) == x.size
    bad = [(v, g, r) for v, g, r in zip(x.tolist(), got, map("%.17g".__mod__, x.tolist()))
           if g != r]
    assert not bad, bad[:5]


def test_kernel_on_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    exponent = np.uint64(0x7FF0_0000_0000_0000)
    bits[:5000] &= ~exponent  # zeros and subnormals of both signs
    bits[5000:10000] |= exponent  # NaNs with payloads, and the infinities
    bits[5000:5002] &= ~np.uint64(0x000F_FFFF_FFFF_FFFF)
    x = bits.view(np.float64)
    assert np.isinf(x).sum() >= 2 and np.isnan(x).sum() > 5000
    assert (x[:5000] != 0).any() and (np.abs(x[:5000]) < 2.3e-308).all()
    _assert_spelt_as_17g(x)


def test_kernel_on_exact_decimal_ties():
    """k + 1/4 and k + 3/4 for 16-digit k < 2^51 are exact 18-digit decimals
    ending in 5: "%.17g" rounds them half to even."""
    k = np.random.default_rng(3).integers(10**15, 2**51, 20_000).astype(np.float64)
    x = np.concatenate([k + 0.25, k + 0.75])
    assert ((x - np.concatenate([k, k])) * 4 % 2 == 1).all()
    _assert_spelt_as_17g(np.concatenate([x, -x]))


def _neighbours(x: np.ndarray, ulps: int) -> np.ndarray:
    """x and the floats within ``ulps`` of it, both signs (x positive and finite)."""
    bits = x.view(np.int64)
    near = np.concatenate([bits + d for d in range(-ulps, ulps + 1)])
    near = near[near >= 0].view(np.float64)
    near = near[np.isfinite(near)]
    return np.concatenate([near, -near])


def test_kernel_on_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    _assert_spelt_as_17g(_neighbours(powers, 2))


def test_kernel_at_the_edges_of_its_fast_range():
    lo, hi = cells.FAST_EXP
    edges = np.array([float(f"{m}e{e}") for e in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)
                      for m in (1, 1.5, 9.999999999999999)])
    _assert_spelt_as_17g(_neighbours(edges, 50))


def test_kernel_spells_values_itself_and_leaves_ties_to_fmt(monkeypatch):
    """The fast path spells all but a few values (next to a power of ten, or
    exact ties: 10^15 <= |x| < 10^17 ending in .25 or .75); every tie goes to
    fmt, since its fraction is 1/2."""
    spelt = []
    monkeypatch.setattr(cells, "fmt", lambda v: spelt.append(v) or fmt(v))
    rng = np.random.default_rng(11)
    x = rng.standard_normal(100_000) * 10.0 ** rng.integers(-250, 250, 100_000)
    assert csv_cells(x) == list(map("%.17g".__mod__, x.tolist()))
    assert len(spelt) < 200
    spelt.clear()
    k = rng.integers(10**15, 2**51, 1000).astype(np.float64)
    assert csv_cells(k + 0.75) == list(map("%.17g".__mod__, (k + 0.75).tolist()))
    assert spelt == (k + 0.75).tolist()


@given(st.lists(st.floats(), max_size=64))
def test_kernel_spells_any_float_as_17g(values):
    _assert_spelt_as_17g(np.array(values, dtype=np.float64))


def test_integer_and_flag_cells_are_str():
    rng = np.random.default_rng(5)
    extremes = [0, 1, -1, 9, 10, -10, 9999, 10_000, 2**63 - 1, -(2**63)]
    signed = np.concatenate([np.array(extremes), rng.integers(-(2**63), 2**63 - 1, 20_000),
                             rng.integers(-1000, 1000, 1000)])
    unsigned = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64),
                               rng.integers(0, 2**64, 1000, dtype=np.uint64)])
    for v in (signed, unsigned, signed.astype(np.int32), signed.astype(np.int8),
              np.arange(10), np.array([True, False, True])):
        assert csv_cells(v) == [str(int(i)) for i in v.tolist()]
    assert csv_cells(np.array([], dtype=np.int64)) == csv_cells(np.array([])) == []


_RUNS = [("quad:diag=1,100", "gradient", 2), ("quad:diag=1,100:b=3,-2", "accelerated", 2),
         ("lse:dim=2", "gradient", 2), ("lse:dim=3", "accelerated", 3),
         ("norm:G=2:dim=3", "subgradient", 3), ("maxaff:dim=3:pieces=6:seed=0", "subgradient", 3),
         ("maxaff:abs=2", "subgradient", 1)]


@pytest.mark.parametrize("pid, method, dim", _RUNS)
def test_run_tables_are_written_as_the_per_cell_reference(tmp_path, pid, method, dim):
    p, K = ccfom.from_id(pid), 4099
    x0 = np.linspace(-1.5, 2.0, dim)
    if method == "subgradient":
        trace = ccfom.run_subgradient(p, x0, ccfom.StepSchedule.horizon_sqrt(K), K)
    else:
        trace = getattr(ccfom, f"run_{method}")(p, x0, K)
    rows = reporting.build_rows(trace, p, ccfom.verify_run(trace, p)).rows
    path = tmp_path / "run.csv"
    write_csv(path, {"problem": pid}, RUN_COLUMNS, rows)
    assert path.read_text() == _reference_csv({"problem": pid}, RUN_COLUMNS, rows)


@pytest.mark.parametrize("phi, psi, x0", [("quad:diag=1,10", "l1:lam=0.5", [1.0, -1.0]),
                                          ("quad:diag=4:b=10", "box:lo=-1:hi=1", [0.5])])
def test_conjecture_tables_are_written_as_the_per_cell_reference(tmp_path, phi, psi, x0):
    cp = CompositeProblem(phi=ccfom.from_id(phi), psi=regularizer_from_id(psi))
    rows = conjecture_rows(cp, *probe_instance(cp, x0, 4200))
    path = tmp_path / "conj.csv"
    write_csv(path, {}, CONJECTURE_COLUMNS, rows)
    assert path.read_text() == _reference_csv({}, CONJECTURE_COLUMNS, rows)
