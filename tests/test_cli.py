import errno
import math
import os
import re
import shutil
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ccfom
from ccfom.certificates import Check
from ccfom import cells, proxprobe, reporting
from ccfom.cli import _CHECKED_COLUMNS, execute_cell, main
from ccfom.config import ExperimentConfig
from ccfom.proxprobe import Z_RECURSION_NOTE, ProbeResult, probe_instance, regularizer_from_id
from ccfom.reporting import CSV_VERSION_LINE, RUN_COLUMNS, conjecture_report, read_csv
from conftest import console

STORED_CSVS = Path(__file__).parent / "data"


def write_cfg(path: Path, **kv) -> Path:
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


# (10^6 + 1) x 100 stored scalars: over the 10^8 trace budget
QUAD_100 = "quad:diag=" + ",".join(["1"] * 100)
OVER_BUDGET = 1_000_000


def run_cfg(tmp_path, name="run", **kv) -> Path:
    kv.setdefault("csv", f"{name}.csv")
    kv.setdefault("report", f"{name}.report.txt")
    return write_cfg(tmp_path / f"{name}.cfg", **kv)


# Cells whose outputs several tests read: each is run once in a module,
# through :func:`shared_run`
SHARED_CELLS = {
    "norm": ("run", dict(problem="norm:G=2:dim=3", method="subgradient", x0="1.0,0.5,-0.25",
                         iterations=25)),
    # K=10^4: summary-first reports, a line per failing, vacuous or worst record
    "long": ("run", dict(problem="quad:diag=1,100", method="accelerated", x0="1.0,1.0",
                         iterations=10_000)),
    "conj": ("conjecture", dict(problem="quad:diag=1,10", psi="l1:lam=0.5",
                                method="prox_accelerated", x0="1.0,-1.0", iterations=10_000)),
    "suite": ("conjecture", dict(suite="lasso", instances=20, iterations=200)),
    "box": ("conjecture", dict(problem="quad:diag=4:b=10", psi="box:lo=-1:hi=1",
                               method="prox_accelerated", x0="0.5", iterations=2000)),
    "sweep": ("sweep", dict(problem="quad:diag=1,100; lse:dim=2", method="gradient; accelerated",
                            x0="0.5,-1.5", iterations=500)),
}
SHARED_CELLS["sweep in res"] = ("sweep", dict(SHARED_CELLS["sweep"][1], csv="res/sweep.csv"))


@pytest.fixture(scope="module")
def shared_run(tmp_path_factory):
    """``shared_run(name)``: the directory ``name/`` that cell ``name`` of
    SHARED_CELLS wrote its outputs to, run once in this module from the config
    ``name.cfg`` beside it (csv ``name.csv`` unless the cell names one, report
    ``name.report.txt``)."""
    root, done = tmp_path_factory.mktemp("shared"), {}

    def shared(name):
        if name not in done:
            command, kv = SHARED_CELLS[name]
            kv = {"csv": f"{name}.csv", **kv, "report": f"{name}.report.txt"}
            (root / name / kv["csv"]).parent.mkdir(parents=True, exist_ok=True)
            cfg = write_cfg(root / f"{name}.cfg", **kv)
            done[name] = main([command, "--config", str(cfg), "--out", str(root / name)])
        assert done[name] == 0
        return root / name

    return shared


def written_files(out: Path) -> dict[str, bytes]:
    """Each file a command wrote under ``out`` (no ``.verify.txt``), by relative
    path, with ``out`` spelt ``<out>`` where a file names it."""
    return {p.relative_to(out).as_posix(): p.read_bytes().replace(bytes(out), b"<out>")
            for p in sorted(out.rglob("*")) if p.is_file() and not p.name.endswith(".verify.txt")}


def fill_disk_at_second_chunk(monkeypatch):
    """Make the disk fill while the second chunk of CSV rows is written."""
    honest, chunks = cells.grid_text, []

    def full(grid):
        chunks.append(None)
        if len(chunks) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return honest(grid)

    monkeypatch.setattr(cells, "grid_text", full)


class TestRun:
    def test_gradient_identity_quad(self, tmp_path):
        cfg = run_cfg(tmp_path, problem="quad:diag=1", method="gradient", x0="2.0", iterations=10)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        meta, cols, rows = read_csv(tmp_path / "run.csv")
        assert cols == RUN_COLUMNS
        assert [int(r["k"]) for r in rows] == list(range(1, 11))
        assert all(float(r["lhs_k"]) == 0.0 for r in rows)
        assert float(rows[0]["cert_k"]) == 0.0
        assert all(r["verdict"] == "PASS" for r in rows)
        assert meta["problem"] == "quad:diag=1"

    def test_subgradient_equality_instance(self, tmp_path):
        cfg = run_cfg(tmp_path, problem="norm:G=1:dim=1", method="subgradient", x0="1.0", iterations=0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "run.csv")
        assert len(rows) == 1
        row = rows[0]
        assert float(row["lhs_k"]) == 0.5
        assert float(row["cert_k"]) == 0.5
        assert float(row["theorem_bound_k"]) == 1.0

    def test_missing_L_is_config_error(self, tmp_path):
        cfg = run_cfg(tmp_path, problem="norm:G=1:dim=1", method="gradient", x0="1.0", iterations=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_unreadable_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "kv",
        [
            dict(problem="quad:diag=1", method="teleport", x0="1.0", iterations=5),
            dict(problem="quad:diag=1", method="gradient", x0="1.0,2.0", iterations=5),
            dict(problem="quad:diag=1", method="gradient", x0="1.0", iterations=0),
            dict(problem="norm:G=1:dim=1", method="subgradient", x0="1.0", iterations=5,
                 schedule="explicit:1.0"),
            dict(problem="quad:diag=1", method="gradient", x0="1.0", iterations=5,
                 schedule="constant:t=0.5"),
            dict(problem="quad:diag=1", method="prox_accelerated", x0="1.0", iterations=5),
            dict(problem="norm:G=1:dim=1", method="subgradient", x0="1.0", iterations=3,
                 schedule="explicit:0.1,0.1"),
            dict(problem="norm:G=1:dim=1", method="subgradient", x0="1.0", iterations=5,
                 schedule="inverse_L"),
            dict(problem="quad:diag=1", method="gradient", x0="1.0", iterations=5, workers=2),
            # one number where a list is given
            dict(problem="norm:G=2,3:dim=3", method="subgradient", iterations=5),
            dict(problem="maxaff:abs=1,5", method="subgradient", iterations=5),
        ],
    )
    def test_invalid_configs_exit_3(self, tmp_path, kv):
        cfg = run_cfg(tmp_path, **kv)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.report.txt").exists()

    def test_trace_over_budget_exits_3(self, tmp_path, capsys):
        cfg = run_cfg(tmp_path, problem=QUAD_100, method="gradient", iterations=OVER_BUDGET)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "exceeds the 1e+08 budget" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_negative_tolerance_flag_exits_3(self, tmp_path):
        cfg = run_cfg(tmp_path, problem="quad:diag=1", method="gradient", x0="1.0", iterations=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--eps-rel", "-1"]) == 3

    def test_oracle_failure_exits_4(self, tmp_path):
        # f(x0) overflows to +inf at the first oracle query
        cfg = run_cfg(tmp_path, problem="quad:diag=1", method="gradient",
                      x0="1.0e200", iterations=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 4

    def test_objective_overflow_at_the_halving_edge_exits_4(self, tmp_path, capsys):
        # ||x0||^2 = 2.88e308 overflows, although its half would not
        cfg = run_cfg(tmp_path, problem="quad:diag=1,1", method="gradient",
                      x0="1.2e154,1.2e154", iterations=20)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        assert "objective value is not finite at iteration 0" in capsys.readouterr().err

    # on a rank-deficient instance (two pieces in 3-D), whose minimum and conjugate
    # stay LPs: 0, the optimum LP while the problem is built; 1, the first conjugate LP
    @pytest.mark.parametrize("good_calls", [0, 1])
    def test_failed_lp_exits_4(self, tmp_path, monkeypatch, capsys, good_calls):
        import scipy.optimize

        real = scipy.optimize.linprog
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) <= good_calls:
                return real(*args, **kwargs)
            return scipy.optimize.OptimizeResult(status=4, success=False, message="forced")

        monkeypatch.setattr(scipy.optimize, "linprog", flaky)
        cfg = run_cfg(tmp_path, problem="maxaff:dim=3:pieces=2:seed=0", method="subgradient",
                      x0="0.5,-1.0,0.25", iterations=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        assert "LP failed: forced" in capsys.readouterr().err

    def test_csv_on_dev_null_exits_0_and_writes_the_report(self, tmp_path):
        """An output that is not a regular file is written but not cut to length."""
        cfg = run_cfg(tmp_path, problem="quad:diag=1", method="gradient", x0="2.0", iterations=10,
                      csv=os.devnull)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "run.report.txt").read_text().startswith("run: problem=quad:diag=1 ")

    def test_failed_rewrite_holds_only_what_was_written(self, tmp_path, monkeypatch, capsys):
        """A CSV over a longer file, whose second chunk of rows cannot be written,
        holds the header and the first chunk, and no byte of the old file."""
        kv = dict(problem="quad:diag=1,10", method="gradient", x0="1.0,-1.0", iterations=5000)
        assert main(["run", "--config", str(run_cfg(tmp_path, "ref", **kv)),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ref.csv").read_bytes().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if line.startswith(b"k,")) + 1
        first_chunk = b"".join(lines[: header + ccfom.methods._BLOCK_SIZE])
        stale = tmp_path / "run.csv"
        stale.write_bytes(b"stale\n" * 400_000)
        assert stale.stat().st_size > len(first_chunk)
        fill_disk_at_second_chunk(monkeypatch)
        capsys.readouterr()
        assert main(["run", "--config", str(run_cfg(tmp_path, **kv)), "--out", str(tmp_path)]) == 3
        assert "config error: cannot write an output: No space left on device" in (
            capsys.readouterr().err)
        assert stale.read_bytes() == first_chunk

    def test_svg_output_parses(self, tmp_path):
        cfg = run_cfg(tmp_path, problem="quad:diag=1,100", method="accelerated",
                      x0="ones", iterations=60, svg="run.svg")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        import xml.etree.ElementTree as ET

        root = ET.parse(tmp_path / "run.svg").getroot()
        assert root.tag.endswith("svg")
        assert (tmp_path / "run.svg").read_text().count("polyline") >= 2  # curve + bound

    def test_svg_of_a_run_from_the_minimizer_has_nothing_to_plot(self, tmp_path):
        # every gap and bound is 0: no point of a log-scale plot
        cfg = run_cfg(tmp_path, problem="quad:diag=1,100", method="gradient", x0="zeros",
                      iterations=5, svg="run.svg")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "run.svg").read_text()
        assert "no positive values to plot" in svg and "polyline" not in svg


class TestVerify:
    def make_run(self, tmp_path, **kv):
        kv.setdefault("problem", "norm:G=1:dim=1")
        kv.setdefault("method", "subgradient")
        kv.setdefault("x0", "1.37")
        kv.setdefault("iterations", 12)
        cfg = run_cfg(tmp_path, **kv)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        return tmp_path / "run.csv"

    def test_idempotent_on_fresh_output(self, tmp_path):
        csv = self.make_run(tmp_path)
        assert main(["verify", str(csv)]) == 0
        report = (tmp_path / "run.csv.verify.txt").read_text().splitlines()
        assert len(report) == 3 + len(_CHECKED_COLUMNS)
        assert report[2].startswith("stored chain certificate: 13 applicable, 0 failing, worst ")
        # each cross-checked column reproduces exactly: a NaN cell where a NaN is recomputed too
        assert report[3:] == [f"column {c}: 13 applicable, 0 failing, worst residual/tol 0 at k=0"
                              for c in _CHECKED_COLUMNS]

    def test_corrupted_f_value_fails_at_that_k(self, tmp_path, capsys):
        csv = self.make_run(tmp_path)
        lines = csv.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("5,"):
                parts = line.split(",")
                parts[1] = repr(float(parts[1]) * 1.1)
                lines[i] = ",".join(parts)
                break
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "k=5" in out

    @pytest.mark.parametrize("bad_k", ["999", "-5"])
    def test_out_of_range_k_is_index_mismatch(self, tmp_path, capsys, bad_k):
        csv = self.make_run(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(csv.read_text().replace("\n5,", f"\n{bad_k},", 1))
        assert main(["verify", str(bad)]) == 2
        assert f"k={bad_k}: index mismatch with recomputed row 5" in capsys.readouterr().out

    def test_non_numeric_field_exits_3(self, tmp_path):
        csv = self.make_run(tmp_path)
        lines = csv.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        lines[i] = "5,abc," + lines[i].split(",", 2)[2]  # f_xk
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 3

    def test_k_outside_int64_exits_3(self, tmp_path, capsys):
        csv = self.make_run(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(csv.read_text().replace("\n5,", "\n99999999999999999999,", 1))
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 3
        assert capsys.readouterr().err == f"config error: {bad}: a k is outside the int64 range\n"

    def test_row_with_a_missing_field_exits_3(self, tmp_path, capsys):
        csv = self.make_run(tmp_path)
        lines = csv.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        lines[i] = lines[i].rsplit(",", 1)[0]  # no verdict
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 3
        assert capsys.readouterr().err == (
            f"config error: {bad}: row has 10 fields, header has 11\n")

    def test_file_that_is_not_text_exits_3(self, tmp_path, capsys):
        csv = self.make_run(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(csv.read_bytes().replace(b"PASS", b"PA\xffSS", 1))
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: ") and "0xff" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["split in numpy", "csv module"])
    def test_cell_over_the_field_size_limit_exits_3(self, tmp_path, capsys, ending):
        csv = self.make_run(tmp_path)
        lines = csv.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        lines[i] = lines[i].rsplit(",", 1)[0] + "," + "P" * 140_000
        bad = tmp_path / "bad.csv"
        bad.write_bytes(ending.join(lines).encode() + ending.encode())
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 3
        assert capsys.readouterr().err == (
            f"config error: {bad}: field larger than field limit (131072)\n")

    def test_rewrite_killed_midway_is_rejected(self, tmp_path):
        """A rewrite killed mid-write leaves the old file's tail behind the new
        bytes: here the first half of a K=100 CSV over a K=200 CSV of one cell."""
        short, long = tmp_path / "short", tmp_path / "long"
        short.mkdir()
        long.mkdir()
        new = self.make_run(short, iterations=100).read_bytes()
        with open(self.make_run(long, iterations=200), "r+b") as old:
            old.write(new[: len(new) // 2])
        assert main(["verify", str(long / "run.csv")]) in (2, 3)

    @pytest.mark.parametrize("edit, stored", [
        (lambda lines: lines[:-1], 12),
        (lambda lines: lines + [lines[-1]], 14),
    ], ids=["last row dropped", "row appended"])
    def test_row_count_mismatch_is_the_only_failure(self, tmp_path, capsys, edit, stored):
        csv = self.make_run(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(edit(csv.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 2
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("FAIL ")]
        assert failures == [f"FAIL row count mismatch: stored {stored}, recomputed 13"]

    def test_cell_conversion_is_that_of_float_and_int(self):
        """verify converts a whole column at once; each cell gets float()'s
        (and, for k, int()'s) value, bit for bit, and their errors."""
        cells = ["nan", "-nan", "NaN", "inf", "-inf", "-Infinity", "1e5000", "-1e5000", "1_0",
                 " 1.5 ", "\t-2e-3\n", "5e-324", "1e-400", "-0.0", "0.1", "+.5", "5."]
        floats = np.asarray(cells, dtype=float)
        assert floats.view(np.int64).tolist() == np.array(
            [float(c) for c in cells]).view(np.int64).tolist()
        ks = [" 5 ", "1_0", "-3", "+7", "9223372036854775807"]
        assert np.asarray(ks, dtype=np.int64).tolist() == [int(c) for c in ks]
        for bad in ["abc", "", "1__0", "0x10"]:
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                np.asarray([bad], dtype=float)
        with pytest.raises(ValueError, match=re.escape("'5.0'")):
            np.asarray(["5.0"], dtype=np.int64)
        with pytest.raises(OverflowError):
            np.asarray(["9223372036854775808"], dtype=np.int64)

    def test_respelt_cells_reproduce(self, tmp_path):
        csv = self.make_run(tmp_path)
        lines = csv.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        cells = lines[i].split(",")
        cells[0] = " 5 "
        cells[1:10] = [f" {c}\t" for c in cells[1:10]]
        lines[i] = ",".join(cells)
        respelt = tmp_path / "respelt.csv"
        respelt.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(respelt)]) == 0

    def edit_cell(self, tmp_path, csv, row, column, edit) -> tuple[int, Path]:
        """A copy of ``csv`` with ``edit`` applied to one cell of data row ``row``; (k, path)."""
        lines = csv.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("k,")) + 1
        i = first + row if row >= 0 else len(lines) + row
        cells = lines[i].split(",")
        j = RUN_COLUMNS.index(column)
        cells[j] = edit(cells[j])
        lines[i] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        return int(cells[0]), bad

    def test_nan_cell_respelt_reproduces(self, tmp_path, capsys):
        csv = self.make_run(tmp_path)

        def respell(cell):
            assert cell == "nan"
            return "NaN"

        _, bad = self.edit_cell(tmp_path, csv, -1, "residual_induction", respell)
        assert main(["verify", str(bad)]) == 0
        assert "all 13 rows reproduce" in capsys.readouterr().out

    def test_number_where_nan_is_recomputed_fails(self, tmp_path, capsys):
        csv = self.make_run(tmp_path)
        k, bad = self.edit_cell(tmp_path, csv, -1, "residual_induction", lambda cell: "1")
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 2
        assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL k={k}: column residual_induction mismatch: stored 1 vs recomputed nan "
            "(tolerance 1.0000000000000001e-09)"
        ]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["f_xk", "mu_k"])
    def test_non_finite_where_finite_is_recomputed_fails_at_that_k(self, tmp_path, capsys,
                                                                 column, value):
        csv = self.make_run(tmp_path)
        _, _, rows = read_csv(csv)
        assert math.isfinite(float(rows[5][column]))
        k, bad = self.edit_cell(tmp_path, csv, 5, column, lambda cell: value)
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 2
        named = [line for line in capsys.readouterr().out.splitlines() if "mismatch" in line]
        assert len(named) == 1
        assert named[0].startswith(f"FAIL k={k}: column {column} mismatch: stored {value} vs ")

    def test_rejects_non_schema_file(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("k,f\n1,2\n")
        assert main(["verify", str(f)]) == 3

    def test_rejects_a_conjecture_csv(self, tmp_path, capsys):
        cfg = run_cfg(tmp_path, **CONJ_KV)
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "run.csv")]) == 3
        assert "unexpected columns" in capsys.readouterr().err

    def test_rejects_empty_trace(self, tmp_path):
        csv = self.make_run(tmp_path)
        lines = [l for l in csv.read_text().splitlines() if l.startswith("#") or l.startswith("k,")]
        empty = tmp_path / "empty.csv"
        empty.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(empty)]) == 3

    @pytest.mark.parametrize("prob,method,x0,K", [
        ("quad:diag=1,10", "gradient", "ones", 40),
        ("lse:dim=2", "accelerated", "3.0,-3.0", 40),
        ("maxaff:dim=5:pieces=8:seed=2", "subgradient", "0.5,-1.5,2.0,1.0,-0.5", 500),
        # rank-deficient: the conjugate is one LP per k
        ("maxaff:dim=3:pieces=2:seed=0", "subgradient", "0.5,-1.0,0.25", 200),
        # 1/(1/L) differs from L
        ("quad:diag=3,7.3", "gradient", "1.0,1.0", 10_000),
    ], ids=["gradient", "accelerated", "maxaff5", "maxaff2-lp", "gradient-7.3"])
    def test_run_verifies(self, tmp_path, prob, method, x0, K):
        cfg = run_cfg(tmp_path, problem=prob, method=method, x0=x0, iterations=K)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["verify", str(tmp_path / "run.csv")]) == 0

    @pytest.mark.parametrize("name", ["quad_gradient.csv", "quad_accelerated.csv", "norm_subgradient.csv"])
    def test_stored_v1_csv_verifies(self, tmp_path, capsys, name):
        # CSVs written by ccfom at 79f06e4, at K=50; verify writes its report
        # beside the CSV, so each is verified from a copy
        csv = tmp_path / name
        shutil.copyfile(STORED_CSVS / name, csv)
        assert main(["verify", str(csv)]) == 0
        assert re.search(r"^verify: all \d+ rows reproduce;", capsys.readouterr().out, re.M)


    # one corruption per column that ``verify`` cross-checks, at a single k
    _CORRUPT = {
        "f_xk": lambda v: repr(float(v) + 1e3),
        "lhs_k": lambda v: repr(float(v) - 1e3),
        "cert_k": lambda v: repr(float(v) - 1e3),
        "vacuous_flag": lambda v: "1",
        "mu_k": lambda v: repr(float(v) - 1e3),
        "theta_k": lambda v: repr(float(v) - 1e3),
        "theorem_bound_k": lambda v: repr(float(v) - 1e3),
        "residual_chain_max": lambda v: repr(float(v) - 1e3),
        "residual_induction": lambda v: repr(float(v) - 1e3),
        "verdict": lambda v: "FAIL",
    }

    @pytest.mark.parametrize("column", list(_CORRUPT))
    @pytest.mark.parametrize("run", [
        dict(),
        dict(problem="quad:diag=1,10", method="accelerated", x0="ones", iterations=20),
    ], ids=["subgradient", "accelerated"])
    def test_fault_matrix_names_exactly_the_corrupted_column(self, tmp_path, capsys, column, run):
        assert set(self._CORRUPT) == set(_CHECKED_COLUMNS) | {"verdict"}
        csv = self.make_run(tmp_path, **run)
        lines = csv.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("k,"))
        i = header + 6
        k = int(lines[i].split(",")[0])
        parts = lines[i].split(",")
        j = RUN_COLUMNS.index(column)
        parts[j] = self._CORRUPT[column](parts[j])
        lines[i] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 2
        failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
        named = [f for f in failures if "mismatch" in f]
        if column == "verdict":
            assert named == [f"FAIL k={k}: verdict mismatch: stored FAIL vs recomputed PASS"]
        else:
            assert len(named) == 1 and named[0].startswith(f"FAIL k={k}: column {column} mismatch: ")
        stored_check = [f for f in failures if "chain certificate on stored values" in f]
        if column in ("f_xk", "cert_k"):
            assert f"FAIL k={k}: chain certificate on stored values" in "\n".join(stored_check)
        else:
            assert stored_check == []
        # the report: its header, the stored-certificate summary, one summary per
        # cross-checked column (only the corrupted one failing), then the FAIL lines of stdout
        report = (tmp_path / "bad.csv.verify.txt").read_text().splitlines()
        failing = len(stored_check)
        assert re.match(rf"stored chain certificate: \d+ applicable, {failing} failing", report[2])
        columns = 3 + len(_CHECKED_COLUMNS)
        for c, line in zip(_CHECKED_COLUMNS, report[3:columns]):
            failed = rf"1 failing \(first at k={k}\)" if c == column else "0 failing"
            assert re.match(rf"column {c}: \d+ applicable, {failed}, worst ", line), line
        assert report[columns:] == failures


class TestSweep:
    def test_two_methods_aggregate_and_svg(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "sweep.cfg",
            problem="quad:diag=1,100",
            method="gradient; accelerated",
            x0="ones",
            iterations=50,
            csv="sweep.csv",
            report="sweep.report.txt",
            svg="sweep.svg",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        meta, cols, rows = read_csv(tmp_path / "sweep.csv")
        assert cols == ["problem", "method", "iterations"] + RUN_COLUMNS
        methods = {r["method"] for r in rows}
        assert methods == {"gradient", "accelerated"}
        assert (tmp_path / "sweep.cell000.csv").exists()
        assert (tmp_path / "sweep.svg").exists()

    def test_cell_csvs_sit_next_to_the_aggregate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sw.cfg", problem="quad:diag=1,10",
                        method="gradient; accelerated", x0="ones", iterations=10,
                        csv="res/sweep.csv", report="sweep.report.txt")
        out = tmp_path / "o"
        (out / "res").mkdir(parents=True)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert written == ["res/sweep.cell000.csv", "res/sweep.cell001.csv", "res/sweep.csv",
                           "sweep.report.txt"]
        printed = capsys.readouterr().out
        for i in range(2):
            cell = out / "res" / f"sweep.cell{i:03d}.csv"
            assert f"(10 rows; {cell})" in printed
            assert main(["verify", str(cell)]) == 0

    def test_single_cell_sweep_matches_run(self, tmp_path):
        common = dict(problem="quad:diag=1,10", method="gradient", x0="ones", iterations=20)
        run_dir, sweep_dir = tmp_path / "r", tmp_path / "s"
        cfg_run = run_cfg(tmp_path, name="single", **common)
        assert main(["run", "--config", str(cfg_run), "--out", str(run_dir)]) == 0
        cfg_sweep = write_cfg(tmp_path / "sw.cfg", csv="agg.csv", report="agg.txt", **common)
        assert main(["sweep", "--config", str(cfg_sweep), "--out", str(sweep_dir)]) == 0
        _, _, run_rows = read_csv(run_dir / "single.csv")
        _, _, sweep_rows = read_csv(sweep_dir / "agg.csv")
        assert len(run_rows) == len(sweep_rows)
        for a, b in zip(run_rows, sweep_rows):
            trimmed = {k: v for k, v in b.items() if k in RUN_COLUMNS}
            assert trimmed == a

    def test_aggregate_is_each_cell_csv_behind_its_prefix(self, tmp_path):
        cfg = write_cfg(tmp_path / "sw.cfg", problem="quad:diag=1,100; norm:G=1:dim=1",
                        method="gradient; subgradient", x0="ones", iterations="10; 20",
                        csv="sw.csv", report="sw.txt")
        # subgradient on quad (no G) and gradient on norm (no L) error and are skipped
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        expected = [CSV_VERSION_LINE + "\n", "# sweep = 8 cells\n", "# eps_rel = 1.0000000000000001e-09\n",
                    "# eps_abs = 1.0000000000000001e-09\n",
                    "problem,method,iterations," + ",".join(RUN_COLUMNS) + "\n"]
        cells = [("quad:diag=1,100", "gradient", K) for K in (10, 20)] + [None] * 4 + [
            ("norm:G=1:dim=1", "subgradient", K) for K in (10, 20)]
        for i, cell in enumerate(cells):
            path = tmp_path / f"sw.cell{i:03d}.csv"
            assert path.exists() == (cell is not None)
            if cell is None:
                continue
            pid, method, K = cell
            prefix = f'"{pid}"' if "," in pid else pid
            text = path.read_text()
            data = text[text.index("\nk,") + 1 :].splitlines(keepends=True)[1:]
            assert len(data) == K + (method == "subgradient")
            expected += [f"{prefix},{method},{K}," + line for line in data]
        assert (tmp_path / "sw.csv").read_text() == "".join(expected)

    def test_bound_scales_with_horizon(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "k.cfg",
            problem="norm:G=1:dim=1",
            method="subgradient",
            x0="1.0",
            iterations="10; 100; 1000",
            csv="k.csv",
            report="k.txt",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "k.csv")
        finals = {}
        for r in rows:
            K = int(r["iterations"])
            if int(r["k"]) == K:
                finals[K] = float(r["theorem_bound_k"])
        for K, bound in finals.items():
            assert bound == pytest.approx(1.0 / math.sqrt(K + 1), rel=1e-12)

    def test_sweep_continues_past_bad_cell(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "mix.cfg",
            problem="quad:diag=1; norm:G=1:dim=1",
            method="gradient",
            x0="1.0",
            iterations=5,
            csv="mix.csv",
            report="mix.txt",
        )
        # norm has no L: that cell exits 3, the quad cell still runs
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        _, _, rows = read_csv(tmp_path / "mix.csv")
        assert {r["problem"] for r in rows} == {"quad:diag=1"}

    def test_cell_over_trace_budget_exits_3_and_others_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "big.cfg", problem=QUAD_100, method="gradient",
                        iterations=f"5; {OVER_BUDGET}", csv="big.csv", report="big.txt")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        report = (tmp_path / "big.txt").read_text().splitlines()
        assert report[1].startswith("cell 0 (gradient quad:diag=1,")
        assert ": PASS (5 rows;" in report[1]
        assert report[2].startswith("cell 1 (")
        assert ": ERROR exit 3: trace of 100000100 scalars" in report[2]
        _, _, rows = read_csv(tmp_path / "big.csv")
        assert {r["iterations"] for r in rows} == {"5"}

    def test_sweep_and_verify_read_no_report_text(self, tmp_path, monkeypatch):
        from ccfom.reporting import RunRows

        def unread(self):
            raise AssertionError("report text was read")

        monkeypatch.setattr(RunRows, "report_lines", property(unread))
        cfg = write_cfg(
            tmp_path / "sweep.cfg",
            problem="quad:diag=1,100; norm:G=2:dim=2",
            method="gradient; accelerated; subgradient",
            x0="ones",
            iterations=30,
            csv="sweep.csv",
            report="sweep.report.txt",
        )
        # norm has no L and quad no G: three of the six cells exit 3
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        cells = sorted(tmp_path.glob("sweep.cell*.csv"))
        assert len(cells) == 3
        for cell in cells:
            assert main(["verify", str(cell)]) == 0


@pytest.mark.parametrize("name", ["norm", "suite", "box", "sweep"])
def test_reruns_are_byte_identical(shared_run, name):
    # the rerun in a fresh interpreter; every output, a sweep's cell CSVs too
    first = shared_run(name)
    second = first.with_name(f"{name} rerun")
    done = console(first.parent, "-m", "ccfom", SHARED_CELLS[name][0], "--config", f"{name}.cfg",
                   "--out", str(second))
    assert done.returncode == 0, done.stderr
    assert written_files(first) == written_files(second)


@pytest.mark.parametrize("name, verified", [
    ("norm", ["norm.csv"]), ("suite", []), ("box", []),
    ("sweep", [f"sweep.cell{i:03d}.csv" for i in range(4)]),
], ids=["norm", "suite", "box", "sweep"])
def test_reruns_over_longer_stale_outputs_are_byte_identical(tmp_path, name, verified):
    """A rerun into the first run's directory, after junk was appended to every
    file there (an SVG and each verify's report too), leaves each file as the
    first run wrote it."""
    command, kv = SHARED_CELLS[name]
    svg = {} if command == "conjecture" else {"svg": f"{name}.svg"}
    cfg = write_cfg(tmp_path / f"{name}.cfg", csv=f"{name}.csv", report=f"{name}.report.txt",
                    **svg, **kv)
    out = tmp_path / name

    def run() -> dict[Path, bytes]:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        for csv in verified:
            assert main(["verify", str(out / csv)]) == 0
        return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    first = run()
    assert len([p for p in first if p.name.endswith(".verify.txt")]) == len(verified)
    for path in first:
        with open(path, "ab") as f:
            f.write(b"junk,\n" * 10_000)
    assert run() == first


def test_sweep_cells_verify_and_sit_next_to_the_aggregate(shared_run):
    plain, nested = shared_run("sweep"), shared_run("sweep in res")
    csvs = {path: data for path, data in written_files(plain).items() if path.endswith(".csv")}
    assert len(csvs) == 5
    assert {f"res/{path}": data for path, data in csvs.items()} == {
        path: data for path, data in written_files(nested).items() if path.endswith(".csv")}
    for out in (plain, nested / "res"):
        for i in range(4):
            assert main(["verify", str(out / f"sweep.cell{i:03d}.csv")]) == 0


# A line of a summary-first report that names one record, and the one form it takes
REPORT_ITEM = re.compile(r"(instance [0-9]+ )?k=[0-9]+: ")
REPORT_ITEM_FORM = re.compile(REPORT_ITEM.pattern + r"(VACUOUS record: .+"
                              r"|[a-z_ ]+: residual=[^ ]+ tol=[^ ]+ (pass|FAIL|VIOLATION))")


@pytest.mark.parametrize("name", ["long", "conj", "suite"])
def test_report_is_under_64_kb_with_one_item_form(shared_run, name):
    report = (shared_run(name) / f"{name}.report.txt").read_bytes()
    assert len(report) < 65536
    items = [line for line in report.decode().splitlines() if REPORT_ITEM.match(line)]
    assert items and [line for line in items if not REPORT_ITEM_FORM.fullmatch(line)] == []


def test_long_run_verifies(shared_run):
    assert main(["verify", str(shared_run("long") / "long.csv")]) == 0


# One cell per method loop; the proximal l1 one is a conjecture cell
BLOCK_CELLS = {
    "subgradient": dict(problem="norm:G=2:dim=3", method="subgradient", x0="1.0,0.5,-0.25"),
    "gradient": dict(problem="lse:dim=2", method="gradient", x0="1.0,-2.0"),
    "accelerated": dict(problem="quad:diag=1,100", method="accelerated", x0="1.0,1.0"),
    "prox_accelerated l1": dict(problem="quad:diag=1,10", psi="l1:lam=0.5",
                                method="prox_accelerated", x0="1.0,-1.0"),
}


def walked_bytes(out: Path, kv) -> dict[str, bytes]:
    """The bytes of everything made by the layers that walk a K=10 run in blocks: its
    trace, its certificate's z/mu/theta, its check margins, and its CSV and report."""
    K, command = 10, "conjecture" if "psi" in kv else "run"
    out.mkdir()
    cfg = run_cfg(out, iterations=K, **kv)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    if command == "conjecture":
        cp = ccfom.CompositeProblem(phi=ccfom.from_id(kv["problem"]),
                                    psi=regularizer_from_id(kv["psi"]))
        trace, cert, result = probe_instance(cp, [float(c) for c in kv["x0"].split(",")], K)
        margins = {"conjecture margin": result.margins}
    else:
        config = ExperimentConfig.from_file(cfg, command)
        outcome = execute_cell(config.single_cell(), config.tolerances())
        trace, table = outcome.trace, outcome.rows.table
        cert, margins = table.certificate, {n: c.margin for n, c in table.checks.items()}
    arrays = {**{f"trace.{n}": getattr(trace, n) for n in ("x", "g", "t", "y", "theta")},
              **{f"certificate.{n}": getattr(cert, n) for n in ("z", "mu", "theta")}, **margins}
    return {**{n: a.tobytes() for n, a in arrays.items() if a is not None}, **written_files(out)}


@pytest.mark.parametrize("name", list(BLOCK_CELLS))
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, name):
    """The method loop, the certificate recursion and the CSV writer walk a run in
    blocks of ``methods._BLOCK_SIZE`` records: blocks of 1 and 3 records give the
    bytes of one default block."""
    grids = []
    honest = cells.grid
    monkeypatch.setattr(cells, "grid", lambda slots: grids.append(None) or honest(slots))
    default = walked_bytes(tmp_path / "default", BLOCK_CELLS[name])
    assert len(grids) == 1
    for block in (1, 3):
        monkeypatch.setattr(ccfom.methods, "_BLOCK_SIZE", block)
        grids.clear()
        assert walked_bytes(tmp_path / f"block {block}", BLOCK_CELLS[name]) == default, block
        assert len(grids) == -(-len(read_csv(tmp_path / "default" / "run.csv")[2]) // block)


class TestConjecture:
    def test_worked_example(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            problem="quad:diag=1",
            psi="l1:lam=1",
            method="prox_accelerated",
            x0="3.0",
            iterations=5,
            csv="c.csv",
            report="c.txt",
        )
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        meta, cols, rows = read_csv(tmp_path / "c.csv")
        assert "psi" in cols and "conj_margin_k" in cols
        assert float(rows[0]["conj_margin_k"]) == 0.0
        assert rows[0]["verdict"] == "CONJ-OK"
        assert "CONJECTURE" in meta["note"]
        report = (tmp_path / "c.txt").read_text()
        assert "z-recursion" in report

    def test_report_is_summary_first(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", problem="quad:diag=1,10", psi="l1:lam=0.5",
                        method="prox_accelerated", x0="1.0,-1.0", iterations=400,
                        csv="c.csv", report="c.txt")
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "CONJECTURE probe: 1 instance, 400 iterations checked, 0 violations found"
        lines = (tmp_path / "c.txt").read_text().splitlines()
        assert lines[0] == Z_RECURSION_NOTE
        assert lines[1] == ("records k=1..400: 400 checked, 0 VIOLATION, 0 VACUOUS, "
                            "1 itemised below (violating, vacuous or the worst)")
        worst = re.fullmatch(r"conjecture margin: 400 applicable, 0 failing, "
                             r"worst residual/tol \S+ at k=(\d+)", lines[2])
        assert worst
        # the one itemised record is the worst, with the CSV's residual (minus the margin)
        _, _, rows = read_csv(tmp_path / "c.csv")
        row = rows[int(worst[1]) - 1]
        assert re.fullmatch(rf"k={worst[1]}: conjecture margin: "
                            rf"residual={re.escape(row['residual_chain_max'])} tol=\S+ pass",
                            lines[3])
        assert lines[4:] == [last]

    def test_report_itemises_violating_vacuous_and_worst_records(self):
        ks = np.arange(1, 9)
        margins = np.array([0.5, -3.0, 0.2, -math.inf, 0.1, -2.0, 0.4, 0.3])
        tols = np.ones(8)
        vacuous = np.isneginf(margins)
        result = ProbeResult(
            ks=ks, f_values=np.zeros(8), psi_values=np.zeros(8),
            conjectured=margins, margins=margins, tolerances=tols, vacuous=vacuous,
            violated=Check(margins, tols, ~vacuous).failed, violations=(),
        )
        assert conjecture_report([result]) == [
            "records k=1..8: 8 checked, 2 VIOLATION, 1 VACUOUS, "
            "3 itemised below (violating, vacuous or the worst)",
            "conjecture margin: 7 applicable, 2 failing (first at k=2), "
            "worst residual/tol 3 at k=2",
            "k=2: conjecture margin: residual=3 tol=1 VIOLATION",
            "k=4: VACUOUS record: dual vector left dom(f*), certificate is -inf",
            "k=6: conjecture margin: residual=2 tol=1 VIOLATION",
            "CONJECTURE probe: 1 instance, 8 iterations checked, 2 violations found",
        ]

    def test_zero_psi_matches_plain_run_certificates(self, tmp_path):
        kv = dict(problem="quad:diag=1,10", x0="ones", iterations=30)
        cfg_c = write_cfg(tmp_path / "cz.cfg", psi="zero", method="prox_accelerated",
                          csv="cz.csv", report="cz.txt", **kv)
        cfg_r = write_cfg(tmp_path / "ar.cfg", method="accelerated",
                          csv="ar.csv", report="ar.txt", **kv)
        assert main(["conjecture", "--config", str(cfg_c), "--out", str(tmp_path)]) == 0
        assert main(["run", "--config", str(cfg_r), "--out", str(tmp_path)]) == 0
        _, _, conj_rows = read_csv(tmp_path / "cz.csv")
        _, _, run_rows = read_csv(tmp_path / "ar.csv")
        assert len(conj_rows) == len(run_rows)
        for c, r in zip(conj_rows, run_rows):
            assert c["cert_k"] == r["cert_k"]  # textual equality = bitwise values

    def test_lasso_suite_summary(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "s.cfg",
            suite="lasso",
            iterations=20,
            instances=3,
            dim=3,
            seed=5,
            csv="s.csv",
            report="s.txt",
        )
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 instances, 60 iterations checked" in out
        _, cols, rows = read_csv(tmp_path / "s.csv")
        assert cols[0] == "instance"
        assert len(rows) == 60

    def test_suite_holds_one_instance_at_a_time(self, tmp_path, monkeypatch):
        # each probed trace is dropped once its rows are written: while the
        # next instance is probed, at most it and the one before are alive
        honest, traces, alive = proxprobe.probe_instance, [], []

        def probe(*args):
            out = honest(*args)
            traces.append(weakref.ref(out[0]))
            alive.append(sum(ref() is not None for ref in traces))
            return out

        monkeypatch.setattr(proxprobe, "probe_instance", probe)
        cfg = write_cfg(tmp_path / "s.cfg", suite="lasso", iterations=50, instances=6, dim=3,
                        csv="s.csv", report="s.txt")
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(alive) == 6 and max(alive) <= 2, alive

    def test_suite_keeps_no_probe_result(self, tmp_path, monkeypatch):
        # the report reads four arrays per instance: no ProbeResult outlives its rows
        honest, results = proxprobe.probe_instance, []

        def probe(*args):
            out = honest(*args)
            results.append(weakref.ref(out[-1]))
            return out

        def report(kept, suite=False):
            assert results and all(ref() is None for ref in results)
            return honest_report(kept, suite)

        honest_report = ccfom.cli.conjecture_report
        monkeypatch.setattr(proxprobe, "probe_instance", probe)
        monkeypatch.setattr(ccfom.cli, "conjecture_report", report)
        cfg = write_cfg(tmp_path / "s.cfg", suite="lasso", iterations=50, instances=4, dim=3,
                        csv="s.csv", report="s.txt")
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(results) == 4

    @pytest.mark.parametrize("mode", ["suite", "single"])
    def test_suite_failure_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys, mode):
        if mode == "suite":  # the third instance's oracle fails
            honest = proxprobe.lasso_instance

            def failing(dim, seed):
                if seed == 2:
                    raise ccfom.errors.OracleError("forced")
                return honest(dim, seed)

            monkeypatch.setattr(proxprobe, "lasso_instance", failing)
            kv = dict(suite="lasso", iterations=20, instances=4, dim=3)
            code, message = 4, "oracle failure: forced"
        else:
            fill_disk_at_second_chunk(monkeypatch)
            kv = dict(problem="quad:diag=1,10", psi="l1:lam=0.5", x0="1.0,-1.0", iterations=5000)
            code, message = 3, "config error: cannot write an output: No space left on device"
        cfg = write_cfg(tmp_path / "s.cfg", csv="s.csv", report="s.txt", **kv)
        (tmp_path / "s.csv").write_bytes(b"stale\n" * 400_000)  # a longer file, written over
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "s.txt").exists()

    @pytest.mark.parametrize("kv", [
        dict(problem="quad:diag=1,10", psi="l1:lam=0.5", x0="1.0,-1.0"),
        dict(suite="lasso", instances=1, dim=3),
    ], ids=["single", "suite"])
    def test_one_instance_is_singular(self, tmp_path, capsys, kv):
        cfg = write_cfg(tmp_path / "c.cfg", iterations=20, csv="c.csv", report="c.txt", **kv)
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        line = "CONJECTURE probe: 1 instance, 20 iterations checked, 0 violations found"
        assert capsys.readouterr().out.splitlines()[-1] == line
        assert (tmp_path / "c.txt").read_text().splitlines()[-1] == line

    def test_suite_report_is_summary_first_and_itemises_by_instance(self, tmp_path, capsys,
                                                                   monkeypatch):
        honest = proxprobe.lasso_instance

        def lying_instance(dim, seed):
            # phi's conjugate overstated by 5 depresses every conjectured bound
            cp, x0 = honest(dim, seed)
            conjugate_batch = cp.phi.conjugate_batch
            phi = replace(cp.phi, conjugate_batch=lambda Z: conjugate_batch(Z) + 5.0)
            return proxprobe.CompositeProblem(phi=phi, psi=cp.psi), x0

        monkeypatch.setattr(proxprobe, "lasso_instance", lying_instance)
        cfg = write_cfg(tmp_path / "s.cfg", suite="lasso", instances=3, dim=2, iterations=50,
                        csv="s.csv", report="s.txt")
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        last = "CONJECTURE probe: 3 instances, 150 iterations checked, 150 violations found"
        assert capsys.readouterr().out.splitlines()[-1] == last
        lines = (tmp_path / "s.txt").read_text().splitlines()
        # four summary lines whatever the suite: the note, the counts, the margin check and
        # the closing line; between them one line per violating record
        assert lines[:2] == [Z_RECURSION_NOTE,
                             "records instance 0..2, k=1..50: 150 checked, 150 VIOLATION, "
                             "0 VACUOUS, 150 itemised below (violating, vacuous or the worst)"]
        assert re.fullmatch(r"conjecture margin: 150 applicable, 150 failing "
                            r"\(first at instance 0 k=1\), worst residual/tol \S+ "
                            r"at instance \d k=\d+", lines[2])
        assert lines[-1] == last
        items = lines[3:-1]
        assert len(lines) == 4 + 150
        _, _, rows = read_csv(tmp_path / "s.csv")
        for row, line in zip(rows, items, strict=True):
            assert re.fullmatch(rf"instance {row['instance']} k={row['k']}: conjecture margin: "
                                rf"residual={re.escape(row['residual_chain_max'])} tol=\S+ VIOLATION",
                                line)

    def test_method_defaults_to_prox_accelerated(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", problem="quad:diag=1,10", psi="l1:lam=0.5",
                        x0="1.0,-1.0", iterations=20, csv="c.csv", report="c.txt")
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        meta, _, rows = read_csv(tmp_path / "c.csv")
        assert meta["method"] == "prox_accelerated"
        assert len(rows) == 20

    def test_requires_psi_or_suite(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", problem="quad:diag=1",
                        method="prox_accelerated", x0="1.0", iterations=5)
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "kv",
        [
            dict(suite="lasso", iterations=5, dim=-1),
            dict(suite="lasso", iterations=5, seed=-1),
            dict(problem="quad:diag=1", psi="box:lo=0,0:hi=1,1", method="prox_accelerated",
                 x0="1.0", iterations=5),
            *(dict(problem="quad:diag=1", psi=psi, method="prox_accelerated", x0="1.0",
                   iterations=5)
              for psi in ("l1:lam=1:lam=2", "l1:lam=0.5:foo=1", "box:lo=0:hi=1:extra=5")),
            # an explicit 0 is rejected, not replaced by the default
            dict(suite="lasso", iterations=5, instances=0),
            dict(suite="lasso", iterations=5, dim=0),
        ],
    )
    def test_invalid_configs_exit_3(self, tmp_path, kv):
        cfg = write_cfg(tmp_path / "bad.cfg", csv="bad.csv", report="bad.txt", **kv)
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("kv", [
        dict(problem=QUAD_100, psi="zero", method="prox_accelerated"),
        dict(suite="lasso", instances=1, dim=100),
    ], ids=["single", "suite"])
    def test_trace_over_budget_exits_3(self, tmp_path, capsys, kv):
        cfg = write_cfg(tmp_path / "big.cfg", csv="big.csv", report="big.txt",
                        iterations=OVER_BUDGET, **kv)
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "exceeds the 1e+08 budget" in capsys.readouterr().err


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


RUN_KV = dict(problem="quad:diag=1", method="gradient", x0="1.0", iterations=5)
CONJ_KV = dict(problem="quad:diag=1", psi="l1:lam=1", method="prox_accelerated", x0="3.0",
               iterations=5)
SUITE_KV = dict(suite="lasso", instances=2, dim=2, iterations=5)
UNREAD = dict(psi="zero", suite="lasso", instances=3, dim=2, seed=1)


@pytest.mark.parametrize("command,kv,out", [
    ("run", dict(RUN_KV, csv="sub/run.csv"), "."),
    ("run", dict(RUN_KV, svg="nodir/p.svg"), "."),  # checked before the CSV and report
    ("sweep", dict(RUN_KV, csv="nodir/s.csv"), "."),
    ("conjecture", dict(CONJ_KV, report="nodir/r.txt"), "."),
    ("run", RUN_KV, "afile"),  # --out naming a file
    ("run", dict(RUN_KV, csv="adir"), "."),
], ids=["run-csv", "run-svg", "sweep-csv", "conjecture-report", "out-is-a-file",
        "csv-is-a-directory"])
def test_unwritable_output_exits_3(tmp_path, capsys, command, kv, out):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    cfg = run_cfg(tmp_path, **kv)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 3
    err = capsys.readouterr().err
    assert "config error: cannot write " in err
    assert ("it is a directory" in err) == (kv.get("csv") == "adir")
    if "svg" in kv:
        # every output is checked before the cell runs: none is left behind
        assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.report.txt").exists()


@pytest.mark.parametrize("command,kv,message", [
    ("conjecture", dict(CONJ_KV, method="accelerated"),
     "conjecture runs use method = prox_accelerated"),
    ("conjecture", dict(CONJ_KV, iterations=0), "conjecture needs iterations >= 1"),
    ("sweep", dict(RUN_KV, problem=";"), "problem: empty list"),
    ("conjecture", dict(SUITE_KV, suite="other"), "unknown suite 'other'"),
], ids=["conjecture-method", "conjecture-K=0", "sweep-empty-list", "unknown-suite"])
def test_config_error_exits_3_with_its_message(tmp_path, capsys, command, kv, message):
    cfg = run_cfg(tmp_path, **kv)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


def test_config_with_comments_blank_lines_and_presets_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a subgradient cell\nproblem = norm:G=1:dim=2\n\nmethod = subgradient\n"
                   "x0 = e1\niterations = 5\nschedule = constant:t=0.1\ncsv = run.csv\n"
                   "report = run.report.txt\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "run.csv")
    assert (meta["x0"], meta["schedule"], len(rows)) == ("1,0", "constant:t=0.1", 6)


@pytest.mark.parametrize("command,kv,link", [
    ("run", dict(RUN_KV, csv="same.txt", report="same.txt"), None),
    ("run", dict(RUN_KV, csv="o.csv", svg="./o.csv"), None),
    ("run", dict(RUN_KV, csv="o.csv", svg="link.svg"), "o.csv"),
    ("sweep", dict(RUN_KV, csv="same.txt", report="same.txt"), None),
    ("sweep", dict(RUN_KV, method="gradient; accelerated", csv="s.csv", report="s.cell001.csv"),
     None),
    ("sweep", dict(RUN_KV, csv="sub/s.csv", report="sub/s.cell000.csv"), None),
    ("conjecture", dict(CONJ_KV, csv="same.txt", report="same.txt"), None),
    ("conjecture", dict(SUITE_KV, csv="same.txt", report="sub/../same.txt"), None),
], ids=["run-csv-report", "run-csv-svg", "run-svg-links-to-csv", "sweep-csv-report",
        "sweep-report-is-a-cell", "sweep-report-is-a-cell-in-a-directory",
        "conjecture-csv-report", "suite-csv-report"])
def test_two_outputs_naming_one_file_exit_3(tmp_path, capsys, command, kv, link):
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    if link:
        (out / "link.svg").symlink_to(link)
    cfg = run_cfg(tmp_path, **kv)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert "both name" in capsys.readouterr().err
    # checked before anything runs: no output is written
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("kv", [dict(RUN_KV, csv="same.txt", report="same.txt"),
                                dict(RUN_KV, csv="nodir/run.csv")],
                         ids=["csv-is-report", "unwritable-csv"])
def test_rejected_outputs_leave_no_out_directory(tmp_path, kv):
    """--out is made only once every output has passed its checks."""
    cfg = run_cfg(tmp_path, **kv)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "fresh" / "deeper")]) == 3
    assert not (tmp_path / "fresh").exists()


def test_a_fresh_out_directory_is_made(tmp_path):
    cfg = run_cfg(tmp_path, **RUN_KV)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "fresh" / "deeper")]) == 0
    assert (tmp_path / "fresh" / "deeper" / "run.csv").is_file()


def test_import_leaves_scipy_linalg_out(tmp_path):
    """Only the quadratic family needs scipy.linalg; it is imported there."""
    code = ("import sys, ccfom; ccfom.from_id('lse:dim=2'); "
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'")
    done = console(tmp_path, "-c", code)
    assert done.returncode == 0, done.stderr


class TestInputSchema:
    """Config files, CSV metadata and --eps-* flags go through one key table."""

    @pytest.mark.parametrize("command,base,key,val,mode", [
        pytest.param(command, base, k, v, mode, id=f"{mode}-{k}".replace(" (suite mode)", "-suite"))
        for command, base, mode, unread in [
            ("run", RUN_KV, "run", UNREAD),
            ("sweep", RUN_KV, "sweep", UNREAD),
            ("conjecture", CONJ_KV, "conjecture",
             dict(schedule="inverse_L", svg="c.svg", seed=1, instances=3, dim=2)),
            ("conjecture", SUITE_KV, "conjecture (suite mode)",
             dict(problem="quad:diag=1", psi="zero", x0="ones", schedule="inverse_L", svg="s.svg")),
        ]
        for k, v in unread.items()
    ])
    def test_key_the_command_does_not_read_exits_3(self, tmp_path, capsys, command, base, key,
                                                   val, mode):
        cfg = run_cfg(tmp_path, **base, **{key: val})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert f"key {key!r} is not read by {mode}" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("key,val", [
        ("csv", "run.csv"), ("seed", "1"), ("psi", "zero"), ("svg", "run.svg"),
    ])
    def test_metadata_key_verify_does_not_read_exits_3(self, tmp_path, capsys, key, val):
        assert main(["run", "--config", str(run_cfg(tmp_path, **RUN_KV)), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        lines.insert(2, f"# {key} = {val}")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 3
        assert f"key {key!r} is not read by verify" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        ("extra", "key 'note' is not read by verify"),
        ("missing", "missing required key 'x0'"),
        ("bad value", "eps_rel: expected a positive finite number, got 'abc'"),
        # values the re-run of the stored cell refuses: the catalog, then x0
        ("problem", "expected one number, got '2,3' in 'norm:G=2,3:dim=3'"),
        ("x0", "x0 has dimension 2, expected 1"),
    ])
    def test_metadata_error_names_the_csv(self, tmp_path, capsys, edit, message):
        assert main(["run", "--config", str(run_cfg(tmp_path, **RUN_KV)), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        if edit == "extra":
            lines.insert(2, "# note = x")
        elif edit == "missing":
            lines.remove(next(line for line in lines if line.startswith("# x0 = ")))
        else:
            key, val = {"bad value": ("eps_rel", "abc"), "problem": ("problem", "norm:G=2,3:dim=3"),
                        "x0": ("x0", "1,2")}[edit]
            lines = [(f"# {key} = {val}" if line.startswith(f"# {key} = ") else line) for line in lines]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 3
        assert capsys.readouterr().err == f"config error: {bad} metadata {message}\n"

    def test_oracle_failure_on_the_stored_cell_names_the_csv(self, tmp_path, capsys):
        # f(x0) overflows to +inf at the first oracle query of the re-run
        assert main(["run", "--config", str(run_cfg(tmp_path, **RUN_KV)), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(("# x0 = 1e200" if line.startswith("# x0 = ") else line)
                                 for line in lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 4
        message = f"{bad}: objective value is not finite at iteration 0"
        assert capsys.readouterr().err == f"oracle failure: {message}\n"
        with pytest.raises(ccfom.OracleError) as raised:
            ccfom.cli.cmd_verify(SimpleNamespace(csv=str(bad), eps_rel=None, eps_abs=None))
        assert (str(raised.value), raised.value.iteration) == (message, 0)

    @pytest.mark.parametrize("flag,key", [("--eps-rel", "eps_rel"), ("--eps-abs", "eps_abs")])
    def test_bad_tolerance_flag_to_verify_keeps_its_message(self, tmp_path, capsys, flag, key):
        assert main(["run", "--config", str(run_cfg(tmp_path, **RUN_KV)), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "run.csv"), flag, "abc"]) == 3
        assert capsys.readouterr().err == (
            f"config error: {key}: expected a positive finite number, got 'abc'\n")

    @pytest.mark.parametrize("flags,edit,message", [
        # a ';' list given as a flag over a good file (a bad number: the test above)
        (["--eps-abs", "1e-9;2e-9"], None,
         "eps_abs: a ';' list is accepted only by sweep, got '1e-9;2e-9'"),
        # a bad metadata tolerance, with a good flag for the other one
        (["--eps-abs", "1e-9"], ("eps_rel", "abc"),
         "{csv} metadata eps_rel: expected a positive finite number, got 'abc'"),
        (["--eps-rel", "1e-9"], ("eps_abs", "0"),
         "{csv} metadata eps_abs: expected a positive finite number, got '0'"),
        # both bad: the flag's error comes first, before the file's earlier key
        (["--eps-abs", "abc"], ("method", "nope"),
         "eps_abs: expected a positive finite number, got 'abc'"),
    ], ids=["list flag", "bad eps_rel in file", "bad eps_abs in file", "both bad"])
    def test_verify_tells_a_bad_flag_from_a_bad_file(self, tmp_path, capsys, flags, edit, message):
        assert main(["run", "--config", str(run_cfg(tmp_path, **RUN_KV)), "--out", str(tmp_path)]) == 0
        csv = tmp_path / "run.csv"
        if edit:
            key, val = edit
            lines = csv.read_text().splitlines()
            csv.write_text("\n".join((f"# {key} = {val}" if line.startswith(f"# {key} = ") else line)
                                     for line in lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(csv), *flags]) == 3
        assert capsys.readouterr().err == f"config error: {message.format(csv=csv)}\n"

    def test_report_headers_spell_tolerances_that_read_back(self, tmp_path):
        # ":g" would write eps_rel=1.23457e-09 and eps_abs=2e-09
        flags = ["--eps-rel", "1.234567891e-9", "--eps-abs", "2.0000001e-9"]
        cfg = run_cfg(tmp_path, **RUN_KV)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path), *flags]) == 0
        assert main(["verify", str(tmp_path / "run.csv"), *flags]) == 0
        expected = "tolerances: eps_rel=1.234567891e-09 eps_abs=2.0000001e-09"
        for report in ("run.report.txt", "run.csv.verify.txt"):
            line = (tmp_path / report).read_text().splitlines()[1]
            assert line == expected
            spelt = dict(part.split("=") for part in line.removeprefix("tolerances: ").split())
            assert (float(spelt["eps_rel"]), float(spelt["eps_abs"])) == (1.234567891e-9, 2.0000001e-9)

    @pytest.mark.parametrize("kv", [
        dict(CONJ_KV, problem="quad:diag=1; quad:diag=2"),
        dict(CONJ_KV, psi="l1:lam=1; zero"),
        dict(SUITE_KV, iterations="5; 6"),
    ], ids=["problem", "psi", "suite-iterations"])
    def test_list_given_to_conjecture_exits_3(self, tmp_path, capsys, kv):
        cfg = run_cfg(tmp_path, **kv)
        assert main(["conjecture", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "a ';' list is accepted only by sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("kv", [
        dict(eps_rel=math.nan), dict(eps_abs=math.inf), dict(eps_rel=0.0), dict(eps_abs=-1e-9),
    ], ids=["nan", "inf", "zero", "negative"])
    def test_tolerances_reject_non_finite_and_non_positive(self, kv):
        with pytest.raises(ValueError, match="positive and finite"):
            ccfom.Tolerances(**kv)

    @pytest.mark.parametrize("flag,val", [("--eps-rel", "nan"), ("--eps-abs", "inf")])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_non_finite_tolerance_flag_exits_3(self, tmp_path, capsys, command, flag, val):
        cfg = run_cfg(tmp_path, **RUN_KV)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path)]
        if command == "verify":
            assert main(argv) == 0
            argv = ["verify", str(tmp_path / "run.csv")]
        assert main(argv + [flag, val]) == 3
        assert "expected a positive finite number" in capsys.readouterr().err

    def test_infinite_tolerance_in_metadata_exits_3(self, tmp_path):
        # the run of acceptance criterion 9, with every f_xk and cert_k forged
        cfg = run_cfg(tmp_path, problem="norm:G=1:dim=1", method="subgradient", x0="1.37",
                      iterations=12)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("k,"))
        forged = [line.replace("# eps_abs = 1.0000000000000001e-09", "# eps_abs = inf")
                  for line in lines[: header + 1]]
        assert "# eps_abs = inf" in forged
        for line in lines[header + 1:]:
            parts = line.split(",")
            parts[1], parts[3] = "12345", "-99"  # f_xk, cert_k
            forged.append(",".join(parts))
        bad = tmp_path / "forged.csv"
        bad.write_text("\n".join(forged) + "\n")
        assert main(["verify", str(bad)]) == 3

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: verify applies any finite eps_abs "
                       "that the CSV's metadata states, so the forged rows reproduce")
    def test_huge_finite_tolerance_in_metadata_fails_verify(self, tmp_path):
        # every f_xk and cert_k forged, under a tolerance that admits any value
        cfg = run_cfg(tmp_path, problem="quad:diag=1,10", method="accelerated", x0="1.0,1.0",
                      iterations=200)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("k,"))
        forged = [re.sub(r"^# eps_abs = .*", "# eps_abs = 1e300", line) for line in lines[: header + 1]]
        assert "# eps_abs = 1e300" in forged
        for line in lines[header + 1:]:
            parts = line.split(",")
            parts[1], parts[3] = "12345", "-99"  # f_xk, cert_k
            forged.append(",".join(parts))
        bad = tmp_path / "forged.csv"
        bad.write_text("\n".join(forged) + "\n")
        assert main(["verify", str(bad)]) == 2

    def test_duplicate_metadata_key_exits_3(self, tmp_path, capsys):
        assert main(["run", "--config", str(run_cfg(tmp_path, **RUN_KV)), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        eps_abs = next(line for line in lines if line.startswith("# eps_abs"))
        lines.insert(2, eps_abs)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 3
        assert "duplicate key 'eps_abs'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "--config", "CFG", "--eps-rel", "abc"],
        ["frobnicate"],
        [],
        ["verify"],
    ], ids=["run-without-config", "eps-not-a-number", "unknown-subcommand", "no-subcommand",
            "verify-without-csv"])
    def test_usage_errors_exit_3(self, tmp_path, argv):
        cfg = str(run_cfg(tmp_path, **RUN_KV))
        assert exit_code([cfg if a == "CFG" else a for a in argv]) == 3

    def test_help_exits_0(self, capsys):
        assert exit_code(["--help"]) == 0
        assert exit_code(["run", "--help"]) == 0
        assert "--eps-rel" in capsys.readouterr().out

    def test_successive_calls_share_no_arguments(self, tmp_path, capsys):
        # the parser is built once per process; nothing of one call's
        # arguments reaches the next
        assert ccfom.cli.build_parser() is ccfom.cli.build_parser()
        cfg = run_cfg(tmp_path, **RUN_KV)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        csv, report = tmp_path / "run.csv", tmp_path / "run.csv.verify.txt"

        def verify(*flags):
            capsys.readouterr()
            code = exit_code(["verify", str(csv), *flags])
            return code, capsys.readouterr(), report.read_text()

        plain = verify()
        assert plain[0] == 0
        assert exit_code(["run"]) == 3
        loose = verify("--eps-rel", "0.25")
        assert loose[0] == 0 and loose[2] != plain[2]
        assert verify() == plain

    def test_metadata_round_trip_is_byte_identical(self, tmp_path):
        from test_acceptance import ACCEPTANCE_MATRIX

        from ccfom.config import ExperimentConfig, cell_metadata

        for i, (pid, method, x0, K) in enumerate(ACCEPTANCE_MATRIX):
            cfg = run_cfg(tmp_path, name=f"c{i}", problem=pid, method=method,
                          x0=",".join(map(str, x0)), iterations=K)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            lines = (tmp_path / f"c{i}.csv").read_text().splitlines()
            header = next(j for j, line in enumerate(lines) if line.startswith("k,"))
            block = "".join(line + "\n" for line in lines[1:header])
            meta = read_csv(tmp_path / f"c{i}.csv")[0]
            parsed = ExperimentConfig.from_values(meta, "verify")
            back = cell_metadata(parsed.single_cell(), parsed.tolerances())
            assert "".join(f"# {k} = {v}\n" for k, v in back.items()) == block, (pid, method)
