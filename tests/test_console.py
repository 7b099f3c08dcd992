"""Console checks that need a process of their own: ``python -m ccfom`` in a fresh interpreter.

Where a check also runs ``cli.main`` in this process, it compares the two.
"""

import pytest

from ccfom.cli import main
from conftest import console


@pytest.mark.parametrize("command,config,code", [
    ("run", "problem = maxaff:dim=5:pieces=8:seed=2\nmethod = subgradient\n"
            "x0 = 0.5,-1.5,2.0,1.0,-0.5\niterations = 500\n", 0),
    ("run", "problem = quad:diag=1,100\nmethod = accelerated\nx0 = 1.0,1.0\niterations = 10000\n", 0),
    ("conjecture", "suite = lasso\ninstances = 2\niterations = 20\n", 0),
    # refused before any LP is set up
    *(("run", f"problem = maxaff:abs={G}\nmethod = subgradient\niterations = 20\n", 3)
      for G in ("inf", "nan", "-1")),
], ids=["maxaff5 subgradient", "quad accelerated", "lasso suite", "abs=inf", "abs=nan", "abs=-1"])
def test_command_imports_no_scipy_optimize(tmp_path, command, config, code):
    # -X importtime lists every module the command imports, ccfom's own line included
    (tmp_path / "cell.cfg").write_text(config + "csv = cell.csv\nreport = cell.report.txt\n")
    done = console(tmp_path, "-X", "importtime", "-m", "ccfom", command, "--config", "cell.cfg", "--out", ".")
    assert done.returncode == code, done.stderr
    imports = done.stderr.splitlines()
    assert any(line.endswith("| ccfom") for line in imports)
    assert not [line for line in imports if "scipy.optimize" in line]
    assert "Traceback" not in done.stderr
    assert (tmp_path / "cell.csv").is_file() == (code == 0)
    if code:
        pid = config.split("\n")[0].removeprefix("problem = ")
        assert f"config error: cannot build problem {pid!r}: G must be positive and finite" in imports


def test_verdict_mismatch_exits_2(tmp_path):
    (tmp_path / "run.cfg").write_text("problem = quad:diag=1,10\nmethod = accelerated\nx0 = 1.0,1.0\n"
                                      "iterations = 200\ncsv = run.csv\nreport = run.report.txt\n")
    assert main(["run", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)]) == 0
    assert main(["verify", str(tmp_path / "run.csv")]) == 0
    lines = (tmp_path / "run.csv").read_text().split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("k,")) + 4
    lines[i] = lines[i].rsplit(",", 1)[0] + ",VACUOUSXX"
    (tmp_path / "vacuousxx.csv").write_text("\n".join(lines))
    done = console(tmp_path, "-m", "ccfom", "verify", "vacuousxx.csv")
    assert done.returncode == 2
    assert "FAIL k=4: verdict mismatch: stored VACUOUSXX vs recomputed PASS" in done.stdout.splitlines()
    assert "Traceback" not in done.stderr


# K=10^4 cells whose CSVs hold several blocks of records, with
# zero and NaN cells; each one steps through a generated stepper, and the
# diagonal quadratic's and the norm's oracles are generated too
_CHUNKED_CELLS = {
    "lse": "problem = lse:dim=2\nmethod = accelerated\nx0 = 1.3,-1.1\n",
    "norm": "problem = norm:G=2:dim=3\nmethod = subgradient\nx0 = 0.5,-1.5,2.0\n",
    "maxaff": "problem = maxaff:dim=3:pieces=6:seed=0\nmethod = subgradient\nx0 = 0.5,-1.5,2.0\n",
    "quad": "problem = quad:diag=1,100\nmethod = accelerated\nx0 = 0.5,-1.5\n",
}


@pytest.mark.parametrize("cell", list(_CHUNKED_CELLS))
def test_run_in_a_fresh_interpreter_is_that_of_cli_main_and_verifies(tmp_path, cell):
    (tmp_path / "cell.cfg").write_text(
        _CHUNKED_CELLS[cell] + f"iterations = 10000\ncsv = {cell}.csv\nreport = {cell}.report.txt\n")
    done = console(tmp_path, "-m", "ccfom", "run", "--config", "cell.cfg", "--out", "console")
    assert done.returncode == 0, done.stderr
    assert main(["run", "--config", str(tmp_path / "cell.cfg"), "--out", str(tmp_path / "main")]) == 0
    written = (tmp_path / "console" / f"{cell}.csv").read_bytes()
    assert written == (tmp_path / "main" / f"{cell}.csv").read_bytes()
    assert main(["verify", str(tmp_path / "console" / f"{cell}.csv")]) == 0
    assert b",nan," in written and b",0," in written


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the check terms overflow from x0 = (1e154, 1) on quad:diag=1,100: gradient in "
    "lhs_series's cumulative sum, accelerated in verify_chain's quad term"))
@pytest.mark.parametrize("method", ["gradient", "accelerated"])
def test_float_edge_cell_of_a_stiff_quadratic_runs_warning_free(tmp_path, method):
    (tmp_path / "edge.cfg").write_text(
        f"problem = quad:diag=1,100\nmethod = {method}\nx0 = 1e154,1\niterations = 50\n"
        "csv = edge.csv\nreport = edge.report.txt\n")
    done = console(tmp_path, "-W", "error::RuntimeWarning", "-m", "ccfom",
                   "run", "--config", "edge.cfg", "--out", ".")
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("method", ["gradient", "accelerated"])
def test_overflow_edge_cell_warns_nothing(tmp_path, method):
    # from (1.2e154, 1) the check terms come near 1e308: run and verify raise no
    # RuntimeWarning (made an error here), and no tolerance is infinite
    (tmp_path / "huge.cfg").write_text(
        f"problem = quad:diag=1,1\nmethod = {method}\nx0 = 1.2e154,1\niterations = 50\n"
        "csv = huge.csv\nreport = huge.report.txt\n")
    for args in (["run", "--config", "huge.cfg", "--out", "."], ["verify", "huge.csv"]):
        done = console(tmp_path, "-W", "error::RuntimeWarning", "-m", "ccfom", *args)
        assert (done.returncode, done.stderr) == (0, "")
    assert "tol=inf" not in (tmp_path / "huge.report.txt").read_text()


def test_fifty_instance_suite_peaks_under_300_mb(tmp_path):
    # one interpreter runs cli.main on the suite and reads its own peak RSS:
    # each instance's trace and certificate (3.8 MB at K = 2*10^4, so 190 MB
    # for all 50) are dropped once its rows are written.  VmHWM is the peak of
    # the address space that exec started; ru_maxrss would carry over the peak
    # of the process that started the interpreter (this test process)
    (tmp_path / "big.cfg").write_text("suite = lasso\ninstances = 50\ndim = 5\niterations = 20000\n"
                                      "csv = big.csv\nreport = big.report.txt\n")
    done = console(tmp_path, "-c", (
        "from ccfom.cli import main\n"
        "code = main(['conjecture', '--config', 'big.cfg', '--out', 'bigsuite'])\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, hwm.split()[1])\n"))  # 'VmHWM:  <n> kB'
    assert done.returncode == 0, done.stderr
    code, peak_kib = map(int, done.stdout.split()[-2:])
    assert code == 0
    assert peak_kib / 1024 <= 300, f"peak RSS {peak_kib / 1024:.0f} MB"
