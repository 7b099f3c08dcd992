"""Console checks that need a process of their own: ``python -m ccfom`` in a fresh interpreter.

Where a check also runs ``cli.main`` in this process, it compares the two.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccfom
from ccfom.cli import main

_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(ccfom.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def _console(tmp_path, *args):
    """``python <args>`` in ``tmp_path``, a fresh interpreter."""
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=_ENV, capture_output=True, text=True)


@pytest.mark.parametrize("command,config", [
    ("run", "problem = maxaff:dim=5:pieces=8:seed=2\nmethod = subgradient\n"
            "x0 = 0.5,-1.5,2.0,1.0,-0.5\niterations = 500\n"),
    ("run", "problem = quad:diag=1,100\nmethod = accelerated\nx0 = 1.0,1.0\niterations = 10000\n"),
    ("conjecture", "suite = lasso\ninstances = 2\niterations = 20\n"),
], ids=["maxaff5 subgradient", "quad accelerated", "lasso suite"])
def test_command_imports_no_scipy_optimize(tmp_path, command, config):
    # -X importtime lists every module the command imports, ccfom's own line included
    (tmp_path / "cell.cfg").write_text(config + "csv = cell.csv\nreport = cell.report.txt\n")
    done = _console(tmp_path, "-X", "importtime", "-m", "ccfom", command, "--config", "cell.cfg", "--out", ".")
    assert done.returncode == 0, done.stderr
    imports = done.stderr.splitlines()
    assert any(line.endswith("| ccfom") for line in imports)
    assert not [line for line in imports if "scipy.optimize" in line]
    assert "Traceback" not in done.stderr
    assert (tmp_path / "cell.csv").is_file()


# K=10^4 cells whose CSVs hold several 4096-row blocks of the method loop, with
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
    done = _console(tmp_path, "-m", "ccfom", "run", "--config", "cell.cfg", "--out", "console")
    assert done.returncode == 0, done.stderr
    assert main(["run", "--config", str(tmp_path / "cell.cfg"), "--out", str(tmp_path / "main")]) == 0
    written = (tmp_path / "console" / f"{cell}.csv").read_bytes()
    assert written == (tmp_path / "main" / f"{cell}.csv").read_bytes()
    assert main(["verify", str(tmp_path / "console" / f"{cell}.csv")]) == 0
    assert b",nan," in written and b",0," in written


@pytest.mark.parametrize("method", ["gradient", "accelerated"])
def test_overflow_edge_cell_warns_nothing(tmp_path, method):
    # from (1.2e154, 1) the check terms come near 1e308: run and verify raise no
    # RuntimeWarning (made an error here), and no tolerance is infinite
    (tmp_path / "huge.cfg").write_text(
        f"problem = quad:diag=1,1\nmethod = {method}\nx0 = 1.2e154,1\niterations = 50\n"
        "csv = huge.csv\nreport = huge.report.txt\n")
    for args in (["run", "--config", "huge.cfg", "--out", "."], ["verify", "huge.csv"]):
        done = _console(tmp_path, "-W", "error::RuntimeWarning", "-m", "ccfom", *args)
        assert (done.returncode, done.stderr) == (0, "")
    assert "tol=inf" not in (tmp_path / "huge.report.txt").read_text()
