"""Console checks that need a process of their own: ``python -m ccfom`` in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccfom

_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(ccfom.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("command,config", [
    ("run", "problem = maxaff:dim=5:pieces=8:seed=2\nmethod = subgradient\n"
            "x0 = 0.5,-1.5,2.0,1.0,-0.5\niterations = 500\n"),
    ("run", "problem = quad:diag=1,100\nmethod = accelerated\nx0 = 1.0,1.0\niterations = 10000\n"),
    ("conjecture", "suite = lasso\ninstances = 2\niterations = 20\n"),
], ids=["maxaff5 subgradient", "quad accelerated", "lasso suite"])
def test_command_imports_no_scipy_optimize(tmp_path, command, config):
    # -X importtime lists every module the command imports, ccfom's own line included
    (tmp_path / "cell.cfg").write_text(config + "csv = cell.csv\nreport = cell.report.txt\n")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ccfom", command, "--config", "cell.cfg", "--out", "."],
        cwd=tmp_path, env=_ENV, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    imports = done.stderr.splitlines()
    assert any(line.endswith("| ccfom") for line in imports)
    assert not [line for line in imports if "scipy.optimize" in line]
    assert "Traceback" not in done.stderr
    assert (tmp_path / "cell.csv").is_file()
