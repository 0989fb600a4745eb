"""Every demo script runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpmspace as g

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(g.__file__)))
    # the tests' rule that a numpy RuntimeWarning is an error holds in the demos too
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
