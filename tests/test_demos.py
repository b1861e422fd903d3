"""The demos run to completion without --plot.  They are the only callers
of the public API outside the tests."""

import os
import subprocess
import sys

import pytest

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", ["collapse_and_revivals", "density_snapshots",
                                  "powerlaw_wells", "spreading_and_flattening"])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(DEMO_DIR, f"{demo}.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
