"""The demos, and README's library quickstart, run to completion without
--plot.  They are the only callers of the public API outside the tests."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(ROOT, "demos")


def _quickstart() -> str:
    """The python block under README's "Library quickstart" heading."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", ["collapse_and_revivals", "density_snapshots",
                                  "powerlaw_wells", "spreading_and_flattening",
                                  "readme_quickstart"])
def test_demo_runs(demo, tmp_path):
    script = (["-c", _quickstart()] if demo == "readme_quickstart"
              else [os.path.join(DEMO_DIR, f"{demo}.py")])
    proc = subprocess.run([sys.executable, *script],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
