import os
import sys

import numpy as np
import pytest

import wellpacket
from wellpacket import (PacketSpec, WellSystem, build_gaussian_packet,
                        compute_timescales)

# subprocesses (the entry points, the demos) import the package that these
# tests import, from the source tree without an install
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.dirname(os.path.dirname(os.path.abspath(wellpacket.__file__))),
     *filter(None, [os.environ.get("PYTHONPATH")])])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where they are easy to find."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def sys0():
    return WellSystem()


@pytest.fixture(scope="session")
def default_spec():
    return PacketSpec(n0=400, x0=0.5, dx0=0.05)


@pytest.fixture(scope="session")
def default_exp(default_spec, sys0):
    return build_gaussian_packet(default_spec, sys0)


@pytest.fixture(scope="session")
def default_report(sys0, default_spec):
    return compute_timescales(sys0, default_spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
