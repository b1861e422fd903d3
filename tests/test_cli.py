"""Config parsing, run drivers, and the command line end to end."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import typing
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import config
from wellpacket.cli import main
from wellpacket.config import (ConfigError, CorrelateSettings, OutputSettings,
                               RunConfig, ScheduleSettings, load_config,
                               parse_config, parse_time)
from wellpacket.packet import Theta
from wellpacket.runs import _Output
from wellpacket.timescales import TimeScaleReport, compute_timescales
from wellpacket.writer import TABLE_CELLS, table_text

SHA_EMPTY = hashlib.sha256(b"").hexdigest()


def test_default_config():
    cfg = parse_config("")
    assert cfg.packet.n0 == 400
    assert cfg.packet.x0 == 0.5
    assert cfg.packet.dx0 == 0.05
    assert cfg.system.mass == 0.5
    assert cfg.output.format == "csv"
    assert cfg.output.precision == 12
    assert cfg.schedule.mode == "stroboscopic"
    assert cfg.powerlaw.k_values == (1.0, 2.0, 4.0)
    assert cfg.flatten.dx0_values == (0.025, 0.05, 0.10)
    assert cfg.correlate.fit is False
    assert cfg.config_hash == SHA_EMPTY


# Every key that has a default, written out at that default.  The None
# default of alpha cannot be spelled in INI.
EVERY_KEY_AT_DEFAULT = """\
[system]
mass = 0.5
hbar = 1
length = 1
[packet]
n0 = 400
x0 = 0.5
dx0 = 0.05
window_sigmas = 8
[grids]
x_points = 4096
p_span = 1.5
p_spacing = 1.0
[schedule]
mode = stroboscopic
n_start = 0
n_stop = 800
n_step = 1
start = 0
stop = 10tau
count = 1000
times =
[evolve]
times =
representation = position
[correlate]
fit = false
scan = false
threshold = 0.9
scan_start = 0
scan_stop = 1T
scan_resolution = 0.25tau
min_height = 0.3
[powerlaw]
k = 1, 2, 4
n_min = 50
n_max = 200
half = false
v0 = 1
a = 1
fit = false
fit_n0 = 200
fit_dn = 3
[flatten]
dx0 = 0.025, 0.05, 0.10
epsilon = 0.05
hold = 10
t_stop = 480tau
sample_step = 0.25tau
[output]
format = csv
precision = 12
"""


def test_defaults_are_declared_once():
    # the parser adds no default of its own: an empty config and one that
    # spells out every default both give the dataclass defaults
    assert parse_config("") == RunConfig()
    cfg = parse_config(EVERY_KEY_AT_DEFAULT)
    assert cfg == RunConfig()
    assert cfg.config_hash != SHA_EMPTY


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=re.escape("[packet] wobble")):
        parse_config("[packet]\nwobble = 3\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=re.escape("[pocket]: unknown section")):
        parse_config("[pocket]\nn0 = 4\n")


def test_typed_value_errors():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("[packet]\nn0 = four\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config("[correlate]\nfit = maybe\n")
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config("[evolve]\nrepresentation = phase-space\n")
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config("no section header here")


def test_time_literals():
    assert parse_time("2tau", tau=3.0, T=10.0) == 6.0
    assert parse_time("0.5T", tau=3.0, T=10.0) == 5.0
    assert parse_time(" 1.5e-2 ") == 0.015
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_time("fast", 1.0, 1.0)
    with pytest.raises(ConfigError, match="tau units"):
        parse_time("2tau")
    # finite literals whose time is not: checked after the scaling
    for literal in ("nan", "inf", "-inf", "1e400", "1e400tau", "1e300T"):
        with pytest.raises(ConfigError, match="is not finite"):
            parse_time(literal, tau=3.0, T=1e10)


def test_k_list_parsing():
    cfg = parse_config("[powerlaw]\nk = 1, 2.5, infinity\n")
    assert cfg.powerlaw.k_values == (1.0, 2.5, math.inf)
    with pytest.raises(ConfigError, match="write 'infinity'"):
        parse_config("[powerlaw]\nk = 20000\n")
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config("[powerlaw]\nk = -1\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("[powerlaw]\nk = soft\n")


def test_bounds_checks():
    with pytest.raises(ConfigError, match=re.escape("[correlate] threshold")):
        parse_config("[correlate]\nthreshold = 1.2\n")
    with pytest.raises(ConfigError, match="precision"):
        parse_config("[output]\nprecision = 0\n")
    with pytest.raises(ConfigError, match="precision"):
        parse_config("[output]\nprecision = 18\n")
    assert parse_config("[output]\nprecision = 17\n").output.precision == 17
    # a bound on a renamed field is reported under its key
    with pytest.raises(ConfigError, match=re.escape("[system] length: must be positive")):
        parse_config("[system]\nlength = 0\n")


def test_bounds_hold_outside_the_parser(tmp_path, capsys):
    with pytest.raises(ValueError, match="precision"):
        OutputSettings(precision=0)
    with pytest.raises(ValueError, match="n_step"):
        ScheduleSettings(n_step=0)
    with pytest.raises(ValueError, match="threshold"):
        CorrelateSettings(threshold=1.5)
    with pytest.raises(ConfigError, match=re.escape("[schedule] mode: unknown mode 'x'")):
        ScheduleSettings(mode="x").resolve(1.0, 10.0, 5)
    ini = tmp_path / "run.ini"
    ini.write_text("[output]\nprecision = 18\n")
    for option in (["--precision", "18"], ["--config", str(ini)]):
        assert main(["timescales", "--out", str(tmp_path / "o"), *option]) == 1
        assert "precision" in capsys.readouterr().err


@pytest.mark.parametrize("command, ini, location", [
    ("correlate", "[schedule]\nn_stop = 5\n[correlate]\nscan = true\nscan_stop = 2T\n",
     "[correlate] scan_stop:"),
    ("scan-flatten", "[flatten]\nt_stop = 0\n", "[flatten] t_stop:"),
    ("scan-flatten", "[flatten]\nsample_step = 0\n", "[flatten] sample_step:"),
    ("correlate", "[schedule]\nn_stop = 5\n[correlate]\nscan = true\n"
     "scan_resolution = -1\n", "[correlate] scan_resolution:"),
    ("correlate", "[schedule]\nn_stop = 5\n[correlate]\nscan = true\nscan_stop = 1tau\n"
     "scan_resolution = 3tau\n", "[correlate] scan_resolution: leaves fewer than two"),
    ("evolve", "[evolve]\ntimes = 0, soon\n", "[evolve] times: cannot parse"),
], ids=["scan_stop", "t_stop", "sample_step", "scan_resolution", "one_scan_sample",
        "evolve_times"])
def test_time_literal_errors_are_config_errors(tmp_path, capsys, command, ini, location):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {location}")
    assert not out.exists()


# every time key, as the command that resolves it reads it; {} is the literal
TIME_KEYS = {
    "schedule.start": ("observables", "[schedule]\nmode = dense\nstart = {}\n"),
    "schedule.stop": ("observables", "[schedule]\nmode = dense\nstop = {}\n"),
    "schedule.times": ("observables", "[schedule]\nmode = explicit\ntimes = 0, {}\n"),
    "evolve.times": ("evolve", "[evolve]\ntimes = 0, {}\nrepresentation = both\n"),
    "correlate.scan_start": ("correlate", "[schedule]\nn_stop = 5\n[correlate]\n"
                             "scan = true\nscan_start = {}\n"),
    "correlate.scan_stop": ("correlate", "[schedule]\nn_stop = 5\n[correlate]\n"
                            "scan = true\nscan_stop = {}\n"),
    "correlate.scan_resolution": ("correlate", "[schedule]\nn_stop = 5\n[correlate]\n"
                                  "scan = true\nscan_resolution = {}\n"),
    "flatten.t_stop": ("scan-flatten", "[flatten]\ndx0 = 0.1\nt_stop = {}\n"),
    "flatten.sample_step": ("scan-flatten", "[flatten]\ndx0 = 0.1\nsample_step = {}\n"),
}


@pytest.mark.parametrize("literal", ["nan", "inf", "1e400", "1e400tau"])
@pytest.mark.parametrize("key", sorted(TIME_KEYS))
def test_non_finite_times_are_config_errors(tmp_path, capsys, key, literal):
    # these once wrote rows of nan, or ended in a traceback from the
    # field or the sample grid
    command, ini = TIME_KEYS[key]
    path = tmp_path / "run.ini"
    path.write_text("[packet]\nn0 = 40\ndx0 = 0.1\n" + ini.format(literal))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    section, name = key.split(".")
    assert capsys.readouterr().err.startswith(
        f"config error: [{section}] {name}: time {literal!r} is not finite")
    assert not out.exists() or os.listdir(out) == []


def _float_keys():
    """[section] key of every key of config._SECTIONS whose field holds
    floats read by the float parser; k, read item by item by its own
    parser, admits infinity for the box limit."""
    sections = typing.get_type_hints(RunConfig)
    for section, keys in config._SECTIONS.items():
        hints, meta = typing.get_type_hints(sections[section]), {
            f.name: f.metadata for f in fields(sections[section])}
        for key, (attr, _) in keys.items():
            if float in typing.get_args(hints[attr]) + (hints[attr],) \
                    and "item" not in meta[attr]:
                yield section, key


@pytest.mark.parametrize("section, key", sorted(_float_keys()))
def test_non_finite_numbers_are_config_errors(section, key):
    # these once wrote rows of nan or inf, reported no flattening, or ended
    # in a traceback, where a time literal's nan and inf are refused
    for literal in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=re.escape(
                f"[{section}] {key}: expected a finite number, got {literal!r}")):
            parse_config(f"[{section}]\n{key} = {literal}\n")


@pytest.mark.parametrize("command, ini, location", [
    ("evolve", "[grids]\np_span = -1\n[evolve]\ntimes = 0\nrepresentation = momentum\n",
     "[grids] p_span: must be positive"),
    ("evolve", "[grids]\np_spacing = 0\n[evolve]\ntimes = 0\nrepresentation = momentum\n",
     "[grids] p_spacing: must be positive"),
    ("powerlaw", "[powerlaw]\nfit = true\nfit_dn = -3\n", "[powerlaw] fit_dn: must be positive"),
    ("observables", "[schedule]\nn_start = 10\nn_stop = 5\n", "[schedule] n_stop:"),
    ("correlate", "[schedule]\nn_start = 10\nn_stop = 5\n", "[schedule] n_stop:"),
    ("powerlaw", "[powerlaw]\nk =\n", "[powerlaw] k:"),
    ("powerlaw", "[powerlaw]\nfit = true\nfit_n0 = 0\n", "[powerlaw] fit_n0: must be >= 1"),
    ("scan-flatten", "[flatten]\ndx0 =\n", "[flatten] dx0:"),
    # each width names its file by "%g": two that print alike would write
    # one file twice, and a repeated width fits the exponent to duplicates
    ("scan-flatten", "[flatten]\ndx0 = 0.05, 0.0500000001, 0.1\n",
     "[flatten] dx0: two widths print as 0.05"),
    ("scan-flatten", "[flatten]\ndx0 = 0.05, 0.05\n", "[flatten] dx0: two widths print as 0.05"),
    ("observables", "[packet]\ndx0 = 0\n", "[packet] dx0: must be positive"),
    ("timescales", "[packet]\ndx0 = 0\n", "[packet] dx0: must be positive"),
    ("observables", "[packet]\ndx0 = -0.05\n", "[packet] dx0: must be positive"),
    ("timescales", "[packet]\nalpha = -1\n", "[packet] alpha: must be positive"),
    ("correlate", "[schedule]\nn_stop = 5\n[correlate]\nscan = true\nmin_height = 2\n",
     "[correlate] min_height: must lie in [0, 1]"),
    ("correlate", "[schedule]\nn_stop = 5\n[correlate]\nscan = true\nmin_height = nan\n",
     "[correlate] min_height: expected a finite number"),
    ("observables", "[schedule]\nmode = explicit\n",
     "[schedule] times: explicit mode needs a times list"),
    ("evolve", "[evolve]\ntimes = ,\n", "[evolve] times: could not parse list ','"),
], ids=["p_span", "p_spacing", "fit_dn", "empty_strobes_observables",
        "empty_strobes_correlate", "empty_k", "fit_n0", "empty_dx0", "alike_dx0",
        "repeated_dx0", "zero_dx0_observables", "zero_dx0_timescales", "negative_dx0",
        "negative_alpha", "min_height_above_1", "nan_min_height", "explicit_without_times",
        "comma_only_times"])
def test_bad_values_and_empty_work_are_config_errors(tmp_path, capsys, command, ini,
                                                     location):
    # each of these once ended in a traceback or in an empty or header-only file
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {location}")
    assert not out.exists() or os.listdir(out) == []


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_timescales_json_roundtrip(tmp_path):
    rc = main(["timescales", "--out", str(tmp_path), "--format", "json",
               "--precision", "17"])
    assert rc == 0
    data = json.loads((tmp_path / "timescales.json").read_text())
    assert data["schema-version"] == "1"
    assert data["config-sha256"] == SHA_EMPTY
    report = TimeScaleReport.from_dict(data)
    assert report.tau == pytest.approx(2.0 / (800.0 * math.pi), rel=1e-15)
    assert report.T_rev == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert report.t0 == pytest.approx(0.0025, rel=1e-15)
    assert report.T_C == pytest.approx(0.01, rel=1e-15)
    assert report.t_flat == pytest.approx(0.2 / math.sqrt(12.0), rel=1e-15)
    assert report.t_flat_measured is None


def test_csv_header_and_determinism(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[schedule]\nmode = stroboscopic\nn_stop = 8\n")
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["observables", "--config", str(ini), "--out", str(d)]) == 0
        outs.append((d / "observables.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "# wellpacket observables"
    assert re.fullmatch(r"# config-sha256: [0-9a-f]{64}", lines[1])
    assert lines[2].split(",")[:4] == ["t", "x_mean", "dx", "p_mean"]
    assert len(lines) == 3 + 9


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[packet]\nwobble = 1\n")
    rc = main(["observables", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    # narrow fast-collapsing packet: the first strobe already lands below
    # threshold, so the fit cannot proceed
    ini = tmp_path / "fast.ini"
    ini.write_text("[packet]\nn0 = 100\ndx0 = 0.02\n"
                   "[schedule]\nn_stop = 5\n[correlate]\nfit = true\n")
    rc = main(["correlate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, ini", [
    ("observables", "[schedule]\nmode = explicit\ntimes = 1e308\n"),
    ("correlate", "[schedule]\nmode = explicit\ntimes = 1e308\n"),
    ("evolve", "[evolve]\ntimes = 1e308\n"),
    ("scan-flatten", "[flatten]\nt_stop = 1e308\nsample_step = 1e307\n"),
], ids=["observables", "correlate", "evolve", "scan-flatten"])
def test_times_whose_phase_overflows_are_numerical_failures(tmp_path, capsys, command, ini):
    # E_n t / hbar overflows at t = 1e308: observables and correlate once
    # wrote rows of nan and exited 0, evolve and scan-flatten ended in a
    # ValueError traceback
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: phase E_n t / hbar overflows")
    assert not out.exists() or os.listdir(out) == []


def test_exit_code_io_error(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("in the way")
    rc = main(["timescales", "--out", str(blocked)])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_option_validation(tmp_path, capsys):
    # a usage error is a config error (1), not argparse's 2, which would
    # read as a numerical failure; --threads is no longer an option
    out = ["--out", str(tmp_path)]
    bad = [["timescales", *out, "--precision", "0"],
           ["timescales", *out, "--precision", "abc"],
           ["timescales"],
           *([command, *out, "--threads", "2"] for command in
             ("evolve", "observables", "correlate", "powerlaw", "scan-flatten",
              "timescales"))]
    for argv in bad:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("config error: "), argv
    assert os.listdir(tmp_path) == []
    with pytest.raises(SystemExit) as done:
        main(["timescales", "--help"])
    assert done.value.code == 0


def test_evolve_empty_times(tmp_path):
    out = tmp_path / "empty"
    assert main(["evolve", "--out", str(out)]) == 0
    assert os.listdir(out) == []


def test_evolve_writes_densities(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[evolve]\ntimes = 0, 1tau\nrepresentation = both\n"
                   "[grids]\nx_points = 64\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(ini), "--out", str(out),
                 "--format", "json"]) == 0
    names = sorted(os.listdir(out))
    assert names == ["density_momentum_00.json", "density_momentum_01.json",
                     "density_position_00.json", "density_position_01.json"]
    data = json.loads((out / "density_position_01.json").read_text())
    assert data["time-literal"] == "1tau"
    assert data["time"] == pytest.approx(2.0 / (800.0 * math.pi), rel=1e-11)
    assert len(data["density"]) == 64


def test_momentum_grid_keeps_a_step_where_its_span_underflows(tmp_path):
    # p_span p0 / p_spacing underflows to 0: the grid is still -1, 0, 1
    # steps, not one point that MomentumGrid refused in a traceback
    ini = tmp_path / "run.ini"
    ini.write_text("[grids]\np_span = 5e-324\np_spacing = 1e308\n"
                   "[evolve]\ntimes = 0\nrepresentation = momentum\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(ini), "--out", str(out)]) == 0
    lines = (out / "density_momentum_00.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[-3:]] == ["-1e+308", "0", "1e+308"]


def test_powerlaw_output_tokens(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[powerlaw]\nk = 2, 4, infinity\nn_min = 0\nn_max = 2\n"
                   "fit = true\nfit_n0 = 200\nfit_dn = 3\n")
    out = tmp_path / "o"
    assert main(["powerlaw", "--config", str(ini), "--out", str(out)]) == 0
    text = (out / "powerlaw.csv").read_text()
    rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 9
    k2_n1 = next(r for r in rows if r[0] == "2" and r[1] == "1")
    assert k2_n1[4] == "periodic"
    k2_n0 = next(r for r in rows if r[0] == "2" and r[1] == "0")
    assert k2_n0[4] == ""          # no revival column below n = 1
    assert any(r[0] == "infinity" for r in rows)

    fits = json.loads((out / "powerlaw_fits.json").read_text())["fits"]
    by_k = {f["k"]: f for f in fits}
    assert by_k[2.0]["result"] == "periodic"
    assert by_k[4.0]["T_C_estimate"] == pytest.approx(8.454669812725, rel=1e-9)
    assert by_k[4.0]["points_used"] == 7
    # box limit at these parameters collapses within ~2.6 periods: too few
    # strobes above threshold, recorded as a failed fit rather than a number
    assert "fit failed" in by_k["infinity"]["result"]


@pytest.mark.parametrize("command, ini, code", [
    ("powerlaw", "[powerlaw]\nk = 4\na = 1e-150\nn_min = 0\nn_max = 2\n"
                 "fit = true\nfit_n0 = 100\nfit_dn = 3\n", 0),
    ("correlate", "[system]\nlength = 1e-90\n[packet]\nn0 = 400\nx0 = 5e-91\n"
                  "dx0 = 5e-92\n[correlate]\nfit = true\n[schedule]\nmode = dense\n"
                  "start = 0\nstop = 1T\ncount = 50\n", 2),
], ids=["powerlaw", "correlate"])
def test_a_collapse_fit_whose_squared_times_underflow_fails_cleanly(tmp_path, capsys,
                                                                    command, ini, code):
    # tau is about 4.6e-201 (powerlaw) and 3e-183 (box), so every t^2 of the
    # fit underflows to 0 and its slope is 0/0 = nan, which once passed the
    # fit's test and ended in a ValueError traceback from CollapseFit.  Now
    # it is a CollapseFitError: powerlaw records the failed fit and exits 0,
    # correlate exits 2
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == code
    reason = "ln|C| decay rate nan is not finite and positive"
    if command == "powerlaw":
        fits = json.loads((out / "powerlaw_fits.json").read_text())["fits"]
        assert fits == [{"k": 4.0, "result": f"fit failed: {reason}"}]
    else:
        assert capsys.readouterr().err == f"numerical failure: {reason}\n"


def test_flatten_single_width(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[flatten]\ndx0 = 0.05\nt_stop = 120tau\n")
    out = tmp_path / "o"
    assert main(["scan-flatten", "--config", str(ini), "--out", str(out)]) == 0
    summary = json.loads((out / "flatten_summary.json").read_text())
    assert summary["scaling_exponent"] is None   # one point cannot fix a slope
    det = summary["detections"]
    assert len(det) == 1 and det[0]["t_star"] is not None


def test_flatten_samples_stay_below_t_stop(tmp_path):
    # at n0 = 141 the float count of 480 tau / 0.25 tau put a 1921st sample
    # at 480.00000000000006 tau; the exact literals count 1920, each at
    # k step, the last one step below t_stop
    cfg = parse_config("[packet]\nn0 = 141\n")
    report = compute_timescales(cfg.system, cfg.packet)
    theta = cfg.flatten.sample_times(report.tau, report.T_rev, 141)
    times = np.asarray(theta)
    assert times.size == theta.num.size == 1920
    assert np.array_equal(times, np.arange(1920) * (0.25 * report.tau))
    assert times[-1] < 480 * report.tau
    ini = tmp_path / "run.ini"
    ini.write_text("[packet]\nn0 = 141\n[flatten]\ndx0 = 0.05\n")
    out = tmp_path / "o"
    assert main(["scan-flatten", "--config", str(ini), "--out", str(out)]) == 0
    rows = (out / "flatten_dx0_0.05.csv").read_text().splitlines()
    assert len(rows) == 4 + 1920      # three header lines and the column names
    assert float(rows[-1].split(",")[0]) == pytest.approx(times[-1], rel=1e-11)
    # plain numbers: the float count of 0.07 / 0.005 put a 15th sample at
    # 0.07; their decimal texts count 14, each at k step
    cfg = parse_config("[flatten]\nt_stop = 0.07\nsample_step = 0.005\n")
    times = cfg.flatten.sample_times(report.tau, report.T_rev, 400)
    assert type(times) is np.ndarray and np.array_equal(times, np.arange(14) * 0.005)


def test_collapse_fit_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[schedule]\nn_stop = 5\n[correlate]\nfit = true\n")
    out = tmp_path / "o"
    assert main(["correlate", "--config", str(ini), "--out", str(out)]) == 0
    fit = json.loads((out / "collapse_fit.json").read_text())
    assert fit["schema-version"] == "1"
    assert fit["points_used"] == 4
    assert fit["T_C_closed_form"] == pytest.approx(0.01, rel=1e-11)
    assert fit["T_C_estimate"] == pytest.approx(0.0107891398209, rel=1e-9)


def test_zero_crossing_momentum_is_no_imaginary_residue(tmp_path):
    # <p> crosses zero at every wall bounce while its rounding floor stays
    # near eps p0 sqrt(N); a residue test relative to |<p>| refused this run
    ini = tmp_path / "run.ini"
    ini.write_text("[packet]\nn0 = 4000\nx0 = 0.5\ndx0 = 0.005\n"
                   "[schedule]\nmode = dense\nstart = 0\nstop = 1T\ncount = 2000\n")
    out = tmp_path / "o"
    assert main(["observables", "--config", str(ini), "--out", str(out)]) == 0
    rows = [ln for ln in (out / "observables.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 2001


def test_printed_paths_match_files(tmp_path, capsys):
    assert main(["timescales", "--out", str(tmp_path / "o")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(tmp_path / "o" / "timescales.csv")]
    assert os.path.exists(printed[0])


def test_powerlaw_levels_are_not_rounded(tmp_path):
    # n is a level index: at 3 digits 1200..1203 must stay four levels
    ini = tmp_path / "run.ini"
    ini.write_text("[powerlaw]\nk = 4\nn_min = 1200\nn_max = 1203\n")
    levels = ["1200", "1201", "1202", "1203"]
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["powerlaw", "--config", str(ini), "--out", str(out),
                     "--format", fmt, "--precision", "3"]) == 0
        if fmt == "csv":
            text = (out / "powerlaw.csv").read_text()
            rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")][1:]
        else:
            rows = json.loads((out / "powerlaw.json").read_text())["rows"]
        assert [r[1] for r in rows] == levels
        # E stays a measured value, rounded to 3 digits
        assert all(float(r[2]) == float(f"{float(r[2]):.3g}") for r in rows)


def test_powerlaw_k_labels_are_not_rounded(tmp_path):
    # k labels its well: at one digit 1.5, 2 and 2.05 must stay three wells,
    # in the spectrum table and in the collapse fits
    ini = tmp_path / "run.ini"
    ini.write_text("[powerlaw]\nk = 1.5, 2, 2.05, 3, infinity\nn_min = 10\nn_max = 11\n"
                   "fit = true\nfit_n0 = 80\nfit_dn = 2\n")
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["powerlaw", "--config", str(ini), "--out", str(out),
                     "--format", fmt, "--precision", "1"]) == 0
        if fmt == "csv":
            text = (out / "powerlaw.csv").read_text()
            rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")][1:]
        else:
            rows = json.loads((out / "powerlaw.json").read_text())["rows"]
        assert [r[0] for r in rows] == ["1.5", "1.5", "2", "2", "2.05", "2.05", "3", "3",
                                        "infinity", "infinity"]
        fits = json.loads((out / "powerlaw_fits.json").read_text())["fits"]
        assert [f["k"] for f in fits] == [1.5, 2.0, 2.05, 3.0, "infinity"]
        assert '"k": 2.05,' in (out / "powerlaw_fits.json").read_text()


def _table_peak(out, n_rows):
    """Peak traced memory of writing an n_rows table that comes 1000 rows
    at a time, each block made as the writer reaches it."""
    def blocks():
        for i in range(0, n_rows, 1000):
            k = np.arange(i, i + 1000.0)
            yield k * 1e-3, np.sin(k), -k, np.full(1000, b"x"), k.astype(np.int64).astype("S")

    tracemalloc.start()
    try:
        out.emit("table", ["t", "a", "b", "s", "n"], blocks(), {"kind": "test"})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_peak_is_bounded_by_its_block_of_cells(fmt):
    # One block of 40000 rows x 9 float columns, as an `observables` table,
    # is written TABLE_CELLS cells at a time: the writer's peak is set by
    # those cells, not by the block's 360000 (measured 130-133 B a cell in
    # CSV and 131-134 in JSON, at 16384 and at 4096 cells); bounded at 200
    k = np.arange(40000.0)
    block = [k * 1e-3] + [np.sin(k * (0.37 + j)) * 10.0 ** (j - 6) for j in range(8)]
    seps = (b",\n  [\n    ", b",\n    ", b"\n  ]") if fmt == "json" else (b"", b",", b"\n")
    for _ in table_text(iter([[c[:100] for c in block]]), "%.12g", fmt == "json", *seps):
        pass        # first-use tables are not part of the block
    tracemalloc.start()
    try:
        size = sum(len(text) for text in table_text(iter([block]), "%.12g", fmt == "json",
                                                      *seps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * TABLE_CELLS, (peak, TABLE_CELLS)
    assert size > 40000 * 9 * 12        # every row was written


def test_json_table_memory_does_not_grow_with_rows(tmp_path):
    # The JSON writer holds one slice of rows at a time, never the table,
    # nor a slice's text while it builds the next: a table of 40k rows
    # peaks within 64 KiB of one of 4k (a writer that listed the rows first
    # peaked at 0.5 and 6 MB; one that held the last slice's text while
    # building the next, at 1.27 and 1.64 MB).
    out = _Output(parse_config("[output]\nformat = json\n"), "observables", tmp_path)
    _table_peak(out, 4000)          # first-use caches are not part of the table
    small, large = _table_peak(out, 4000), _table_peak(out, 40000)
    assert large <= small + 64 * 1024, (small, large)
    rows = json.loads((tmp_path / "table.json").read_text())["rows"]
    assert len(rows) == 40000
    assert rows[-1] == [39.999, pytest.approx(math.sin(39999), rel=1e-11), -39999.0, "x",
                        "39999"]


def test_csv_table_memory_does_not_grow_with_rows(tmp_path):
    # the CSV twin: the buffers of a slice, which takes its rows from
    # several blocks, do not grow with the table
    out = _Output(parse_config(""), "observables", tmp_path)
    _table_peak(out, 4000)
    small, large = _table_peak(out, 4000), _table_peak(out, 40000)
    assert large <= small + 64 * 1024, (small, large)
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert len(lines) == 3 + 40000
    assert lines[-1] == f"39.999,{math.sin(39999):.12g},-39999,x,39999"


def test_repeated_main_calls_write_what_fresh_runs_write(tmp_path):
    # main() keeps one parser per process; no option of one call may
    # carry over into the next
    ini = tmp_path / "run.ini"
    ini.write_text("[powerlaw]\nk = 1.5, infinity\nn_min = 0\nn_max = 40\n")
    calls = [["powerlaw", "--config", str(ini), "--format", "json", "--precision", "5"],
             ["timescales"]]
    for i, argv in enumerate(calls):
        assert main([*argv, "--out", str(tmp_path / f"same-{i}")]) == 0
    for i, argv in enumerate(calls):
        proc = subprocess.run([sys.executable, "-m", "wellpacket", *argv,
                               "--out", str(tmp_path / f"fresh-{i}")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        names = sorted(os.listdir(tmp_path / f"fresh-{i}"))
        assert sorted(os.listdir(tmp_path / f"same-{i}")) == names
        for name in names:
            assert ((tmp_path / f"same-{i}" / name).read_bytes()
                    == (tmp_path / f"fresh-{i}" / name).read_bytes())


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wellpacket.cli", "timescales",
         "--out", str(tmp_path), "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "timescales.json").exists()


def test_package_entry_point(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[packet]\nn0 = 40\ndx0 = 0.1\n[schedule]\nn_stop = 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wellpacket", "observables", "--config", str(ini),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(tmp_path / "o" / "observables.csv")]
    rows = [ln for ln in (tmp_path / "o" / "observables.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 5    # the header and n = 0 .. 3


@pytest.mark.parametrize("stop, code", [("2000tau", 0), ("1T", 0), ("1.000000001T", 1)])
def test_scan_stop_slack_scales_with_T(tmp_path, capsys, stop, code):
    # in a well of length 1000, 2000 tau = 2 n0 tau rounds 4.7e-10 past T:
    # a window that ends at T, which an absolute slack of 1e-12 refused
    ini = tmp_path / "run.ini"
    ini.write_text("[system]\nlength = 1000\nmass = 3.0\n"
                   "[packet]\nn0 = 1000\nx0 = 500\ndx0 = 50\n[schedule]\nn_stop = 5\n"
                   f"[correlate]\nscan = true\nscan_stop = {stop}\nscan_resolution = 0.5tau\n")
    out = tmp_path / "o"
    assert main(["correlate", "--config", str(ini), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith("config error: [correlate] scan_stop:")
    else:
        scan = json.loads((out / "revival_scan.json").read_text())
        assert scan["peaks"][-1]["fraction"] == [1, 1]


def test_startup_imports_stay_lean():
    # the command line loads neither a thread pool nor fractions at start-up;
    # fractions comes in when a time literal is first parsed
    code = ("import sys, wellpacket.cli; "
            "print(sorted({'concurrent.futures', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_revival_scan_samples_stop_at_scan_stop(tmp_path):
    # 0.5T + k 0.3T: 0.5T and 0.8T lie in the window, 1.1T lies past it
    # and past T, and must not be sampled; 0.8T is below the exact half
    # revival at 0.5T, so that is the one peak
    ini = tmp_path / "run.ini"
    ini.write_text("[packet]\nn0 = 40\ndx0 = 0.1\n[schedule]\nn_stop = 5\n"
                   "[correlate]\nscan = true\nscan_start = 0.5T\nscan_stop = 1T\n"
                   "scan_resolution = 0.3T\nmin_height = 0.0\n")
    out = tmp_path / "o"
    assert main(["correlate", "--config", str(ini), "--out", str(out)]) == 0
    scan = json.loads((out / "revival_scan.json").read_text())
    T = scan["window"][1]
    assert [round(p["t"] / T, 12) for p in scan["peaks"]] == [0.5]


# Box configs whose derived scales leave the doubles, and the commands that
# each ended in an OverflowError or "Maximum allowed size exceeded" traceback:
# length = 1e155 overflows L^2 in T_rev; hbar = 1e-300 squares alpha past
# the doubles and flushes E_n to 0, hbar = 1e300 overflows E_n; dx0 = 1e-300
# flushes t0 to 0 and overflows dn^2; alpha = 1e300 overflows dx0^2 in t0
BOX_SCALES_PAST_THE_DOUBLES = [
    ("[system]\nlength = 1e155", "timescales", "[system] the revival time T_rev = inf"),
    ("[system]\nlength = 1e155", "observables", "[system] the revival time T_rev = inf"),
    ("[system]\nhbar = 1e-300", "observables", "[system] the window's top energy E_425 = 0.0"),
    ("[system]\nhbar = 1e300", "observables", "[system] the window's top energy E_425 = inf"),
    ("[packet]\ndx0 = 1e-300", "timescales", "[packet] the spreading time t0 = 0.0"),
    ("[packet]\ndx0 = 1e-300", "observables", "[packet] the spreading time t0 = 0.0"),
    ("[packet]\nalpha = 1e300", "timescales", "[packet] the spreading time t0 = inf"),
    ("[packet]\nalpha = 1e300", "observables", "[packet] the spreading time t0 = inf"),
    # the level window's half-width W dn, in the box and in the power-law
    # fit (8 fit_dn): window_sigmas = 1e308 and fit_dn = 1e308 overflow it,
    # each an OverflowError traceback before the level-range rule.  A
    # [flatten] dx0 width names itself: 1e-300 was reported under [packet]
    ("[packet]\nwindow_sigmas = 1e308", "observables",
     "[packet] the level window's half-width 1e+308 x 3.183098861837906 = inf"),
    ("[powerlaw]\nfit_dn = 1e308\nk = 4\nfit = true", "powerlaw",
     "[powerlaw] the level window's half-width 8.0 x 1e+308 = inf"),
    ("[flatten]\ndx0 = 0.05, 1e-300", "scan-flatten",
     "[flatten] dx0 = 1e-300: the spreading time t0 = 0.0"),
]


@pytest.mark.parametrize("ini, command, error", BOX_SCALES_PAST_THE_DOUBLES,
                         ids=[f"{c}-{i.splitlines()[1].replace(' ', '')}"
                              for i, c, _ in BOX_SCALES_PAST_THE_DOUBLES])
def test_box_scales_past_the_doubles_are_config_errors(tmp_path, capsys, ini, command, error):
    # the time-scale report, the packet's width and the energy at the
    # window's top are held to one rule before any file is written
    path = tmp_path / "run.ini"
    path.write_text(ini + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {error} is not a finite positive double\n"
    assert not out.exists()


# Configs whose levels numpy cannot build, and the tracebacks each ended in
# before the level-range rule (the last four after the output directory was
# made, three of them after powerlaw.csv was written): a MemoryError for
# more levels than memory holds, each above 2^47 bytes so that no machine
# allocates them, and a ValueError or TypeError from levels past int64
LEVEL_RANGES_PAST_MEMORY = [
    ("observables", "[packet]\ndx0 = 1e-17", "[packet]", "cannot be held"),
    ("observables", "[packet]\nn0 = 100000000000000000000", "[packet]", "is past int64"),
    ("scan-flatten", "[flatten]\ndx0 = 0.05, 1e-17", "[flatten] dx0 = 1e-17:",
     "cannot be held"),
    ("powerlaw", "[powerlaw]\nfit_dn = 1e100\nk = 4\nfit = true", "[powerlaw]",
     "is past int64"),
    ("powerlaw", "[powerlaw]\nfit_dn = 1e15\nk = 4\nfit = true", "[powerlaw]",
     "cannot be held"),
    ("powerlaw", "[powerlaw]\nfit_n0 = 100000000000000000000\nk = 4\nfit = true",
     "[powerlaw]", "is past int64"),
    ("powerlaw", "[powerlaw]\nn_max = 1000000000000000\nk = 4", "[powerlaw]",
     "cannot be held"),
]


@pytest.mark.parametrize("command, ini, location, problem", LEVEL_RANGES_PAST_MEMORY,
                         ids=[f"{c}-{i.splitlines()[1].replace(' ', '')}"
                              for c, i, _, _ in LEVEL_RANGES_PAST_MEMORY])
def test_level_ranges_past_memory_are_config_errors(tmp_path, capsys, command, ini,
                                                    location, problem):
    # every level array, the box's window, the power-law fit's window and
    # the spectrum, comes from packet.level_range, before any file
    path = tmp_path / "run.ini"
    path.write_text(ini + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {location} the ") and err.endswith(f" {problem}\n")
    assert not out.exists()


# Runs that stop with a refusal, and what each once left behind: the
# resolver refusals an empty output directory, the failed fit a
# correlation.csv, the time grids past memory (each above 2^47 bytes, so
# that no machine allocates them) a MemoryError traceback and an empty
# directory, the power-law levels past the doubles an OverflowError
# traceback from n0 - h or from n + mu, and the chunks' three dense forms
# of a 2.5e6-level packet (24 N^2 bytes, above 2^47) a MemoryError traceback
REFUSED_RUNS = [
    ("observables", "[schedule]\nmode = dense\nstart = 1tau\nstop = 0", 1,
     "config error: [schedule] stop: must exceed start"),
    ("scan-flatten", "[flatten]\nt_stop = 0", 1, "config error: [flatten] t_stop: must be"),
    ("correlate", "[schedule]\nn_stop = 5\n[correlate]\nscan = true\nscan_resolution = 0", 1,
     "config error: [correlate] scan_resolution: must be positive"),
    ("evolve", "[evolve]\ntimes = 1xyz", 1, "config error: [evolve] times: cannot parse"),
    ("correlate", "[packet]\nn0 = 100\ndx0 = 0.02\n[schedule]\nn_stop = 5\n"
     "[correlate]\nfit = true", 2, "numerical failure: only 0 stroboscopic points"),
    ("observables", "[schedule]\nn_stop = 1000000000000000", 1,
     "config error: [schedule] n_stop: the 1000000000000001 strobes n = 0 to "
     "1000000000000000 cannot be held"),
    ("observables", "[schedule]\nmode = dense\ncount = 1000000000000000", 1,
     "config error: [schedule] count: the 1000000000000000 times cannot be held"),
    ("scan-flatten", "[flatten]\nt_stop = 1e15tau", 1,
     "config error: [flatten] t_stop: the samples 0.25tau apart below 1e15tau cannot be held"),
    ("correlate", "[schedule]\nn_stop = 5\n[correlate]\nscan = true\n"
     "scan_resolution = 1e-13tau", 1, "config error: [correlate] scan_resolution: the samples "),
    ("powerlaw", "[powerlaw]\nk = 4\nfit = true\nfit_n0 = 1" + "0" * 400, 1,
     f"config error: [powerlaw] the top level n = 1{'0' * 398}24 is past int64"),
    ("powerlaw", "[powerlaw]\nk = 4\nn_max = 1" + "0" * 400, 1,
     f"config error: [powerlaw] the top level n = 1{'0' * 400} is past int64"),
    ("observables", "[packet]\ndx0 = 5e-7\n[schedule]\nmode = explicit\ntimes = 1tau", 1,
     "config error: [packet] the 3 dense 2546879 x 2546879 forms cannot be held"),
]


@pytest.mark.parametrize("command, ini, code, message", REFUSED_RUNS,
                         ids=["dense_stop", "t_stop", "scan_resolution", "evolve_times",
                              "failed_fit", "strobes_past_memory", "dense_past_memory",
                              "flatten_past_memory", "scan_past_memory", "fit_n0_past_doubles",
                              "n_max_past_doubles", "dense_forms_past_memory"])
def test_a_refused_run_leaves_no_output_directory(tmp_path, capsys, command, ini, code,
                                                  message):
    # a run computes all it writes before it makes its directory
    path = tmp_path / "run.ini"
    path.write_text(ini + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("literal", ["1e-3000000tau", "0e3000000"])
def test_literals_with_long_exponents_parse_at_once(literal):
    # Fraction(literal) would build 10**3000000, about 2 s: past the
    # exponents at which a nonzero literal is a finite, nonzero double its
    # exact value is 0 for a zero mantissa and none otherwise
    start = time.perf_counter()
    t, exact, _ = config._literal(literal, 0.1, 80.0)
    assert time.perf_counter() - start < 0.1
    assert t == 0.0
    assert exact == (0 if literal.startswith("0") else None)
    times = ScheduleSettings(mode="explicit", times=(literal, "1tau")).resolve(0.1, 80.0, 400)
    assert isinstance(times, Theta) == (exact is not None)


@pytest.mark.parametrize("literal, exact, unit", [
    ("1_0tau", Fraction(10), "tau"), ("0.2_5T", Fraction(1, 4), "T"),
    ("1e1_0", Fraction(10**10), None), ("1" + "0" * 4400 + "e-4400", None, None)])
def test_literals_get_one_exact_value_on_every_python(literal, exact, unit):
    # float reads underscores on every supported Python, Fraction only from
    # 3.11; past Python's 4300-digit int limit Fraction reads no literal, so
    # the last keeps its time (1.0) but has no exact value
    t, x, u = config._literal(literal, 0.1, 80.0)
    assert (x, u) == (exact, unit) and type(x) is type(exact)
    assert t == float(literal.removesuffix(unit or "")) * {"tau": 0.1, "T": 80.0, None: 1}[unit]
