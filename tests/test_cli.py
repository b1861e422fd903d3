"""Config parsing, run drivers, and the command line end to end."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from wellpacket.cli import main
from wellpacket.config import (ConfigError, CorrelateSettings, OutputSettings,
                               RunConfig, ScheduleSettings, load_config,
                               parse_config, parse_time)
from wellpacket.timescales import TimeScaleReport

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
    assert os.listdir(out) == []


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
], ids=["p_span", "p_spacing", "fit_dn", "empty_strobes_observables",
        "empty_strobes_correlate", "empty_k", "fit_n0", "empty_dx0"])
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


def test_exit_code_io_error(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("in the way")
    rc = main(["timescales", "--out", str(blocked)])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_option_validation(tmp_path):
    assert main(["timescales", "--out", str(tmp_path), "--precision", "0"]) == 1
    assert main(["timescales", "--out", str(tmp_path), "--threads", "0"]) == 1


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


def test_flatten_single_width(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[flatten]\ndx0 = 0.05\nt_stop = 120tau\n")
    out = tmp_path / "o"
    assert main(["scan-flatten", "--config", str(ini), "--out", str(out)]) == 0
    summary = json.loads((out / "flatten_summary.json").read_text())
    assert summary["scaling_exponent"] is None   # one point cannot fix a slope
    det = summary["detections"]
    assert len(det) == 1 and det[0]["t_star"] is not None


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


def test_threads_do_not_change_output(tmp_path, monkeypatch):
    from wellpacket import packet
    # 40 rows per kernel chunk at N = 51: both series span several chunks
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 16 * 51 * 40)
    ini = tmp_path / "run.ini"
    ini.write_text("[schedule]\nmode = dense\nstart = 0\nstop = 4tau\ncount = 300\n"
                   "[flatten]\ndx0 = 0.05\nt_stop = 60tau\n")
    for command, name in (("observables", "observables.csv"),
                          ("scan-flatten", "flatten_dx0_0.05.csv")):
        blobs = []
        for sub, threads in (("a", "1"), ("b", "3")):
            d = tmp_path / command / sub
            assert main([command, "--config", str(ini), "--out", str(d),
                         "--threads", threads]) == 0
            blobs.append((d / name).read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].count(b"\n") > 200


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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wellpacket.cli", "timescales",
         "--out", str(tmp_path), "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "timescales.json").exists()
