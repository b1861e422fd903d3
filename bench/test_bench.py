"""Tests of the benchmark itself: python3 -m pytest bench/ -q

They run the real program from ./src on short, fixed job counts.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (first: it pins the BLAS threads before numpy loads)
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)

# Workload on which each per-layer metric must be non-zero: the one whose
# job mix exercises that layer.  *.failures are left out (they count a
# known defect and must be free to drop to zero when it is fixed), and so
# is trace.overhead_s, a difference of two medians.
NONZERO_ON = {
    "bounce_dense": [
        "observables.series_s", "observables.series_calls", "observables.phase_terms",
        "observables.phase_bytes_max", "observables.table_s", "observables.table_bytes",
        "correlation.fit_s", "correlation.fit_evals", "correlation.fit_useful_ratio",
        "runs.self_s", "runs.bytes_written", "runs.files_written",
        "evolution.field_s", "evolution.field_terms",
        "system.trajectory_calls", "system.trajectory_s", "system.eigenenergy_calls",
        "packet.build_s", "packet.levels", "timescales.self_s", "timescales.detect_calls",
        "cli.self_s", "config.parse_s",
    ],
    "revival_large": [
        "observables.series_s", "observables.series_calls", "observables.phase_terms",
        "observables.phase_bytes_max", "observables.table_s", "observables.table_bytes",
        "correlation.phase_s", "correlation.phase_terms", "correlation.phase_bytes_max",
        "correlation.scan_self_s", "correlation.scan_samples",
        "runs.self_s", "runs.bytes_written", "runs.files_written",
        "system.trajectory_calls", "packet.build_s", "packet.levels",
        "cli.self_s", "config.parse_s",
    ],
    "powerlaw_family": [
        "powerlaw.wkb_calls", "powerlaw.wkb_s", "powerlaw.fit_s", "powerlaw.fit_evals",
        "powerlaw.fit_useful_ratio", "powerlaw.self_s",
        "runs.self_s", "runs.bytes_written", "runs.files_written",
        "cli.self_s", "config.parse_s",
    ],
}


def _round(workload) -> int:
    """Jobs per round; one round holds every job kind of the workload."""
    return len(workloads.WORKLOADS[workload][0](workloads.Draws(random.Random(0))))


def _jobs(workload, seed, n):
    return workloads.job_list(workload, seed, math.ceil(n / _round(workload)))[:n]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    n = 3 * _round(workload)
    a, b = _jobs(workload, 7, n), _jobs(workload, 7, n)
    assert [(j.command, j.fmt, j.ini.encode()) for j in a] == \
           [(j.command, j.fmt, j.ini.encode()) for j in b]
    assert a == b
    assert [j.ini for j in _jobs(workload, 8, n)] != [j.ini for j in a]
    assert workloads.warmup(workload) == workloads.warmup(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_holds_every_job_kind(workload):
    kinds = {j.kind for j in workloads.warmup(workload)}
    size = _round(workload)
    jobs = _jobs(workload, 3, 3 * size)
    for r in range(3):
        assert {j.kind for j in jobs[r * size:(r + 1) * size]} >= kinds


def test_a_run_is_whole_rounds_of_at_least_100_jobs():
    """The job count is fixed by --seconds, not by the machine's speed, and
    leaves ten jobs beyond the 90th percentile."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in WORKLOADS:
        n_rounds = workloads.rounds(workload, seconds)
        assert n_rounds * _round(workload) >= 100
        assert workloads.rounds(workload, seconds, traced=True) < n_rounds
        assert len(workloads.job_list(workload, 4, n_rounds)) == n_rounds * _round(workload)


def test_self_time_is_span_minus_child_spans():
    S = spans.Span
    tree = [
        S("cli.main", 0.0, 10.0, -1),
        S("runs.run_observables", 1.0, 9.0, 0),
        S("observables.expectation_series", 2.0, 4.0, 1),
        S("observables.uncertainty_series", 5.0, 8.0, 1),
        S("observables.expectation_series", 5.5, 6.5, 3),
        S("config.load_config", 9.0, 9.5, 0),
    ]
    assert spans.self_times(tree) == [10.0 - 8.0 - 0.5, 8.0 - 2.0 - 3.0, 2.0, 2.0, 1.0, 0.5]
    # overlapping children (threads) are counted once, clipped to the parent
    overlap = [S("a", 0.0, 10.0, -1), S("b", 1.0, 5.0, 0), S("c", 3.0, 12.0, 0)]
    assert spans.self_times(overlap)[0] == 1.0


def test_fold_takes_outermost_series_time_and_layer_self_time():
    tracer = spans.Tracer()
    S = spans.Span
    tracer.spans = [
        S("runs.run_scan_flatten", 0.0, 6.0, -1),
        S("observables.sample_series", 1.0, 4.0, 0),
        S("observables.uncertainty_series", 1.5, 3.5, 1),
        S("powerlaw.wkb_energy", 4.0, 4.5, 0),
    ]
    sums = tracer.fold()
    assert sums["observables.series_s"] == 3.0
    assert sums["observables.series_calls"] == 1
    assert sums["runs.self_s"] == 6.0 - 3.0 - 0.5
    assert sums["powerlaw.wkb_calls"] == 1 and sums["powerlaw.wkb_s"] == 0.5


def test_untraced_run_leaves_every_binding_unpatched():
    run._import_program()
    before = spans.package_bindings()
    record = run.run("powerlaw_family", 1, seconds=600, trace=False, max_jobs=3)
    assert record["result"]["attempted"] == 3
    after = spans.package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


def test_traced_bindings_are_installed_then_restored():
    run._import_program()
    before = spans.package_bindings()
    with spans.Patches(spans.Tracer()):
        during = spans.package_bindings()
        patched = {k for k in before if during[k] is not before[k]}
        # names imported into other modules are wrapped where they are used
        for site in [("wellpacket.runs", "build_gaussian_packet"),
                     ("wellpacket.packet", "eigenenergy"),
                     ("wellpacket.powerlaw", "fit_stroboscopic"),
                     ("cli._COMMANDS", "observables")]:
            assert site in patched
    after = spans.package_bindings()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_is_nonzero_where_exercised(workload):
    size = _round(workload)
    record = run.run(workload, 5, seconds=600, trace=True, max_jobs=size)
    result = record["result"]
    assert result["correct"], record["check_failures"]
    assert result["attempted"] == size
    metrics = result["metrics"]
    assert [m for m, _, _ in spans.METRICS] + ["trace.overhead_s"] == list(metrics)
    zero = [m for m in NONZERO_ON[workload] if not metrics[m]["value"] > 0]
    assert not zero
    # a traced job writes the same bytes as the untraced one
    assert not record["trace_mismatches"]


def test_outputs_repeat_and_carry_the_config_hash():
    jobs = [(w, j) for w in WORKLOADS for j in _jobs(w, 2, _round(w))
            if j.kind not in ("correlate-full", "observables-dense")]
    runner = run.Runner(run._import_program(), os.path.join(run.WORK, "test-repeat"),
                        run.SpeedReference())
    for workload, job in jobs:
        a, b = runner.run(job, "a"), runner.run(job, "b")
        assert a["rc"] == b["rc"]
        if run.known_defect(workload, a):     # see README
            continue
        assert a["rc"] == 0 and not a["check"], (job.ini, a)
        assert a["out_sha256"] == b["out_sha256"]
        assert a["ini_sha256"] == checks.config_sha(job.ini)


def test_only_the_known_refusal_leaves_a_run_correct():
    rec = {"rc": 2, "kind": "observables-dense",
           "error": "numerical failure: imaginary residue 3e-11 on <p> exceeds 1e-12"}
    assert run.known_defect("revival_large", rec)
    assert not run.known_defect("bounce_dense", rec)
    assert not run.known_defect("revival_large", {**rec, "kind": "correlate-window"})
    assert not run.known_defect("revival_large", {**rec, "error": "CollapseFitError: 2 points"})
    assert not run.known_defect("revival_large", {**rec, "rc": 1})


def _run_job(job, name):
    """Runs one job through cli.main; returns its output directory."""
    base = os.path.join(run.WORK, name)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    ini = os.path.join(base, "job.ini")
    with open(ini, "w") as fh:
        fh.write(job.ini)
    out = os.path.join(base, "out")
    argv = [job.command, "--config", ini, "--out", out, "--format", job.fmt]
    assert run._import_program().main(argv) == 0
    return out


def test_checks_reject_tampered_output():
    job = workloads._powerlaw(["2", "infinity"], 0, 20, False, 1.0, 1.0, None, "csv")
    out = _run_job(job, "test-tamper")
    path = os.path.join(out, "powerlaw.csv")
    assert checks.check_job(job, out, [path]) == []
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("periodic", "1.5", 1))
    assert any("periodic" in e for e in checks.check_job(job, out, [path]))
    with open(path, "w") as fh:
        fh.write(text.replace("config-sha256: ", "config-sha256: 0", 1))
    assert any("config-sha256" in e for e in checks.check_job(job, out, [path]))
    shutil.rmtree(os.path.dirname(out))


@pytest.mark.parametrize("job", [
    workloads._coarse_correlate(200, 0.4, 0.07, 400, "1", "json"),
    workloads._window_scan(1500, 0.4, 0.009, (1, 2), 100, 0.125, "csv"),
], ids=["full", "window"])
def test_checks_reject_a_lowered_half_revival_peak(job):
    """The Cbar peak of height 1 at T/2 is checked on full and window scans."""
    out = _run_job(job, "test-tamper-scan")
    listed = [os.path.join(out, f) for f in os.listdir(out)]
    assert checks.check_job(job, out, listed) == []
    path = os.path.join(out, "revival_scan.json")
    with open(path) as fh:
        scan = json.load(fh)
    half = [pk for pk in scan["peaks"] if pk["fraction"] == [1, 2] and pk["channel"] == "Cbar"]
    assert len(half) == 1
    half[0]["height"] = 0.999
    with open(path, "w") as fh:
        json.dump(scan, fh)
    assert "no Cbar peak of height 1 at 1/2 T" in checks.check_job(job, out, listed)
    shutil.rmtree(os.path.dirname(out))


def test_refuses_to_run_without_the_program_sources():
    bare = os.path.join(run.WORK, "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "powerlaw_family",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
           [(m, u) for m, u, _ in spans.METRICS] + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
