"""Benchmark of the wellpacket CLI: seeded jobs in one long-lived process.

Run from the repository root (the script finds ./src next to bench/):

    python3 bench/run.py --workload bounce_dense --seed 1 --seconds 25 --trace 0

A closed loop with a single client calls ``wellpacket.cli.main(argv)``
in-process, one job at a time, after a fixed warm-up.  The run's job list
is fixed by the seed and ``--seconds``: as many whole rounds of the
workload as last about ``--seconds`` on the reference machine, so the
same seed always attempts the same jobs.  Each job is a generated INI
config plus a subcommand (bench/workloads.py); its output files are
checked (bench/checks.py) and then deleted.  The package is imported
from ./src; nothing is installed.  The process runs on one CPU with one
BLAS thread, and job times are scaled to a fixed machine speed (see
SpeedReference).

--trace 0 prints the end-to-end metrics.  --trace 1 runs every job twice,
untraced and traced in alternating order, and prints the per-layer
metrics (bench/spans.py) plus the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Per-job records, the machine details and the
per-layer breakdown go to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# BLAS and OpenMP pools are pinned to one thread, unless the caller set
# them: on a small shared machine a second BLAS thread mostly adds noise.
# The variables as found and as used are both recorded with every result.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS_FOUND = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the pinning)

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LayerStats, Patches, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")

# Fresh-interpreter CLI runs behind setup_s; one untimed run first fills
# the bytecode cache, which users pay once, not per invocation.
SETUP_REPEATS = 11
END_TO_END = (("setup_s", "s"), ("job_s.p50", "s"), ("job_s.p90", "s"),
              ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"))


def _import_program():
    """wellpacket.cli from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "wellpacket", "cli.py")):
        raise SystemExit(f"bench: no wellpacket sources under {SRC}; "
                         "run from the repository root")
    sys.path.insert(0, SRC)
    from wellpacket import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported {cli.__file__}, not the sources under {SRC}")
    return cli


def machine_details(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env_found": THREADS_FOUND,
        "thread_env_used": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wellpacket")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


_E = np.linspace(1.0, 4.0e3, 64)
_T = np.linspace(0.0, 0.6, 500)
_M = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_C = np.linspace(0.1, 1.0, 300).tolist()


def _kernel():
    """An interpreted loop, a 500 x 64 phase matrix with its bilinear form
    and float formatting: the mix of the program's work."""
    s = 0
    for i in range(10000):
        s += i * i
    u = np.exp(-1j * np.outer(_T, _E))
    np.sum(u.conj() * (u @ _M), axis=1)
    ",".join(f"{x:.12g}" for x in _C)


class SpeedReference:
    """Machine speed, from a fixed kernel timed next to every job.

    The shared 2-vCPU machine the benchmark was built on runs the same code
    at two speeds, about 1.45x apart, switching every few seconds (a busy
    neighbour on the host).  Wall times therefore spread 20% and more
    between runs.  Every job's time is scaled by the kernel's reference
    time over its time measured just before and just after the job: the
    result is the job's time in seconds at the speed at which the kernel
    takes its reference time, its fast-phase time on that machine.  Raw
    wall times are kept in the record.
    """

    reference_s = 2.7e-3

    def __init__(self):
        self.last = self.kernel_seconds()

    def kernel_seconds(self) -> float:
        """Median of three timed runs of the kernel."""
        times = []
        for _ in range(3):
            t = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    def scale(self) -> float:
        """Factor for the interval since the previous call."""
        before, self.last = self.last, self.kernel_seconds()
        return self.reference_s / ((before + self.last) / 2)


def measure_setup(work: str, speed: SpeedReference) -> list[tuple[float, float]]:
    """(wall, speed-scaled) times of `wellpacket timescales` on defaults,
    each in a fresh interpreter on the benchmark's CPU; the first run is
    untimed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "wellpacket.cli", "timescales", "--out",
           os.path.join(work, "setup")]
    times = []
    for i in range(SETUP_REPEATS + 1):
        speed.scale()
        t = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t
        if i:
            times.append((wall, wall * speed.scale()))
    return times


class Runner:
    """Runs one job through cli.main and checks what it wrote."""

    def __init__(self, cli, work: str, speed: SpeedReference):
        self.cli = cli
        self.work = work
        self.speed = speed

    def run(self, job, slot: str, tracer=None) -> dict:
        base = os.path.join(self.work, slot)
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        ini = os.path.join(base, "job.ini")
        with open(ini, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(job.ini)
        out = os.path.join(base, "out")
        argv = [job.command, "--config", ini, "--out", out, "--format", job.fmt]
        stdout, stderr = io.StringIO(), io.StringIO()
        patches = Patches(tracer) if tracer is not None else contextlib.nullcontext()
        error = None
        self.speed.scale()
        with patches, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as e:          # the job fails; the benchmark goes on
                rc, error = None, f"{type(e).__name__}: {e}"
            except SystemExit as e:
                rc, error = None, f"SystemExit: {e.code}"
            wall = time.perf_counter() - t
        scale = self.speed.scale()
        rec = {"kind": job.kind, "fmt": job.fmt, "wall_s": wall, "scale": scale,
               "seconds": wall * scale, "rc": rc,
               "ini_sha256": checks.config_sha(job.ini), "out_sha256": None,
               "error": error or stderr.getvalue().strip() or None, "check": []}
        if rc == 0:
            listed = stdout.getvalue().split()
            try:
                rec["check"] = checks.check_job(job, out, listed)
            except Exception as e:          # unreadable output fails the check
                rec["check"] = [f"{type(e).__name__}: {e}"]
            rec["out_sha256"] = checks.file_sha(listed) if not rec["check"] else None
        shutil.rmtree(base, ignore_errors=True)
        return rec


def _ok(rec) -> bool:
    return rec["rc"] == 0 and not rec["check"]


def known_defect(workload: str, rec) -> bool:
    """The one failure a run may show and stay correct: the imaginary-residue
    refusal (exit 2) of revival_large observables jobs, a known defect of the
    program listed in the ROADMAP.  Any other non-zero exit is an error."""
    return (workload == "revival_large" and rec["rc"] == 2
            and rec["kind"].startswith("observables")
            and "imaginary residue" in (rec["error"] or ""))


def _failure_kind(rec) -> str:
    """The failure message with its numbers blanked, to group like failures."""
    if rec["rc"] == 0:
        return "check failed"
    return re.sub(r"\d[\d.e+-]*", "#", (rec["error"] or f"exit {rec['rc']}").splitlines()[-1])


def _p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _digest(shas) -> str:
    return hashlib.sha256("".join(s or "-" for s in shas).encode()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, max_jobs=None) -> dict:
    """One benchmark run; returns its record, whose "result" is the
    object the last line of output prints."""
    cli = _import_program()
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_details(seed)}
    speed = SpeedReference()
    runner = Runner(cli, work, speed)
    setup = [] if trace else measure_setup(work, speed)

    warm = [runner.run(job, "warmup") for job in workloads.warmup(workload)]
    record["warmup"] = warm

    n_rounds = workloads.rounds(workload, seconds, trace)
    todo = workloads.job_list(workload, seed, n_rounds)[:max_jobs]
    jobs, traced_jobs = [], []
    tracer, stats = Tracer(), LayerStats()
    start = time.perf_counter()
    for job in todo:
        if not trace:
            jobs.append(runner.run(job, "job"))
            continue
        tracer.reset()
        untraced_first = len(jobs) % 2 == 0
        for traced in ((False, True) if untraced_first else (True, False)):
            rec = runner.run(job, "job", tracer if traced else None)
            (traced_jobs if traced else jobs).append(rec)
        stats.add_job(tracer, traced_jobs[-1]["scale"])
    elapsed = time.perf_counter() - start

    times = [r["seconds"] for r in jobs]
    ok = [r for r in jobs if _ok(r)]
    failed = [r for r in jobs if not _ok(r)]
    check_failures = [r for r in warm + jobs + traced_jobs
                      if r["check"] or not (r["rc"] == 0 or known_defect(workload, r))]
    mismatched = [i for i, (a, b) in enumerate(zip(jobs, traced_jobs))
                  if a["out_sha256"] != b["out_sha256"]]
    correct = not check_failures and not mismatched
    if trace:
        failed = [a for a, b in zip(jobs, traced_jobs) if not (_ok(a) and _ok(b))]

    record.update({
        "rounds": n_rounds,
        "elapsed_s": elapsed,
        "jobs": jobs,
        "traced_jobs": traced_jobs,
        "failures_by_type": dict(Counter(_failure_kind(r) for r in failed)),
        "inputs_sha256": _digest(r["ini_sha256"] for r in jobs),
        "outputs_sha256": _digest(r["out_sha256"] for r in jobs),
        "setup_runs_s": setup,
        "wall_s.p50": statistics.median(r["wall_s"] for r in jobs),
        "wall_s.p90": _p90(r["wall_s"] for r in jobs),
    })
    if trace:
        metrics = stats.metrics()
        overhead = (statistics.median(r["seconds"] for r in traced_jobs)
                    - statistics.median(times))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record["layer_failures_by_type"] = dict(stats.failure_types)
        record["layer_sums"] = dict(stats.sums)
    else:
        values = {
            "setup_s": statistics.median(s for _, s in setup) if setup else 0.0,
            "job_s.p50": statistics.median(times),
            "job_s.p90": _p90(times),
            "jobs_per_s": len(ok) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": correct, "attempted": len(jobs), "failed": len(failed),
              "metrics": metrics}
    record["result"] = result
    record["check_failures"] = check_failures[:20]
    record["trace_mismatches"] = mismatched
    shutil.rmtree(work, ignore_errors=True)
    return record


def _write_record(record) -> str:
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{record['workload']}-seed{record['seed']}"
                                 f"-trace{int(record['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def _set(env: dict) -> dict:
    return {k: v for k, v in env.items() if v is not None} or "none set"


def _summary(record) -> list[str]:
    res = record["result"]
    jobs = record["jobs"]
    m = record["machine"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"{'traced' if record['trace'] else 'untraced'}  "
        f"{len(jobs)} jobs ({record['rounds']} rounds) in {record['elapsed_s']:.1f} s",
        f"machine: nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
        f"blas {(m['blas'] or {}).get('name')} {(m['blas'] or {}).get('version')}  "
        f"commit {m['git_commit']}",
        f"threads: found {_set(m['thread_env_found'])}  used {_set(m['thread_env_used'])}",
        f"failed_share {res['failed'] / max(res['attempted'], 1):.4f}  "
        f"({res['failed']}/{res['attempted']})  by type {record['failures_by_type']}",
        f"determinism: inputs {record['inputs_sha256'][:16]}  "
        f"outputs {record['outputs_sha256'][:16]}",
        f"raw wall time: p50 {record['wall_s.p50']:.4g} s  p90 {record['wall_s.p90']:.4g} s  "
        f"speed factor median {statistics.median(r['scale'] for r in jobs):.3f}",
    ]
    lines += [f"  {name:32s} {v['value']:.6g} {v['unit']}"
              for name, v in res["metrics"].items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bounce_dense", "revival_large", "powerlaw_family"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the benchmark, the jobs and the setup interpreters, so the
    # speed kernel times the CPU that the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = _write_record(record)
    for line in _summary(record):
        print(line)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
