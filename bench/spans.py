"""Per-layer tracing of the wellpacket package, applied from outside it.

The traced run wraps chosen public functions of each package module (the
layers) in span recorders.  A wrapper is installed at every place that
holds the function: the defining module, every module that imported it
by name (``runs.build_gaussian_packet``, ``packet.eigenenergy``,
``powerlaw.fit_stroboscopic`` ...) and the CLI's command table.  All of
them are restored afterwards.  Spans stay in memory for the length of a
job and are then folded into per-layer sums; the folded sums are written
out when the benchmark ends.

Byte counts are computed from array shapes (complex128 is 16 B per
element), not measured.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Functions wrapped per layer; the layers are the package's modules.  Scalar helpers called once per
# element (ln_gamma, parse_time, ...) are left out to keep overhead low.
TRACED = {
    "cli": ("main",),
    "config": ("load_config", "parse_config"),
    "runs": ("run_evolve", "run_observables", "run_correlate", "run_powerlaw",
             "run_scan_flatten", "run_timescales"),
    "packet": ("build_gaussian_packet",),
    "system": ("eigenenergy", "classical_trajectory"),
    "evolution": ("position_wavefunction", "momentum_wavefunction",
                  "probability_density"),
    "observables": ("table_for", "expectation_series", "uncertainty_series",
                    "sample_series"),
    "correlation": ("autocorrelation", "autocorrelation_series",
                    "mirror_correlation_series", "fit_collapse", "fit_stroboscopic",
                    "revival_scan"),
    "timescales": ("compute_timescales", "detect_flattening", "spreading_envelope"),
    "powerlaw": ("wkb_energy", "classical_period_powerlaw", "revival_time_powerlaw",
                 "collapse_time_powerlaw", "fit_powerlaw_collapse"),
}

COMPLEX_BYTES = 16
TABLE_BYTES_PER_ELEMENT = 40      # x, x2, p2 float64 plus p complex128

# (name, unit, how it folds over jobs): "job" sums and divides by the job
# count, "max" keeps the largest value, "ratio" divides two sums.
METRICS = [
    ("observables.series_s", "s/job", "job"),
    ("observables.series_calls", "calls/job", "job"),
    ("observables.phase_terms", "terms/job", "job"),
    ("observables.phase_bytes_max", "B", "max"),
    ("observables.table_s", "s/job", "job"),
    ("observables.table_bytes", "B/job", "job"),
    ("observables.failures", "failures/job", "job"),
    ("correlation.phase_s", "s/job", "job"),
    ("correlation.phase_terms", "terms/job", "job"),
    ("correlation.phase_bytes_max", "B", "max"),
    ("correlation.scan_self_s", "s/job", "job"),
    ("correlation.scan_samples", "samples/job", "job"),
    ("correlation.fit_s", "s/job", "job"),
    ("correlation.fit_evals", "evals/job", "job"),
    ("correlation.fit_useful_ratio", "ratio", "ratio"),
    ("correlation.failures", "failures/job", "job"),
    ("runs.self_s", "s/job", "job"),
    ("runs.bytes_written", "B/job", "job"),
    ("runs.files_written", "files/job", "job"),
    ("powerlaw.wkb_calls", "calls/job", "job"),
    ("powerlaw.wkb_s", "s/job", "job"),
    ("powerlaw.fit_s", "s/job", "job"),
    ("powerlaw.fit_evals", "evals/job", "job"),
    ("powerlaw.fit_useful_ratio", "ratio", "ratio"),
    ("powerlaw.self_s", "s/job", "job"),
    ("evolution.field_s", "s/job", "job"),
    ("evolution.field_terms", "terms/job", "job"),
    ("system.trajectory_calls", "calls/job", "job"),
    ("system.trajectory_s", "s/job", "job"),
    ("system.eigenenergy_calls", "calls/job", "job"),
    ("packet.build_s", "s/job", "job"),
    ("packet.levels", "levels/job", "job"),
    ("timescales.self_s", "s/job", "job"),
    ("timescales.detect_calls", "calls/job", "job"),
    ("cli.self_s", "s/job", "job"),
    ("config.parse_s", "s/job", "job"),
]

# Ratios: metric -> (numerator sum, denominator sum)
RATIOS = {
    "correlation.fit_useful_ratio": ("correlation.fit_points", "correlation.fit_evals"),
    "powerlaw.fit_useful_ratio": ("powerlaw.fit_points", "powerlaw.fit_evals"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in the same job, -1 at top


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        parts = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                       for c in children.get(i, ()))
        for a, b in parts:
            if b > cursor:
                covered += b - max(a, cursor)
                cursor = b
        out.append(s.end - s.start - covered)
    return out


def _n_levels(exp) -> int:
    return len(exp.coefficients)


def _terms(exp, times, factor: int = 1) -> tuple[int, int]:
    t = int(np.size(times))
    return factor * t * _n_levels(exp), COMPLEX_BYTES * t * _n_levels(exp)


class Tracer:
    """Records spans and counters for the current job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxes: dict[str, float] = {}
        self.failure_types: Counter = Counter()
        self._failed: list[BaseException] = []

    def reset(self):
        self.__init__()

    def peak(self, key: str, value: float):
        if value > self.maxes.get(key, 0):
            self.maxes[key] = value

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self.stack)

    def wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        before, after = _BEFORE.get(name), _AFTER.get(name)
        signature = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if before is not None:
                    before(tracer, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            span = Span(name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.end = time.perf_counter()
                tracer.stack.pop()
                tracer._note_failure(layer, e)
                raise
            span.end = time.perf_counter()
            tracer.stack.pop()
            if after is not None:
                after(tracer, bound.arguments, result)
            return result

        return traced

    def _note_failure(self, layer: str, exc: BaseException):
        # an exception is charged once, to the innermost layer it left
        if any(e is exc for e in self._failed):
            return
        self._failed.append(exc)
        self.counts[f"{layer}.failures"] += 1
        self.failure_types[f"{layer}:{type(exc).__name__}"] += 1

    def fold(self) -> Counter:
        """Per-job sums from the recorded spans and counters."""
        spans = self.spans
        own = self_times(spans)
        sums = Counter(self.counts)
        names = [s.name for s in spans]
        dur = [s.end - s.start for s in spans]

        def outer(group: tuple[str, ...]) -> tuple[float, int]:
            """Time and count of the spans in ``group`` not nested in another."""
            total, calls = 0.0, 0
            for i, n in enumerate(names):
                if n not in group:
                    continue
                p = spans[i].parent
                while p >= 0 and names[p] not in group:
                    p = spans[p].parent
                if p < 0:
                    total += dur[i]
                    calls += 1
            return total, calls

        series = ("observables.expectation_series", "observables.uncertainty_series",
                  "observables.sample_series")
        sums["observables.series_s"], sums["observables.series_calls"] = outer(series)
        sums["correlation.phase_s"] = outer(("correlation.autocorrelation",
                                             "correlation.autocorrelation_series",
                                             "correlation.mirror_correlation_series"))[0]
        sums["config.parse_s"] = outer(("config.load_config", "config.parse_config"))[0]
        for i, n in enumerate(names):
            layer = n.split(".", 1)[0]
            sums[f"{layer}.self_s"] += own[i]
            if n == "observables.table_for":
                sums["observables.table_s"] += dur[i]
            elif n == "correlation.revival_scan":
                sums["correlation.scan_self_s"] += own[i]
            elif n == "correlation.fit_collapse":
                sums["correlation.fit_s"] += dur[i]
            elif n == "powerlaw.wkb_energy":
                sums["powerlaw.wkb_calls"] += 1
                sums["powerlaw.wkb_s"] += dur[i]
            elif n == "powerlaw.fit_powerlaw_collapse":
                sums["powerlaw.fit_s"] += dur[i]
            elif n in ("evolution.position_wavefunction", "evolution.momentum_wavefunction"):
                sums["evolution.field_s"] += dur[i]
            elif n == "system.classical_trajectory":
                sums["system.trajectory_calls"] += 1
                sums["system.trajectory_s"] += dur[i]
            elif n == "system.eigenenergy":
                sums["system.eigenenergy_calls"] += 1
            elif n == "packet.build_gaussian_packet":
                sums["packet.build_s"] += dur[i]
            elif n == "timescales.detect_flattening":
                sums["timescales.detect_calls"] += 1
        return sums


# --- counters taken at the call boundary ---------------------------------

def _fit_layer(tracer: Tracer) -> str:
    # fit_stroboscopic serves both the box and the power-law fits
    return "powerlaw" if tracer.inside("powerlaw.fit_powerlaw_collapse") else "correlation"


def _count_fit_evals(tracer: Tracer, a):
    layer = _fit_layer(tracer)
    magnitude = a["magnitude"]

    def counted(t):
        tracer.counts[f"{layer}.fit_evals"] += 1
        return magnitude(t)

    a["magnitude"] = counted


def _after_fit(tracer: Tracer, a, result):
    tracer.counts[f"{_fit_layer(tracer)}.fit_points"] += result.points_used


def _after_series(factor: int):
    def after(tracer: Tracer, a, result):
        terms, nbytes = _terms(a["exp"], a["times"], factor)
        tracer.counts["observables.phase_terms"] += terms
        tracer.peak("observables.phase_bytes_max", nbytes)
    return after


def _after_phase_sum(tracer: Tracer, a, result):
    terms, nbytes = _terms(a["exp"], a.get("times", a.get("t")))
    tracer.counts["correlation.phase_terms"] += terms
    tracer.peak("correlation.phase_bytes_max", nbytes)


def _after_scan(tracer: Tracer, a, result):
    (t0, t1), res = a["t_window"], a["resolution"]
    tracer.counts["correlation.scan_samples"] += len(np.arange(t0, t1 + res / 2, res))


def _after_table(tracer: Tracer, a, result):
    tracer.counts["observables.table_bytes"] += TABLE_BYTES_PER_ELEMENT * _n_levels(a["exp"]) ** 2


def _after_field(tracer: Tracer, a, result):
    tracer.counts["evolution.field_terms"] += len(a["grid"].points) * _n_levels(a["exp"])


def _after_build(tracer: Tracer, a, result):
    tracer.counts["packet.levels"] += _n_levels(result)


def _after_run(tracer: Tracer, a, result):
    tracer.counts["runs.files_written"] += len(result)
    tracer.counts["runs.bytes_written"] += sum(os.path.getsize(p) for p in result)


_BEFORE = {"correlation.fit_stroboscopic": _count_fit_evals}
_AFTER = {
    "correlation.fit_stroboscopic": _after_fit,
    "observables.expectation_series": _after_series(1),
    "observables.uncertainty_series": _after_series(2),   # mean and second moment
    "correlation.autocorrelation": _after_phase_sum,
    "correlation.autocorrelation_series": _after_phase_sum,
    "correlation.mirror_correlation_series": _after_phase_sum,
    "correlation.revival_scan": _after_scan,
    "observables.table_for": _after_table,
    "evolution.position_wavefunction": _after_field,
    "evolution.momentum_wavefunction": _after_field,
    "packet.build_gaussian_packet": _after_build,
    **{f"runs.{name}": _after_run for name in TRACED["runs"]},
}


# --- installing and removing the wrappers --------------------------------

def package_bindings(package: str = "wellpacket") -> dict:
    """Every (module, name) -> object binding in the loaded package, plus
    the CLI command table; used to prove the package is left unpatched."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == package or modname.startswith(package + ".")):
            out.update({(modname, k): v for k, v in vars(mod).items()})
    cli = sys.modules.get(f"{package}.cli")
    if cli is not None:
        out.update({("cli._COMMANDS", k): v for k, v in cli._COMMANDS.items()})
    return out


class Patches:
    """The wrapper for each traced function at every binding that holds it."""

    def __init__(self, tracer: Tracer, package: str = "wellpacket"):
        originals = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"{package}.{layer}"]
            for name in names:
                originals[id(getattr(mod, name))] = f"{layer}.{name}"
        self.sites = []          # (namespace dict, key, original, wrapper)
        wrappers = {}
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if m is not None and (n == package or n.startswith(package + "."))]
        namespaces.append(sys.modules[f"{package}.cli"]._COMMANDS)
        for ns in namespaces:
            for key, value in list(ns.items()):
                span_name = originals.get(id(value))
                if span_name is None:
                    continue
                if span_name not in wrappers:
                    wrappers[span_name] = tracer.wrap(span_name, value)
                self.sites.append((ns, key, value, wrappers[span_name]))
        missing = set(originals.values()) - set(wrappers)
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")

    def __enter__(self):
        for ns, key, _, wrapper in self.sites:
            ns[key] = wrapper
        return self

    def __exit__(self, *exc):
        for ns, key, original, _ in self.sites:
            ns[key] = original
        return False


class LayerStats:
    """Per-layer sums over a traced run, folded job by job."""

    def __init__(self):
        self.jobs = 0
        self.sums: Counter = Counter()
        self.maxes: dict[str, float] = {}
        self.failure_types: Counter = Counter()

    def add_job(self, tracer: Tracer, scale: float = 1.0):
        """Fold one job; times (keys ending in _s) are multiplied by
        ``scale``, the job's machine-speed factor."""
        self.jobs += 1
        self.sums.update({k: v * scale if k.endswith("_s") else v
                          for k, v in tracer.fold().items()})
        for k, v in tracer.maxes.items():
            self.maxes[k] = max(self.maxes.get(k, 0), v)
        self.failure_types.update(tracer.failure_types)

    def metrics(self) -> dict:
        out = {}
        for name, unit, fold in METRICS:
            if fold == "max":
                value = float(self.maxes.get(name, 0))
            elif fold == "ratio":
                num, den = RATIOS[name]
                value = self.sums[num] / self.sums[den] if self.sums[den] else 0.0
            else:
                value = self.sums[name] / self.jobs if self.jobs else 0.0
            out[name] = {"value": float(value), "unit": unit}
        return out
