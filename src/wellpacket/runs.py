"""Run drivers behind the CLI subcommands, plus the one CSV/JSON writer.

Each run_* function takes a parsed RunConfig and an output directory and
returns the list of files written.  Output is deterministic: fixed column
order, fixed float formatting at the configured precision, and a header
comment embedding the config hash.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import correlation, observables, powerlaw, timescales
from .config import RunConfig, parse_theta
from .evolution import (MomentumGrid, SpatialGrid, momentum_wavefunction,
                        position_wavefunction, probability_density)
from .packet import PacketSpec, build_gaussian_packet
from .system import classical_speed, classical_trajectory

__all__ = ["run_evolve", "run_observables", "run_correlate", "run_powerlaw",
           "run_scan_flatten", "run_timescales"]

SCHEMA_VERSION = "1"


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _json_round(obj, precision: int):
    if isinstance(obj, float):
        return float(_fmt(obj, precision))
    if isinstance(obj, dict):
        return {k: _json_round(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_round(v, precision) for v in obj]
    return obj


class _Output:
    """One run's output directory, format and precision, and its writers."""

    def __init__(self, cfg: RunConfig, command: str, out_dir):
        self.cfg, self.command, self.dir = cfg, command, out_dir
        self.fmt, self.precision = cfg.output.format, cfg.output.precision
        os.makedirs(out_dir, exist_ok=True)

    def json(self, name: str, fields: dict) -> str:
        """Write `fields`, schema version and config hash to the JSON file `name`."""
        path = os.path.join(self.dir, name)
        payload = {"schema-version": SCHEMA_VERSION, **fields,
                   "config-sha256": self.cfg.config_hash}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_json_round(payload, self.precision), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def emit(self, stem: str, columns, rows, fields: dict, data=None, meta=()) -> str:
        """Write one table to `stem`.csv or `stem`.json and return the path.

        CSV has '# ' header lines (command, config hash, `meta`), the column
        names, then one line per row tuple: floats at the configured
        significant digits, strings as they are.  JSON holds `fields` and
        `data`, which defaults to the table as "columns" and "rows".
        """
        if self.fmt == "json":
            if data is None:
                data = {"columns": columns, "rows": [list(r) for r in rows]}
            return self.json(f"{stem}.json", {**fields, **data})
        path = os.path.join(self.dir, f"{stem}.csv")
        num = f"%.{self.precision}g"
        templates = {}     # cell types of a row -> its '%'-template
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in (f"wellpacket {self.command}",
                         f"config-sha256: {self.cfg.config_hash}", *meta):
                fh.write(f"# {line}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                kinds = tuple(map(type, row))
                template = templates.get(kinds)
                if template is None:
                    template = templates[kinds] = ",".join(
                        "%s" if issubclass(k, str) else num for k in kinds) + "\n"
                fh.write(template % row)
        return path


def _prepare(cfg: RunConfig):
    exp = build_gaussian_packet(cfg.packet, cfg.system)
    report = timescales.compute_timescales(cfg.system, cfg.packet)
    return exp, report


def run_evolve(cfg: RunConfig, out_dir, threads=1):
    """Densities at explicitly listed times, position and/or momentum."""
    out = _Output(cfg, "evolve", out_dir)
    exp, report = _prepare(cfg)
    times = cfg.evolve.resolve(report.tau, report.T_rev, cfg.packet.n0)
    if not times:
        return []

    reps = {"position": ("position",), "momentum": ("momentum",),
            "both": ("position", "momentum")}[cfg.evolve.representation]
    files = []
    for rep in reps:
        if rep == "position":
            grid = SpatialGrid.default(cfg.system, cfg.grids.x_points)
        else:
            grid = MomentumGrid.default(cfg.system, cfg.packet.n0,
                                        cfg.grids.p_span, cfg.grids.p_spacing)
        axis = "x" if rep == "position" else "p"
        points = grid.points.tolist()
        for i, (lit, (t, theta)) in enumerate(zip(cfg.evolve.times, times)):
            field = (position_wavefunction(exp, grid, t, theta) if rep == "position"
                     else momentum_wavefunction(exp, grid, t, theta))
            dens = probability_density(field).tolist()
            files.append(out.emit(
                f"density_{rep}_{i:02d}", [axis, "density"], zip(points, dens),
                {"kind": "density", "representation": rep,
                 "time-literal": lit.strip(), "time": t},
                data={axis: points, "density": dens},
                meta=[f"time: {lit.strip()} = {_fmt(t, out.precision)}"]))
    return files


def run_observables(cfg: RunConfig, out_dir, threads=1):
    """<x>, dx, <p>, dp over the configured schedule, with reference columns."""
    out = _Output(cfg, "observables", out_dir)
    exp, report = _prepare(cfg)
    table = observables.table_for(exp)
    times, theta = cfg.schedule.resolve(report.tau, report.T_rev, cfg.packet.n0)
    series = observables.expectation_series(exp, table, ("x", "dx", "p", "dp"),
                                            times, threads, theta)

    sys = cfg.system
    dx0 = cfg.packet.dx0_value(sys)
    env = timescales.spreading_envelope(dx0, report.t0, times)
    v0 = classical_speed(cfg.packet.n0, sys)
    classical = classical_trajectory(times, cfg.packet.x0, v0, sys)
    flat_dx = timescales.flat_reference(sys)[2]

    columns = ["t", "x_mean", "dx", "p_mean", "dp",
               "dx_envelope", "classical_x", "classical_v", "flat_dx"]
    rows = zip(times.tolist(), *(v.tolist() for v in series), env.tolist(),
               classical.position.tolist(), classical.velocity.tolist(),
               [flat_dx] * times.size)
    return [out.emit("observables", columns, rows, {"kind": "observables"})]


def run_correlate(cfg: RunConfig, out_dir, threads=1):
    """|C| and |C-bar| series; optional collapse fit and revival scan."""
    out = _Output(cfg, "correlate", out_dir)
    exp, report = _prepare(cfg)
    n0 = cfg.packet.n0
    times, theta = cfg.schedule.resolve(report.tau, report.T_rev, n0)
    scan = cfg.correlate.scan_grid(report.tau, report.T_rev, n0) if cfg.correlate.scan else None

    absC = np.abs(correlation.autocorrelation_series(exp, times, theta))
    absM = np.abs(correlation.mirror_correlation_series(exp, times, theta))
    files = [out.emit("correlation", ["t", "absC", "absCbar"],
                      zip(times.tolist(), absC.tolist(), absM.tolist()),
                      {"kind": "correlation"})]

    if cfg.correlate.fit:
        fit = correlation.fit_collapse(exp, report.tau, cfg.correlate.threshold,
                                       theta=parse_theta("1tau", n0))
        files.append(out.json("collapse_fit.json", {
            "kind": "collapse-fit",
            "T_C_estimate": fit.T_C_estimate,
            "points_used": fit.points_used,
            "residual": fit.residual,
            "threshold": fit.threshold,
            "T_C_closed_form": report.T_C,
        }))

    if scan is not None:
        start, stop, res, exact = scan
        peaks = correlation.revival_scan(exp, (start, stop), res,
                                         min_height=cfg.correlate.min_height, theta=exact)
        files.append(out.json("revival_scan.json", {
            "kind": "revival-scan",
            "window": [start, stop],
            "resolution": res,
            "peaks": [{"t": p.time, "height": p.height, "channel": p.channel,
                       "fraction": None if p.fraction is None
                       else [p.fraction[0], p.fraction[1]]} for p in peaks],
        }))
    return files


def run_powerlaw(cfg: RunConfig, out_dir, threads=1):
    """Spectrum table (k, n, E, tau, T_rev) and optional per-k collapse fits."""
    out = _Output(cfg, "powerlaw", out_dir)
    pl = cfg.powerlaw
    wells = [powerlaw.PowerLawWell(k=k, V0=pl.v0, a=pl.a, mass=cfg.system.mass,
                                   hbar=cfg.system.hbar, half=pl.half)
             for k in pl.k_values]
    rows = []
    for well in wells:
        k_cell = "infinity" if math.isinf(well.k) else _fmt(well.k, out.precision)
        for n in range(pl.n_min, pl.n_max + 1):
            E = powerlaw.wkb_energy(well, n)
            tau_n = powerlaw.classical_period_powerlaw(well, n)
            if n >= 1:
                trev = powerlaw.revival_time_powerlaw(well, n)
                trev_cell = "periodic" if trev is None else trev
            else:
                trev_cell = ""
            rows.append((k_cell, _fmt(float(n), out.precision), E, tau_n, trev_cell))
    files = [out.emit("powerlaw", ["k", "n", "E", "tau", "T_rev"], rows,
                      {"kind": "powerlaw-spectrum"})]

    if pl.fit:
        fits = []
        for well in wells:
            k_label = "infinity" if math.isinf(well.k) else well.k
            closed = powerlaw.collapse_time_powerlaw(well, pl.fit_n0, pl.fit_dn)
            if closed is None:
                fits.append({"k": k_label, "result": "periodic"})
                continue
            try:
                fit = powerlaw.fit_powerlaw_collapse(well, pl.fit_n0, pl.fit_dn)
            except correlation.CollapseFitError as e:
                fits.append({"k": k_label, "result": f"fit failed: {e}"})
                continue
            fits.append({"k": k_label, "T_C_estimate": fit.T_C_estimate,
                         "T_C_closed_form": closed,
                         "points_used": fit.points_used,
                         "residual": fit.residual})
        files.append(out.json("powerlaw_fits.json",
                              {"kind": "powerlaw-collapse-fits", "fits": fits}))
    return files


def run_scan_flatten(cfg: RunConfig, out_dir, threads=1):
    """Delta-x series for several dx0 plus detected flattening times."""
    out = _Output(cfg, "scan-flatten", out_dir)
    fl = cfg.flatten
    files = []
    detections = []
    for dx0 in fl.dx0_values:
        spec = PacketSpec(n0=cfg.packet.n0, x0=cfg.packet.x0, dx0=dx0,
                          window_sigmas=cfg.packet.window_sigmas)
        exp = build_gaussian_packet(spec, cfg.system)
        report = timescales.compute_timescales(cfg.system, spec)
        times, theta = fl.sample_times(report.tau, report.T_rev, spec.n0)
        table = observables.table_for(exp)
        series = observables.sample_series(exp, table, "dx", times, threads, theta)
        t_star = timescales.detect_flattening(series, cfg.system,
                                              epsilon=fl.epsilon, hold=fl.hold)
        detections.append({"dx0": dx0, "t_star": t_star,
                           "t_flat_closed_form": report.t_flat})
        files.append(out.emit(
            f"flatten_dx0_{dx0:g}", ["t", "dx"],
            zip(series.times.tolist(), series.values.tolist()),
            {"kind": "flatten-series", "dx0": dx0}, meta=[f"dx0: {dx0:g}"]))

    detected = [(d["dx0"], d["t_star"]) for d in detections if d["t_star"] is not None]
    exponent = None
    if len(detected) >= 2:
        lx = np.log([d[0] for d in detected])
        ly = np.log([d[1] for d in detected])
        exponent = float(np.polyfit(lx, ly, 1)[0])
    files.append(out.json("flatten_summary.json",
                          {"kind": "flatten-summary", "detections": detections,
                           "scaling_exponent": exponent}))
    return files


def run_timescales(cfg: RunConfig, out_dir, threads=1):
    """Closed-form time-scale report for the configured packet."""
    out = _Output(cfg, "timescales", out_dir)
    report = timescales.compute_timescales(cfg.system, cfg.packet)
    cols = ["tau", "T_rev", "t0", "T_C", "t_flat"]
    return [out.emit("timescales", cols, [tuple(getattr(report, c) for c in cols)],
                     {"kind": "timescales"}, data=report.to_dict())]
