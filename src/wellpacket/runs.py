"""Run drivers behind the CLI subcommands, plus CSV/JSON writers.

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
from .config import ConfigError, RunConfig, parse_time
from .evolution import (MomentumGrid, SpatialGrid, momentum_wavefunction,
                        position_wavefunction, probability_density)
from .packet import PacketSpec, build_gaussian_packet
from .system import classical_trajectory

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


def _write_csv(path, header_lines, columns, rows, precision):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell, precision)
                              for cell in row) + "\n")


def _write_json(path, payload, precision):
    payload = {"schema-version": SCHEMA_VERSION, **payload}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_round(payload, precision), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _header(cfg: RunConfig, command: str, extra=()):
    return [f"wellpacket {command}", f"config-sha256: {cfg.config_hash}", *extra]


def _prepare(cfg: RunConfig):
    exp = build_gaussian_packet(cfg.packet, cfg.system)
    report = timescales.compute_timescales(cfg.system, cfg.packet)
    return exp, report


def run_evolve(cfg: RunConfig, out_dir, fmt=None, precision=None, threads=1):
    """Densities at explicitly listed times, position and/or momentum."""
    fmt = fmt or cfg.output.format
    precision = precision or cfg.output.precision
    os.makedirs(out_dir, exist_ok=True)
    exp, report = _prepare(cfg)
    literals = cfg.evolve.times
    if not literals:
        return []
    times = [parse_time(s, report.tau, report.T_rev) for s in literals]

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
        for i, (lit, t) in enumerate(zip(literals, times)):
            field = (position_wavefunction(exp, grid, t) if rep == "position"
                     else momentum_wavefunction(exp, grid, t))
            dens = probability_density(field)
            name = f"density_{rep}_{i:02d}.{fmt}"
            path = os.path.join(out_dir, name)
            meta = [f"time: {lit.strip()} = {_fmt(t, precision)}"]
            if fmt == "csv":
                _write_csv(path, _header(cfg, "evolve", meta), [axis, "density"],
                           zip(grid.points, dens), precision)
            else:
                _write_json(path, {"kind": "density", "representation": rep,
                                   "time-literal": lit.strip(), "time": t,
                                   axis: list(grid.points),
                                   "density": list(dens),
                                   "config-sha256": cfg.config_hash}, precision)
            files.append(path)
    return files


def run_observables(cfg: RunConfig, out_dir, fmt=None, precision=None, threads=1):
    """<x>, dx, <p>, dp over the configured schedule, with reference columns."""
    fmt = fmt or cfg.output.format
    precision = precision or cfg.output.precision
    os.makedirs(out_dir, exist_ok=True)
    exp, report = _prepare(cfg)
    table = observables.table_for(exp)
    times = cfg.schedule.resolve(report.tau, report.T_rev)
    if times.size == 0:
        return []

    x, dx, p, dp = observables.expectation_series(exp, table, ("x", "dx", "p", "dp"),
                                                  times, threads)

    sys = cfg.system
    dx0 = cfg.packet.dx0_value(sys)
    env = timescales.spreading_envelope(dx0, report.t0, times)
    v0 = cfg.packet.n0 * math.pi * sys.hbar / (sys.mass * sys.width_L)
    classical = [classical_trajectory(t, cfg.packet.x0, v0, sys) for t in times]
    flat_dx = sys.width_L / math.sqrt(12.0)

    path = os.path.join(out_dir, f"observables.{fmt}")
    header_cols = ["t", "x_mean", "dx", "p_mean", "dp",
                   "dx_envelope", "classical_x", "classical_v", "flat_dx"]
    rows = [(t, x[i], dx[i], p[i], dp[i],
             env[i], classical[i].position, classical[i].velocity, flat_dx)
            for i, t in enumerate(times)]
    if fmt == "csv":
        _write_csv(path, _header(cfg, "observables"), header_cols, rows, precision)
    else:
        _write_json(path, {"kind": "observables", "columns": header_cols,
                           "rows": [list(r) for r in rows],
                           "config-sha256": cfg.config_hash}, precision)
    return [path]


def run_correlate(cfg: RunConfig, out_dir, fmt=None, precision=None, threads=1):
    """|C| and |C-bar| series; optional collapse fit and revival scan."""
    fmt = fmt or cfg.output.format
    precision = precision or cfg.output.precision
    os.makedirs(out_dir, exist_ok=True)
    exp, report = _prepare(cfg)
    times = cfg.schedule.resolve(report.tau, report.T_rev)
    files = []

    absC = np.abs(correlation.autocorrelation_series(exp, times))
    absM = np.abs(correlation.mirror_correlation_series(exp, times))
    path = os.path.join(out_dir, f"correlation.{fmt}")
    rows = list(zip(times, absC, absM))
    if fmt == "csv":
        _write_csv(path, _header(cfg, "correlate"), ["t", "absC", "absCbar"],
                   rows, precision)
    else:
        _write_json(path, {"kind": "correlation", "columns": ["t", "absC", "absCbar"],
                           "rows": [list(r) for r in rows],
                           "config-sha256": cfg.config_hash}, precision)
    files.append(path)

    if cfg.correlate.fit:
        kwargs = {}
        if cfg.correlate.threshold is not None:
            kwargs["threshold"] = cfg.correlate.threshold
        fit = correlation.fit_collapse(exp, report.tau, **kwargs)
        fit_path = os.path.join(out_dir, "collapse_fit.json")
        _write_json(fit_path, {
            "kind": "collapse-fit",
            "T_C_estimate": fit.T_C_estimate,
            "points_used": fit.points_used,
            "residual": fit.residual,
            "threshold": fit.threshold,
            "T_C_closed_form": report.T_C,
            "config-sha256": cfg.config_hash,
        }, precision)
        files.append(fit_path)

    if cfg.correlate.scan:
        c = cfg.correlate
        window = (parse_time(c.scan_start, report.tau, report.T_rev),
                  parse_time(c.scan_stop, report.tau, report.T_rev))
        res = parse_time(c.scan_resolution, report.tau, report.T_rev)
        peaks = correlation.revival_scan(exp, window, res, min_height=c.min_height)
        scan_path = os.path.join(out_dir, "revival_scan.json")
        _write_json(scan_path, {
            "kind": "revival-scan",
            "window": list(window),
            "resolution": res,
            "peaks": [{"t": p.time, "height": p.height, "channel": p.channel,
                       "fraction": None if p.fraction is None
                       else [p.fraction[0], p.fraction[1]]} for p in peaks],
            "config-sha256": cfg.config_hash,
        }, precision)
        files.append(scan_path)
    return files


def run_powerlaw(cfg: RunConfig, out_dir, fmt=None, precision=None, threads=1):
    """Spectrum table (k, n, E, tau, T_rev) and optional per-k collapse fits."""
    fmt = fmt or cfg.output.format
    precision = precision or cfg.output.precision
    os.makedirs(out_dir, exist_ok=True)
    pl = cfg.powerlaw
    files = []
    rows = []
    for k in pl.k_values:
        well = powerlaw.PowerLawWell(k=k, V0=pl.v0, a=pl.a, mass=cfg.system.mass,
                                     hbar=cfg.system.hbar, half=pl.half)
        for n in range(pl.n_min, pl.n_max + 1):
            E = powerlaw.wkb_energy(well, n)
            tau_n = powerlaw.classical_period_powerlaw(well, n)
            if n >= 1:
                trev = powerlaw.revival_time_powerlaw(well, n)
                trev_cell = "periodic" if trev is None else trev
            else:
                trev_cell = ""
            k_cell = "infinity" if math.isinf(k) else _fmt(k, precision)
            rows.append((k_cell, _fmt(float(n), precision), E, tau_n, trev_cell))

    path = os.path.join(out_dir, f"powerlaw.{fmt}")
    if fmt == "csv":
        _write_csv(path, _header(cfg, "powerlaw"), ["k", "n", "E", "tau", "T_rev"],
                   rows, precision)
    else:
        _write_json(path, {"kind": "powerlaw-spectrum",
                           "columns": ["k", "n", "E", "tau", "T_rev"],
                           "rows": [list(r) for r in rows],
                           "config-sha256": cfg.config_hash}, precision)
    files.append(path)

    if pl.fit:
        fits = []
        for k in pl.k_values:
            well = powerlaw.PowerLawWell(k=k, V0=pl.v0, a=pl.a, mass=cfg.system.mass,
                                         hbar=cfg.system.hbar, half=pl.half)
            k_label = "infinity" if math.isinf(k) else k
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
        fit_path = os.path.join(out_dir, "powerlaw_fits.json")
        _write_json(fit_path, {"kind": "powerlaw-collapse-fits", "fits": fits,
                               "config-sha256": cfg.config_hash}, precision)
        files.append(fit_path)
    return files


def run_scan_flatten(cfg: RunConfig, out_dir, fmt=None, precision=None, threads=1):
    """Delta-x series for several dx0 plus detected flattening times."""
    fmt = fmt or cfg.output.format
    precision = precision or cfg.output.precision
    os.makedirs(out_dir, exist_ok=True)
    fl = cfg.flatten
    files = []
    detections = []
    for dx0 in fl.dx0_values:
        spec = PacketSpec(n0=cfg.packet.n0, x0=cfg.packet.x0, dx0=dx0,
                          window_sigmas=cfg.packet.window_sigmas)
        exp = build_gaussian_packet(spec, cfg.system)
        report = timescales.compute_timescales(cfg.system, spec)
        t_stop = parse_time(fl.t_stop, report.tau, report.T_rev)
        step = parse_time(fl.sample_step, report.tau, report.T_rev)
        times = np.arange(0.0, t_stop, step)
        table = observables.table_for(exp)
        series = observables.sample_series(exp, table, "dx", times, threads)
        t_star = timescales.detect_flattening(series, cfg.system,
                                              epsilon=fl.epsilon, hold=fl.hold)
        detections.append({"dx0": dx0, "t_star": t_star,
                           "t_flat_closed_form": report.t_flat})

        path = os.path.join(out_dir, f"flatten_dx0_{dx0:g}.{fmt}")
        rows = list(zip(series.times, series.values))
        if fmt == "csv":
            _write_csv(path, _header(cfg, "scan-flatten", [f"dx0: {dx0:g}"]),
                       ["t", "dx"], rows, precision)
        else:
            _write_json(path, {"kind": "flatten-series", "dx0": dx0,
                               "columns": ["t", "dx"],
                               "rows": [list(r) for r in rows],
                               "config-sha256": cfg.config_hash}, precision)
        files.append(path)

    detected = [(d["dx0"], d["t_star"]) for d in detections if d["t_star"] is not None]
    exponent = None
    if len(detected) >= 2:
        lx = np.log([d[0] for d in detected])
        ly = np.log([d[1] for d in detected])
        exponent = float(np.polyfit(lx, ly, 1)[0])
    summary_path = os.path.join(out_dir, "flatten_summary.json")
    _write_json(summary_path, {"kind": "flatten-summary", "detections": detections,
                               "scaling_exponent": exponent,
                               "config-sha256": cfg.config_hash}, precision)
    files.append(summary_path)
    return files


def run_timescales(cfg: RunConfig, out_dir, fmt=None, precision=None, threads=1):
    """Closed-form time-scale report for the configured packet."""
    fmt = fmt or cfg.output.format
    precision = precision or cfg.output.precision
    os.makedirs(out_dir, exist_ok=True)
    report = timescales.compute_timescales(cfg.system, cfg.packet)
    path = os.path.join(out_dir, f"timescales.{fmt}")
    if fmt == "csv":
        cols = ["tau", "T_rev", "t0", "T_C", "t_flat"]
        _write_csv(path, _header(cfg, "timescales"), cols,
                   [tuple(getattr(report, c) for c in cols)], precision)
    else:
        _write_json(path, {"kind": "timescales", **report.to_dict(),
                           "config-sha256": cfg.config_hash}, precision)
    return [path]
