"""Run drivers behind the CLI subcommands, plus the one CSV/JSON writer.

Each run_* function takes a parsed RunConfig and an output directory and
returns the list of files written.  It computes all it writes before it
makes the directory (_Output), so a refusal or a numerical failure leaves
none.  Output is deterministic: fixed column order, fixed float
formatting at the configured precision, and a header comment embedding
the config hash.
"""

from __future__ import annotations

import math
import os
from itertools import chain

import numpy as np

from . import correlation, observables, powerlaw, timescales
from .config import ConfigError, RunConfig
from .evolution import (MomentumGrid, SpatialGrid, momentum_wavefunction,
                        position_wavefunction, probability_density)
from .packet import (PacketSpec, build_gaussian_packet, level_ends, level_range,
                     level_window)
from .system import ScaleError, classical_speed, classical_trajectory
from .writer import Unrounded, json_chunks, table_text

__all__ = ["run_evolve", "run_observables", "run_correlate", "run_powerlaw",
           "run_scan_flatten", "run_timescales"]

SCHEMA_VERSION = "1"


class _Output:
    """One run's output directory, format and float template, and its writers."""

    def __init__(self, cfg: RunConfig, command: str, out_dir):
        self.cfg, self.command, self.dir = cfg, command, out_dir
        self.fmt, self.num = cfg.output.format, f"%.{cfg.output.precision}g"
        os.makedirs(out_dir, exist_ok=True)

    def write(self, name: str, chunks) -> str:
        """Write the byte chunks `chunks` to the file `name` and return its path."""
        path = os.path.join(self.dir, name)
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return path

    def json(self, name: str, fields: dict) -> str:
        """Write `fields`, schema version and config hash to the JSON file `name`."""
        payload = {"schema-version": SCHEMA_VERSION, **fields,
                   "config-sha256": self.cfg.config_hash}
        return self.write(name, chain(json_chunks(payload, self.num), [b"\n"]))

    def emit(self, stem: str, columns, blocks, fields: dict, data=None, meta=()) -> str:
        """Write one table to `stem`.csv or `stem`.json and return the path.

        `blocks` is the table's rows as blocks of columns (see writer).  CSV
        has '# ' header lines (command, config hash, `meta`), the column
        names, then one line per row: floats at the configured significant
        digits, strings as they are.  JSON holds `fields` and `data`, which
        defaults to the table as "columns" and "rows".
        """
        if self.fmt == "json":
            if data is None:
                data = {"columns": columns, "rows": iter(blocks)}
            return self.json(f"{stem}.json", {**fields, **data})
        head = "".join(f"# {line}\n" for line in (
            f"wellpacket {self.command}", f"config-sha256: {self.cfg.config_hash}", *meta))
        return self.write(f"{stem}.csv", chain(
            [(head + ",".join(columns) + "\n").encode()],
            table_text(blocks, self.num, False, b"", b",", b"\n")))


def _checked(compute, *args, packet: str = "[packet]"):
    """compute(*args), a scale past the doubles (system.ScaleError) refused as
    a config error of the section it derives from; ``packet`` locates the
    packet's own scales."""
    try:
        return compute(*args)
    except ScaleError as e:
        raise ConfigError(f"{packet if e.source == 'packet' else f'[{e.source}]'} {e}") from None


def _prepare(cfg: RunConfig, spec: PacketSpec, packet: str = "[packet]"):
    """The packet's expansion and time-scale report, the report checked first;
    ``packet`` locates the refusal of a packet scale (see _checked)."""
    report = _checked(timescales.compute_timescales, cfg.system, spec, packet=packet)
    return _checked(build_gaussian_packet, spec, cfg.system, packet=packet), report


def run_evolve(cfg: RunConfig, out_dir):
    """Densities at explicitly listed times, position and/or momentum."""
    exp, report = _prepare(cfg, cfg.packet)
    times = cfg.evolve.resolve(report.tau, report.T_rev, cfg.packet.n0)
    reps = {"position": ("position",), "momentum": ("momentum",),
            "both": ("position", "momentum")}[cfg.evolve.representation] if times else ()
    densities = []      # (representation, axis, points, time index, time, density)
    for rep in reps:
        if rep == "position":
            grid = _checked(SpatialGrid.default, cfg.system, cfg.grids.x_points)
        else:
            grid = _checked(MomentumGrid.default, cfg.system, cfg.packet.n0,
                            cfg.grids.p_span, cfg.grids.p_spacing)
        axis = "x" if rep == "position" else "p"
        wavefunction = position_wavefunction if rep == "position" else momentum_wavefunction
        # the times in groups of at most N, so that a group's fields hold no
        # more than one basis; each group builds the basis once
        group = len(exp.levels)
        for g in range(0, len(times), group):
            fields = wavefunction(exp, grid, times[g:g + group])
            for k in range(len(fields)):
                densities.append((rep, axis, grid.points, g + k, fields[k].time,
                                  probability_density(fields[k])))
                fields[k] = None        # each field dropped once its density is taken

    out = _Output(cfg, "evolve", out_dir)
    literals = [lit.strip() for lit in cfg.evolve.times]
    return [out.emit(f"density_{rep}_{i:02d}", [axis, "density"], [(points, dens)],
                     {"kind": "density", "representation": rep,
                      "time-literal": literals[i], "time": t},
                     data={axis: points, "density": dens},
                     meta=[f"time: {literals[i]} = {out.num % t}"])
            for rep, axis, points, i, t, dens in densities]


def run_observables(cfg: RunConfig, out_dir):
    """<x>, dx, <p>, dp over the configured schedule, with reference columns."""
    exp, report = _prepare(cfg, cfg.packet)
    schedule = cfg.schedule.resolve(report.tau, report.T_rev, cfg.packet.n0)
    series = _checked(observables.expectation_series, exp, ("x", "dx", "p", "dp"), schedule)
    times = np.asarray(schedule)

    sys = cfg.system
    v0 = classical_speed(cfg.packet.n0, sys)
    # the reference columns take v0 t and t / t0, which must be doubles; a
    # phase that overflows first is a numerical failure of the series
    t = float(np.abs(times).max(initial=0.0))
    if not math.isfinite(v0 * t) or not math.isfinite(t / report.t0):
        raise ConfigError(f"[schedule] the reference columns' v0 t or t / t0 at t = {t!r} "
                          "is past the doubles")
    dx0 = cfg.packet.dx0_value(sys)
    env = timescales.spreading_envelope(dx0, report.t0, times)
    classical = classical_trajectory(times, cfg.packet.x0, v0, sys)
    flat_dx = timescales.flat_reference(sys)[2]

    columns = ["t", "x_mean", "dx", "p_mean", "dp",
               "dx_envelope", "classical_x", "classical_v", "flat_dx"]
    block = (times, *series, env, classical.position, classical.velocity,
             np.broadcast_to(flat_dx, times.shape))
    out = _Output(cfg, "observables", out_dir)
    return [out.emit("observables", columns, [block], {"kind": "observables"})]


def run_correlate(cfg: RunConfig, out_dir):
    """|C| and |C-bar| series; optional collapse fit and revival scan."""
    exp, report = _prepare(cfg, cfg.packet)
    n0 = cfg.packet.n0
    times = cfg.schedule.resolve(report.tau, report.T_rev, n0)
    # the scan first, so that a grid it refuses is a config error before
    # any numerical failure of the series or the fit
    peaks = None
    if cfg.correlate.scan:
        start, stop, res, exact = cfg.correlate.scan_grid(report.tau, report.T_rev, n0)
        try:
            peaks = correlation.revival_scan(exp, (start, stop), res,
                                             min_height=cfg.correlate.min_height, theta=exact)
        except ValueError as e:
            raise ConfigError(f"[correlate] {e}") from None

    C = np.abs(correlation.autocorrelation_series(exp, times, mirror=True))
    fit = correlation.fit_collapse(exp, cfg.correlate.fit_period(report.tau, report.T_rev, n0),
                                   cfg.correlate.threshold) if cfg.correlate.fit else None

    out = _Output(cfg, "correlate", out_dir)
    files = [out.emit("correlation", ["t", "absC", "absCbar"], [(np.asarray(times), *C)],
                      {"kind": "correlation"})]
    if fit is not None:
        files.append(out.json("collapse_fit.json", {
            "kind": "collapse-fit",
            "T_C_estimate": fit.T_C_estimate,
            "points_used": fit.points_used,
            "residual": fit.residual,
            "threshold": fit.threshold,
            "T_C_closed_form": report.T_C,
        }))
    if peaks is not None:
        files.append(out.json("revival_scan.json", {
            "kind": "revival-scan",
            "window": [start, stop],
            "resolution": res,
            "peaks": [{"t": p.time, "height": p.height, "channel": p.channel,
                       "fraction": None if p.fraction is None
                       else [p.fraction[0], p.fraction[1]]} for p in peaks],
        }))
    return files


def run_powerlaw(cfg: RunConfig, out_dir):
    """Spectrum table (k, n, E, tau, T_rev) and optional per-k collapse fits."""
    pl, sys = cfg.powerlaw, cfg.system
    try:
        wells = [powerlaw.PowerLawWell(k=k, V0=pl.v0, a=pl.a, mass=sys.mass, hbar=sys.hbar,
                                       half=pl.half) for k in pl.k_values]
        # the finiteness rule, once per well and before any file, at the
        # lowest and the largest level the run uses: the spectrum's, and with
        # the fit its weights' window.  These two bound every level.  Where
        # only the window's top is past int64, the collapse times at fit_n0
        # come first (fit_dn = 1e200 reports one), and level_range refuses it
        lo, hi = (level_window(pl.fit_n0, pl.fit_dn, PacketSpec.window_sigmas, 0) if pl.fit
                  else (pl.n_min, pl.n_max))
        if hi < np.iinfo(np.int64).max or lo >= np.iinfo(np.int64).max:
            ends = level_ends(min(pl.n_min, lo), max(pl.n_max, hi), "powerlaw")
            for well in wells:
                powerlaw.wkb_spectrum(well, ends)
        levels = level_range(pl.n_min, pl.n_max, "powerlaw")
        # each well's closed form, T_rev / (2 pi fit_dn^2), and its fit
        fits = []
        for well in wells if pl.fit else ():
            k_label = "infinity" if math.isinf(well.k) else Unrounded(well.k)
            T_C = powerlaw.collapse_time_powerlaw(well, pl.fit_n0, pl.fit_dn)
            if T_C is None:
                fits.append({"k": k_label, "result": "periodic"})
                continue
            try:
                fit = powerlaw.fit_powerlaw_collapse(well, pl.fit_n0, pl.fit_dn)
            except correlation.CollapseFitError as e:
                fits.append({"k": k_label, "result": f"fit failed: {e}"})
                continue
            fits.append({"k": k_label, "T_C_estimate": fit.T_C_estimate,
                         "T_C_closed_form": T_C,
                         "points_used": fit.points_used,
                         "residual": fit.residual})
    except ValueError as e:
        raise ConfigError(f"[powerlaw] {e}") from None
    # text columns as bytes arrays, which the writer lays out whole: the
    # level index (never rounded), as wide as the largest, and constants
    # as broadcast views
    n_cells = levels.astype(f"S{len(str(pl.n_max))}")

    def constant(cell: str):
        return np.broadcast_to(np.array(cell.encode()), levels.shape)

    def spectrum_blocks(well):
        # k labels the well, unrounded: repr without a trailing ".0"
        k_cell = "infinity" if math.isinf(well.k) else repr(well.k).removesuffix(".0")
        E, tau, trev = powerlaw._spectrum(well, levels)     # its ends passed the rule
        block = [constant(k_cell), n_cells, E, tau,
                 constant("periodic") if trev is None else trev]
        if pl.n_min > 0:
            return [block]
        # no revival time below n = 1: the first row is a block of its own
        first = [col[:1] for col in block]
        first[4] = np.array([b""])
        return [first, [col[1:] for col in block]]

    # one well's rows at a time, computed as the writer reaches them
    blocks = chain.from_iterable(map(spectrum_blocks, wells))
    out = _Output(cfg, "powerlaw", out_dir)
    files = [out.emit("powerlaw", ["k", "n", "E", "tau", "T_rev"], blocks,
                      {"kind": "powerlaw-spectrum"})]
    if pl.fit:
        files.append(out.json("powerlaw_fits.json",
                              {"kind": "powerlaw-collapse-fits", "fits": fits}))
    return files


def run_scan_flatten(cfg: RunConfig, out_dir):
    """Delta-x series for several dx0 plus detected flattening times."""
    fl = cfg.flatten
    specs = [PacketSpec(n0=cfg.packet.n0, x0=cfg.packet.x0, dx0=dx0,
                        window_sigmas=cfg.packet.window_sigmas) for dx0 in fl.dx0_values]
    # each refused before any file, a packet scale under the width it derives from
    packets = [_prepare(cfg, spec, f"[flatten] dx0 = {spec.dx0:g}:") for spec in specs]
    series, detections = [], []
    for dx0, spec, (exp, report) in zip(fl.dx0_values, specs, packets):
        series.append(_checked(observables.sample_series, exp, "dx", fl.sample_times(
            report.tau, report.T_rev, spec.n0), packet=f"[flatten] dx0 = {dx0:g}:"))
        t_star = timescales.detect_flattening(series[-1], cfg.system,
                                              epsilon=fl.epsilon, hold=fl.hold)
        detections.append({"dx0": dx0, "t_star": t_star,
                           "t_flat_closed_form": report.t_flat})

    # a width flat from t = 0 (t_star = 0) has no place on the log-log fit
    detected = [(d["dx0"], d["t_star"]) for d in detections if d["t_star"]]
    exponent = None
    if len(detected) >= 2:
        lx = np.log([d[0] for d in detected])
        ly = np.log([d[1] for d in detected])
        exponent = float(np.polyfit(lx, ly, 1)[0])
    out = _Output(cfg, "scan-flatten", out_dir)
    files = [out.emit(f"flatten_dx0_{dx0:g}", ["t", "dx"], [(s.times, s.values)],
                      {"kind": "flatten-series", "dx0": dx0}, meta=[f"dx0: {dx0:g}"])
             for dx0, s in zip(fl.dx0_values, series)]
    files.append(out.json("flatten_summary.json",
                          {"kind": "flatten-summary", "detections": detections,
                           "scaling_exponent": exponent}))
    return files


def run_timescales(cfg: RunConfig, out_dir):
    """Closed-form time-scale report for the configured packet."""
    report = _checked(timescales.compute_timescales, cfg.system, cfg.packet)
    out = _Output(cfg, "timescales", out_dir)
    cols = ["tau", "T_rev", "t0", "T_C", "t_flat"]
    return [out.emit("timescales", cols, [[np.array([getattr(report, c)]) for c in cols]],
                     {"kind": "timescales"}, data=report.to_dict())]
