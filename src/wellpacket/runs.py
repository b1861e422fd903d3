"""Run drivers behind the CLI subcommands, plus the one CSV/JSON writer.

Each run_* function takes a parsed RunConfig and an output directory and
returns the list of files written.  Output is deterministic: fixed column
order, fixed float formatting at the configured precision, and a header
comment embedding the config hash.
"""

from __future__ import annotations

import math
import os
import re
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

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


# json.dump's spellings of the float values that have no JSON number
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_scalar(value, num: str) -> str:
    """One JSON scalar as json.dump writes it, a float first rounded by the
    `num` template (a float subclass such as np.float64 included)."""
    if isinstance(value, float):
        text = float.__repr__(float(num % value))
        return _NONFINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} to JSON")


# Rows of a streamed JSON table, or items of a flat list, formatted at once.
JSON_BLOCK = 256

# For p <= 15, float.__repr__ of float("%.{p}g" % v) is the %g text itself
# but for these texts: integral ones (repr appends ".0"), exponent form where
# repr writes fixed notation (exponents p to 15), DBL_MAX rounded up to
# infinity, subnormals (fewer than p digits survive), and inf and nan.
_SHORT_FLOATS = frozenset(f"%.{p}g" for p in range(1, 16))
_NEEDS_REPR = re.compile(
    r"^(?:-?\d+|-?[\d.]+e(?:\+(?:0\d|1[0-5]|308)|-3(?:0[89]|[12]\d))|-?inf|nan)$", re.M)


def _repr_of(match) -> str:
    text = float.__repr__(float(match.group()))
    return _NONFINITE.get(text, text)


def _json_column(col, num: str) -> list:
    """_json_scalar(v, num) for every v in the non-empty sequence `col`, a
    column of floats or of strings in one pass and any other column by cell."""
    kinds = set(map(type, col))
    if all(issubclass(k, str) for k in kinds):
        return list(map(encode_basestring_ascii, col))
    if num in _SHORT_FLOATS and all(issubclass(k, float) for k in kinds):
        text = "\n".join(map(num.__mod__, col))
        # every text the pattern matches lacks a point or has "e+" or "e-3"
        if text.count(".") < len(col) or "e+" in text or "e-3" in text:
            text = _NEEDS_REPR.sub(_repr_of, text)
        return text.split("\n")
    return [_json_scalar(v, num) for v in col]


def _json_rows(rows, num: str, depth: int):
    """Yield the iterator `rows` of equal-length scalar rows as a JSON array
    of arrays, JSON_BLOCK rows at a time: each block is transposed, each of
    its columns formatted in one pass, and its rows joined by one template."""
    inner = "\n" + "  " * (depth + 1)
    cell = inner + "  "
    templates = {}      # rows in a block -> the block's '%'-template
    sep, width = "[", None
    while block := list(islice(rows, JSON_BLOCK)):
        if width is None:
            width = len(block[0])
            row = ("[" + cell + ("," + cell).join(["%s"] * width) + inner + "]"
                   if width else "[]")
        if set(map(len, block)) != {width}:
            raise ValueError("rows of a JSON table must have equal length")
        template = templates.get(len(block))
        if template is None:
            template = templates[len(block)] = ("," + inner).join([row] * len(block))
        columns = [_json_column(col, num) for col in zip(*block)]
        yield sep + inner + template % tuple(chain.from_iterable(zip(*columns)))
        sep = ","
    yield "[]" if width is None else "\n" + "  " * depth + "]"


def _json_chunks(obj, num: str, depth: int = 0):
    """Yield the text json.dump(obj, indent=2, sort_keys=True) writes, with
    every float rounded by the `num` template.  Dict keys must be strings.
    An iterator is a table: its rows are written as a list of lists, block
    by block, without holding the table (see _json_rows)."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{"
        for key in sorted(obj):
            yield f"{sep}{inner}{encode_basestring_ascii(key)}: "
            yield from _json_chunks(obj[key], num, depth + 1)
            sep = ","
        yield "\n" + "  " * depth + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
        elif any(isinstance(v, (dict, list, tuple)) for v in obj):
            sep = "["
            for v in obj:
                yield sep + inner
                yield from _json_chunks(v, num, depth + 1)
                sep = ","
            yield "\n" + "  " * depth + "]"
        else:
            for i in range(0, len(obj), JSON_BLOCK):
                yield ("[" if i == 0 else ",") + inner + ("," + inner).join(
                    _json_column(obj[i:i + JSON_BLOCK], num))
            yield "\n" + "  " * depth + "]"
    elif hasattr(obj, "__next__"):
        # a table; isinstance(obj, Iterator) would add each type it meets to
        # the ABC's cache, long-lived objects made in the middle of a write
        yield from _json_rows(obj, num, depth)
    else:
        yield _json_scalar(obj, num)


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
            fh.writelines(_json_chunks(payload, f"%.{self.precision}g"))
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
                data = {"columns": columns, "rows": iter(rows)}
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


def run_evolve(cfg: RunConfig, out_dir):
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


def run_observables(cfg: RunConfig, out_dir):
    """<x>, dx, <p>, dp over the configured schedule, with reference columns."""
    out = _Output(cfg, "observables", out_dir)
    exp, report = _prepare(cfg)
    table = observables.table_for(exp)
    times, theta = cfg.schedule.resolve(report.tau, report.T_rev, cfg.packet.n0)
    series = observables.expectation_series(exp, table, ("x", "dx", "p", "dp"),
                                            times, theta=theta)

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


def run_correlate(cfg: RunConfig, out_dir):
    """|C| and |C-bar| series; optional collapse fit and revival scan."""
    out = _Output(cfg, "correlate", out_dir)
    exp, report = _prepare(cfg)
    n0 = cfg.packet.n0
    times, theta = cfg.schedule.resolve(report.tau, report.T_rev, n0)
    scan = cfg.correlate.scan_grid(report.tau, report.T_rev, n0) if cfg.correlate.scan else None

    absC, absM = np.abs(correlation.autocorrelation_series(exp, times, theta, mirror=True))
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


def run_powerlaw(cfg: RunConfig, out_dir):
    """Spectrum table (k, n, E, tau, T_rev) and optional per-k collapse fits."""
    out = _Output(cfg, "powerlaw", out_dir)
    pl = cfg.powerlaw
    wells = [powerlaw.PowerLawWell(k=k, V0=pl.v0, a=pl.a, mass=cfg.system.mass,
                                   hbar=cfg.system.hbar, half=pl.half)
             for k in pl.k_values]
    levels = np.arange(pl.n_min, pl.n_max + 1)
    n_cells = [str(n) for n in levels.tolist()]    # a level index, never rounded

    def spectrum_rows(well):
        k_cell = "infinity" if math.isinf(well.k) else _fmt(well.k, out.precision)
        E, tau, trev = powerlaw.wkb_spectrum(well, levels)
        trev_cells = ["periodic"] * levels.size if trev is None else trev.tolist()
        if pl.n_min == 0:
            trev_cells[0] = ""     # no revival time below n = 1
        return zip([k_cell] * levels.size, n_cells, E.tolist(), tau.tolist(), trev_cells)

    # one well's rows at a time, computed as the writer reaches them
    rows = chain.from_iterable(map(spectrum_rows, wells))
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


def run_scan_flatten(cfg: RunConfig, out_dir):
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
        series = observables.sample_series(exp, table, "dx", times, theta=theta)
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


def run_timescales(cfg: RunConfig, out_dir):
    """Closed-form time-scale report for the configured packet."""
    out = _Output(cfg, "timescales", out_dir)
    report = timescales.compute_timescales(cfg.system, cfg.packet)
    cols = ["tau", "T_rev", "t0", "T_C", "t_flat"]
    return [out.emit("timescales", cols, [tuple(getattr(report, c) for c in cols)],
                     {"kind": "timescales"}, data=report.to_dict())]
