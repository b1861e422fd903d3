"""Correctness checks on the files one CLI job wrote.

Every check returns a list of failure messages; an empty list means the
output passed.  Outputs are written at the CLI's default 12 significant
digits, so value tolerances sit well above 1e-12 relative.  The other
tolerances were set from the largest deviation seen over a few thousand
generated jobs, with a wide margin (see the constants).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

from workloads import HBAR, L, MASS, T_REV, Job

# Rounding slack for bounds such as |C| <= 1 and 0 <= <x> <= L.
BOUND_TOL = 1e-9
# |C(0)|, |C(T)| and the revival peak heights at 0, T/2 and T on exact
# samples: every job seen printed exactly 1 at 12 digits.
UNIT_TOL = 1e-9
PEAK_TOL = 1e-6
# dx(0) against the configured dx0: the quasi-Gaussian is built in the
# eigenbasis and cut at 8 sigma in n; largest relative miss seen 6.5e-7.
DX0_RTOL = 1e-4
# Trapezoid norm of a density on the CLI's grids.  The position grid
# resolves every level (largest miss seen 1.4e-11); the momentum grid cuts
# the p^-4 tails at 1.5 p0 (largest miss seen 3.3e-4).
NORM_TOL = {"position": 1e-6, "momentum": 5e-3}
# WKB energies against exact spectra (box limit and oscillator).
ENERGY_RTOL = 1e-10
# Collapse-fit estimates against the closed form T_C: seen within 0.92 to
# 1.09 for box and power-law fits.
FIT_RATIO = 1.5


def config_sha(ini: str) -> str:
    return hashlib.sha256(ini.encode()).hexdigest()


def file_sha(paths) -> str:
    """One digest over the named files' bytes, in sorted name order."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _read(path):
    """(config-sha256, columns, rows) from a CSV or JSON output file."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return payload.get("config-sha256"), payload.get("columns"), payload
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    sha = None
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        if lines[i].startswith("# config-sha256: "):
            sha = lines[i][len("# config-sha256: "):]
        i += 1
    return sha, lines[i].split(","), lines[i + 1:]


def _numeric(path):
    """(config-sha256, columns, {column: values}) for an all-numeric table."""
    sha, columns, body = _read(path)
    if path.endswith(".json"):
        data = np.asarray(body["rows"], dtype=float)
    else:
        data = np.loadtxt(body, delimiter=",", ndmin=2)
    return sha, columns, {c: data[:, j] for j, c in enumerate(columns)}


def check_job(job: Job, out_dir: str, listed: list[str]) -> list[str]:
    """Provenance, file list and per-command value checks for one job."""
    written = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir))
    errors = []
    if sorted(listed) != written:
        errors.append(f"listed files {sorted(map(os.path.basename, listed))} != "
                      f"written {list(map(os.path.basename, written))}")
    want = config_sha(job.ini)
    for path in written:
        sha = _read(path)[0]
        if sha != want:
            errors.append(f"{os.path.basename(path)}: config-sha256 {sha} != {want}")
    if errors:
        return errors
    files = {os.path.basename(p): p for p in written}
    return _CHECKS[job.command](job, files)


def _observables(job: Job, files) -> list[str]:
    e = job.expect
    _, _, c = _numeric(files[f"observables.{job.fmt}"])
    errors = []
    if len(c["t"]) != e["samples"]:
        errors.append(f"{len(c['t'])} rows, expected {e['samples']}")
    if c["t"][0] != 0.0:
        errors.append(f"first sample at t = {c['t'][0]}, expected 0")
    if not np.all((c["x_mean"] >= -BOUND_TOL) & (c["x_mean"] <= L + BOUND_TOL)):
        errors.append("x_mean outside [0, L]")
    errors += _dx_checks(c["dx"], e["dx0"])
    if np.any(c["dp"] < 0):
        errors.append("negative dp")
    return errors


def _dx_checks(dx, dx0: float) -> list[str]:
    errors = []
    if not np.all((dx >= 0) & (dx <= L / 2 + BOUND_TOL)):
        errors.append("dx outside [0, L/2]")
    if abs(dx[0] / dx0 - 1.0) > DX0_RTOL:
        errors.append(f"dx(0) = {dx[0]!r}, expected dx0 = {dx0!r}")
    return errors


def _is_sample(e: dict, p: int, q: int) -> bool:
    """Whether p/q T is a scan sample.  Decided exactly, from the scan start
    and resolution the job wrote into its INI (units of tau, T = 2 n0 tau),
    not from the rounded values read back from the output."""
    start, res = (Fraction(s) for s in e["scan_grid"])
    return ((Fraction(2 * e["n0"] * p, q) - start) / res).denominator == 1


def _correlate(job: Job, files) -> list[str]:
    e = job.expect
    _, _, c = _numeric(files[f"correlation.{job.fmt}"])
    errors = []
    if np.any(c["absC"] > 1 + BOUND_TOL) or np.any(c["absCbar"] > 1 + BOUND_TOL):
        errors.append("|C| or |Cbar| above 1")
    if abs(c["absC"][0] - 1.0) > UNIT_TOL or c["t"][0] != 0.0:
        errors.append(f"|C(0)| = {c['absC'][0]!r}, expected 1")
    if e["reaches_T"]:
        if abs(c["t"][-1] / T_REV - 1.0) > UNIT_TOL:
            errors.append(f"schedule ends at {c['t'][-1]!r}, expected T")
        elif abs(c["absC"][-1] - 1.0) > UNIT_TOL:
            errors.append(f"|C(T)| = {c['absC'][-1]!r}, expected 1")
    if e["fit"]:
        with open(files["collapse_fit.json"], encoding="utf-8") as fh:
            fit = json.load(fh)
        if not (fit["points_used"] >= 3 and _fit_close(fit)):
            errors.append(f"collapse fit {fit}")
    with open(files["revival_scan.json"], encoding="utf-8") as fh:
        scan = json.load(fh)
    errors += _scan_checks(job, scan)
    return errors


def _fit_close(fit) -> bool:
    ratio = fit["T_C_estimate"] / fit["T_C_closed_form"]
    return 1 / FIT_RATIO <= ratio <= FIT_RATIO


def _scan_checks(job: Job, scan) -> list[str]:
    e = job.expect
    t0, t1 = scan["window"]
    res = scan["resolution"]
    errors = []
    for peak in scan["peaks"]:
        if not (t0 - res <= peak["t"] <= t1 + res and peak["height"] <= 1 + BOUND_TOL):
            errors.append(f"peak {peak} outside window or above 1")
    # the state is exactly the initial one at 0 and T, and exactly its
    # mirror image at T/2; other p/q T give clones of lower height
    exact = [(0, 1), (1, 2), (1, 1)]
    if e["scan"] == "window":
        exact = [f for f in exact if list(f) == e["fraction"]]
    for p, q in exact:
        if not _is_sample(e, p, q):
            continue
        channel = "Cbar" if (p, q) == (1, 2) else "C"
        hits = [pk for pk in scan["peaks"] if pk["fraction"] == [p, q]
                and pk["channel"] == channel and abs(pk["height"] - 1.0) <= PEAK_TOL]
        if not hits:
            errors.append(f"no {channel} peak of height 1 at {p}/{q} T")
    return errors


def _evolve(job: Job, files) -> list[str]:
    e = job.expect
    reps = {"both": ["position", "momentum"]}.get(e["representation"],
                                                  [e["representation"]])
    errors = []
    expected = {f"density_{rep}_{i:02d}.{job.fmt}"
                for rep in reps for i in range(len(e["times"]))}
    if set(files) != expected:
        return [f"files {sorted(files)}, expected {sorted(expected)}"]
    for name, path in sorted(files.items()):
        rep = "position" if "_position_" in name else "momentum"
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            grid = np.asarray(payload["x" if rep == "position" else "p"], dtype=float)
            dens = np.asarray(payload["density"], dtype=float)
        else:
            _, cols, c = _numeric(path)
            grid, dens = c[cols[0]], c["density"]
        if np.any(dens < 0):
            errors.append(f"{name}: negative density")
        norm = float(np.trapezoid(dens, grid))
        if abs(norm - 1.0) > NORM_TOL[rep]:
            errors.append(f"{name}: grid norm {norm!r}")
    return errors


def _scan_flatten(job: Job, files) -> list[str]:
    e = job.expect
    errors = []
    with open(files["flatten_summary.json"], encoding="utf-8") as fh:
        summary = json.load(fh)
    got = [d["dx0"] for d in summary["detections"]]
    if got != e["dx0_values"]:
        errors.append(f"detections for {got}, expected {e['dx0_values']}")
    for dx0 in e["dx0_values"]:
        name = f"flatten_dx0_{dx0:g}.{job.fmt}"
        if name not in files:
            errors.append(f"missing {name}")
            continue
        _, _, c = _numeric(files[name])
        errors += [f"{name}: {msg}" for msg in _dx_checks(c["dx"], dx0)]
    return errors


def _k_label(k) -> str:
    return k if isinstance(k, str) else f"{k:.12g}"


def _powerlaw(job: Job, files) -> list[str]:
    e = job.expect
    path = files[f"powerlaw.{job.fmt}"]
    if path.endswith(".json"):
        rows = [[_k_label(r[0]), r[1], float(r[2]), float(r[3]), r[4]]
                for r in _read(path)[2]["rows"]]
    else:
        rows = [[k, n, float(E), float(tau), trev] for k, n, E, tau, trev in
                (line.split(",") for line in _read(path)[2])]
    errors = []
    levels = e["n_max"] - e["n_min"] + 1
    if len(rows) != levels * len(e["k"]):
        errors.append(f"{len(rows)} rows, expected {levels * len(e['k'])}")
    a, half = e["a"], e["half"]
    omega = math.sqrt(2.0 * e["v0"] / (MASS * a**2))
    for k, n_cell, E, tau, trev in rows:
        n = int(float(n_cell))
        if not (E > 0 and tau > 0):
            errors.append(f"k={k} n={n}: E={E!r} tau={tau!r}")
        if k == "infinity":
            width = a if half else 2.0 * a
            exact = ((n + 1) * math.pi * HBAR / width) ** 2 / (2.0 * MASS)
            if abs(E / exact - 1.0) > ENERGY_RTOL:
                errors.append(f"box limit n={n}: E={E!r}, closed form {exact!r}")
        elif k == "2":
            exact = HBAR * omega * ((2 * n + 1.5) if half else (n + 0.5))
            if abs(E / exact - 1.0) > ENERGY_RTOL:
                errors.append(f"oscillator n={n}: E={E!r}, exact {exact!r}")
            if trev != ("periodic" if n >= 1 else ""):
                errors.append(f"oscillator n={n}: T_rev reads {trev!r}, expected periodic")
        elif n >= 1 and not float(trev) > 0:
            errors.append(f"k={k} n={n}: T_rev {trev!r}")
        if len(errors) > 5:
            break
    if e["fit"]:
        with open(files["powerlaw_fits.json"], encoding="utf-8") as fh:
            fits = json.load(fh)["fits"]
        for fit in fits:
            if _k_label(fit["k"]) == "2":
                ok = fit.get("result") == "periodic"
            else:
                ok = "T_C_estimate" in fit and fit["points_used"] >= 3 and _fit_close(fit)
            if not ok:
                errors.append(f"power-law fit {fit}")
    return errors


_CHECKS = {
    "observables": _observables,
    "correlate": _correlate,
    "evolve": _evolve,
    "scan-flatten": _scan_flatten,
    "powerlaw": _powerlaw,
}
