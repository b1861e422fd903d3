"""Expectation values and uncertainties from exact matrix elements.

All moments are assembled in the eigenbasis,

    <O>_t = Sum_mn a_m* a_n <m|O|n> exp(i (E_m - E_n) t / hbar),

with closed-form infinite-square-well matrix elements, so there is no grid
truncation or aliasing error.  Grids serve only as an independent
cross-check (see tests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .packet import EigenExpansion, Theta
from .system import WellSystem, level_momentum

__all__ = [
    "NumericalConsistencyError",
    "MatrixElementTable",
    "TimeSeries",
    "build_matrix_elements",
    "table_for",
    "spec_hash",
    "expectation",
    "expectation_series",
    "uncertainty",
    "uncertainty_series",
    "sample_series",
]

OBSERVABLES = ("x", "x2", "p", "p2")
SERIES_IDS = OBSERVABLES + ("dx", "dp")

# Ceiling on the imaginary residue of an assembled real observable, as a
# fraction of its rounding scale Sum |a_m||a_n||O_mn| (see _series);
# anything larger points at a coefficient/table inconsistency.  Also the
# relative floor below which a variance counts as negative.
_IMAG_TOL = 1e-12

# How far <x> may stray outside [0, L], as a fraction of L.
_WELL_TOL = 1e-9

# The bilinear forms each series id is assembled from.
_FORMS = {"x": ("x",), "x2": ("x2",), "p": ("p",), "p2": (),
          "dx": ("x", "x2"), "dp": ("p",)}


class NumericalConsistencyError(RuntimeError):
    """An internally-inconsistent numerical result (not a user error)."""


@dataclass(frozen=True, eq=False)
class MatrixElementTable:
    """Dense <m|O|n> tables for O in {x, x^2, p, p^2} over a level window."""

    n_min: int
    n_max: int
    x: NDArray[np.float64]
    x2: NDArray[np.float64]
    p: NDArray[np.complex128]
    p2: NDArray[np.float64]

    def covers(self, exp: EigenExpansion) -> bool:
        return self.n_min <= exp.n_min and exp.n_max <= self.n_max

    def block(self, which: str, exp: EigenExpansion) -> NDArray:
        """Sub-table aligned with the expansion's window."""
        if which not in OBSERVABLES:
            raise ValueError(f"unknown observable {which!r}")
        if not self.covers(exp):
            raise ValueError(
                f"table window [{self.n_min}, {self.n_max}] does not cover "
                f"expansion window [{exp.n_min}, {exp.n_max}]")
        i = exp.n_min - self.n_min
        j = exp.n_max - self.n_min + 1
        return getattr(self, which)[i:j, i:j]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled observable values plus bookkeeping metadata."""

    observable: str
    times: NDArray[np.float64]
    values: NDArray[np.float64]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite values in series")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def build_matrix_elements(n_min: int, n_max: int,
                          sys: WellSystem = WellSystem()) -> MatrixElementTable:
    """Closed-form tables over [n_min, n_max].

    <m|x|n>  = L/2 on the diagonal; for m+n odd
               -(2L/pi^2) [1/(m-n)^2 - 1/(m+n)^2]; zero otherwise.
    <m|x2|n> = L^2 (1/3 - 1/(2 n^2 pi^2)) on the diagonal; off it
               (2L^2/pi^2) (-1)^(m+n) [1/(m-n)^2 - 1/(m+n)^2]  (all m != n).
    <m|p|n>  = -(4 i hbar / L) m n / (m^2 - n^2) for m+n odd; zero otherwise.
    <m|p2|n> = delta_mn p_n^2, p_n the level momentum.
    """
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    L, hbar = sys.width_L, sys.hbar
    ns = np.arange(n_min, n_max + 1)
    M = ns[:, None].astype(float)
    N = ns[None, :].astype(float)
    diff = M - N
    tot = M + N
    off = diff != 0
    odd = (ns[:, None] + ns[None, :]) % 2 == 1

    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = 1.0 / diff**2 - 1.0 / tot**2

    x = np.where(off & odd, -(2.0 * L / np.pi**2) * bracket, 0.0)
    np.fill_diagonal(x, L / 2.0)

    sign = np.where(odd, -1.0, 1.0)  # (-1)^(m+n)
    x2 = np.where(off, (2.0 * L**2 / np.pi**2) * sign * bracket, 0.0)
    np.fill_diagonal(x2, L**2 * (1.0 / 3.0 - 1.0 / (2.0 * ns.astype(float)**2 * np.pi**2)))

    with np.errstate(divide="ignore", invalid="ignore"):
        pval = -4j * hbar / L * M * N / (M**2 - N**2)
    p = np.where(off & odd, pval, 0.0 + 0.0j)

    p2 = np.diag(level_momentum(ns, sys) ** 2)

    for arr in (x, x2, p, p2):
        arr.setflags(write=False)
    return MatrixElementTable(n_min=int(n_min), n_max=int(n_max), x=x, x2=x2, p=p, p2=p2)


def table_for(exp: EigenExpansion) -> MatrixElementTable:
    """Convenience: a table exactly covering the expansion's window."""
    return build_matrix_elements(exp.n_min, exp.n_max, exp.sys)


def _variance(mean, second, which: str) -> NDArray[np.float64]:
    var = second - mean**2
    floor = -_IMAG_TOL * np.abs(second)
    if np.any(var < floor):
        raise NumericalConsistencyError(
            f"negative variance for {which}: min {float(np.min(var)):.3e}")
    return np.maximum(var, 0.0)


def _series(exp: EigenExpansion, table: MatrixElementTable, ids: tuple[str, ...],
            times, threads: int = 1, theta: Theta | None = None) -> list[NDArray[np.float64]]:
    """Each series id over a time array, from one evolved block per time chunk.

    b_n(t) = a_n exp(-i E_n t / hbar) is formed once per phase-kernel chunk
    and every form the ids need, <O>_t = Sum_mn b_m* O_mn b_n for O in
    {x, x2, p}, is assembled from it.  <p^2> = Sum |a_n|^2 p_n^2 is
    constant in time and needs no block.  ``theta``, the exact times / T,
    makes the phases exact (EigenExpansion.map_chunks).
    """
    for which in ids:
        if which not in SERIES_IDS:
            raise ValueError(f"unknown series id {which!r}")
    t = np.asarray(times, dtype=float).reshape(-1)
    forms = [f for f in ("x", "x2", "p") if any(f in _FORMS[w] for w in ids)]
    blocks = [table.block(f, exp) for f in forms]

    def assemble(P):
        b = np.multiply(exp.coefficients, P, out=P)
        return np.stack([np.sum(b.conj() * (b @ Mk.T), axis=1) for Mk in blocks])

    raw = exp.map_chunks(assemble, t, np.empty((len(forms), t.size), dtype=complex),
                         threads, theta) if forms else []
    mags = np.abs(exp.coefficients)
    vals = {}
    for f, Mk, v in zip(forms, blocks, raw):
        # <O>_t is real, so its imaginary part is rounding in the sum over
        # m, n, bounded by a small multiple of eps Sum |b_m||b_n||O_mn|;
        # |b_n(t)| = |a_n| makes that scale the same at every t.
        scale = float(mags @ np.abs(Mk) @ mags)
        worst = float(np.max(np.abs(v.imag))) if v.size else 0.0
        if worst > _IMAG_TOL * scale:
            raise NumericalConsistencyError(
                f"imaginary residue {worst:.3e} on <{f}> exceeds {_IMAG_TOL} "
                f"of its scale {scale:.3e}")
        vals[f] = v.real
    if "x" in vals:
        L = exp.sys.width_L
        x = vals["x"]
        out_of_well = np.maximum(-x, x - L)
        if np.any(out_of_well > _WELL_TOL * L):
            raise NumericalConsistencyError(
                f"<x> = {x[np.argmax(out_of_well)]} outside the well")
    if any(w in ("p2", "dp") for w in ids):
        p2 = float(exp.weights @ np.diagonal(table.block("p2", exp)))
        vals["p2"] = np.full(t.size, p2)

    out = []
    for which in ids:
        if which in ("dx", "dp"):
            mean = which[1:]
            out.append(np.sqrt(_variance(vals[mean], vals[mean + "2"], mean)))
        else:
            out.append(vals[which])
    return out


def expectation(exp: EigenExpansion, table: MatrixElementTable, which: str,
                t: float) -> float:
    """<which>_t for which in {x, x2, p, p2}."""
    if which not in OBSERVABLES:
        raise ValueError(f"unknown observable {which!r}")
    return float(_series(exp, table, (which,), [t])[0][0])


def expectation_series(exp: EigenExpansion, table: MatrixElementTable, which,
                       times, threads: int = 1, theta: Theta | None = None):
    """Vectorized expectation over a time array.

    ``which`` is one id of SERIES_IDS ("dx" and "dp" are the
    uncertainties) or a tuple of them; a tuple returns a tuple of arrays,
    all assembled from one evolved block per time chunk.  ``threads``
    spreads the chunks over that many threads without changing a value.
    ``theta``, the exact times / T, makes every phase exact.
    """
    if isinstance(which, str):
        return _series(exp, table, (which,), times, threads, theta)[0]
    return tuple(_series(exp, table, tuple(which), times, threads, theta))


def uncertainty(exp: EigenExpansion, table: MatrixElementTable, which: str,
                t: float) -> float:
    """Delta which at time t, sqrt(<O^2> - <O>^2), which in {x, p}."""
    return float(uncertainty_series(exp, table, which, [t])[0])


def uncertainty_series(exp: EigenExpansion, table: MatrixElementTable, which: str,
                       times) -> NDArray[np.float64]:
    """Vectorized uncertainty over a time array."""
    if which not in ("x", "p"):
        raise ValueError(f"uncertainty defined for x or p, got {which!r}")
    return _series(exp, table, ("d" + which,), times)[0]


def spec_hash(exp: EigenExpansion) -> str:
    """Short stable hash of the packet parameters and window, for metadata."""
    s = exp.spec
    key = (exp.sys.mass, exp.sys.hbar, exp.sys.width_L, exp.n_min, exp.n_max,
           None if s is None else (s.n0, s.x0, s.alpha, s.dx0, s.window_sigmas))
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def sample_series(exp: EigenExpansion, table: MatrixElementTable, which: str,
                  schedule, threads: int = 1, theta: Theta | None = None) -> TimeSeries:
    """One value per schedule point; which in {x, x2, p, p2, dx, dp}.
    ``theta``, the exact schedule / T, makes every phase exact."""
    times = np.asarray(schedule, dtype=float)
    if times.size == 0:
        raise ValueError("empty schedule")
    values = expectation_series(exp, table, which, times, threads, theta)
    meta = {
        "packet": spec_hash(exp),
        "window": [exp.n_min, exp.n_max],
    }
    return TimeSeries(observable=which, times=times, values=values, metadata=meta)
