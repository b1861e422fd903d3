"""Characteristic times of the packet dynamics and flattening detection.

Four closed-form scales: the classical bounce period tau, the revival time
T_rev (system.revival_time), the free-spreading time t0 = 2 m dx0^2 / hbar,
and the collapse time T_C = T_rev / (2 pi dn^2) = 4 t0.  A fifth, the
flattening closed form t_flat, is reported alongside an empirical detector
that finds when a Delta-x series actually saturates at the uniform value
L / sqrt(12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .observables import TimeSeries
from .packet import PacketSpec
from .system import WellSystem, classical_speed, level_momentum, revival_time

__all__ = [
    "TimeScaleReport",
    "compute_timescales",
    "detect_flattening",
    "flat_reference",
    "flat_momentum_reference",
    "spreading_envelope",
]

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class TimeScaleReport:
    """The closed-form time scales plus an optional measured flattening time."""

    tau: float
    T_rev: float
    t0: float
    T_C: float
    t_flat: float
    t_flat_measured: float | None = None

    def __post_init__(self):
        if not self.tau < self.T_rev:
            raise ValueError("tau must be smaller than the revival time")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TimeScaleReport":
        return cls(**{k: d[k] for k in
                      ("tau", "T_rev", "t0", "T_C", "t_flat", "t_flat_measured")})


def compute_timescales(sys: WellSystem, spec: PacketSpec) -> TimeScaleReport:
    """All closed-form scales for a packet.

    tau    = 2 L / v0, v0 the classical speed at level n0  (equals T/(2 n0))
    T_rev  = the revival time T of the box (system.revival_time)
    t0     = 2 m dx0^2 / hbar = m hbar alpha^2
    T_C    = T_rev / (2 pi dn^2)  (equals 4 t0 for the quasi-Gaussian packet)
    t_flat = (8 / sqrt(12)) m L dx0 / hbar

    The tau and T_C identities are verified internally to 1e-12.  Note the
    t_flat closed form is four times the time at which the free envelope
    dx0*sqrt(1+(t/t0)^2) first reaches L/sqrt(12); measured saturation
    times (detect_flattening) track about twice that crossing time, i.e.
    about half this closed form.
    """
    m, hbar, L = sys.mass, sys.hbar, sys.width_L
    dx0 = spec.dx0_value(sys)
    dn = spec.dn_value(sys)

    T_rev = revival_time(sys)
    tau = 2.0 * L / classical_speed(spec.n0, sys)
    t0 = 2.0 * m * dx0**2 / hbar
    T_C = T_rev / (2.0 * math.pi * dn**2)
    t_flat = (8.0 / math.sqrt(12.0)) * m * L * dx0 / hbar

    for name, lhs, rhs in (("T = 2 n0 tau", T_rev, 2.0 * spec.n0 * tau),
                           ("T_C = 4 t0", T_C, 4.0 * t0)):
        if abs(lhs - rhs) > _IDENTITY_TOL * max(abs(lhs), abs(rhs)):
            raise AssertionError(f"internal identity {name} violated")

    return TimeScaleReport(tau=tau, T_rev=T_rev, t0=t0, T_C=T_C, t_flat=t_flat)


def flat_reference(sys: WellSystem = WellSystem()) -> tuple[float, float, float]:
    """Uniform-density position references (<x>, <x^2>, Delta x) = (L/2, L^2/3, L/sqrt 12)."""
    L = sys.width_L
    return L / 2.0, L**2 / 3.0, L / math.sqrt(12.0)


def flat_momentum_reference(spec: PacketSpec,
                            sys: WellSystem = WellSystem()) -> tuple[float, float]:
    """Two-peak momentum model references (<p>, Delta p) = (0, p0).

    Models the collapsed-phase momentum density as equal weights at +-p0;
    a comparison overlay, not a dynamical prediction.
    """
    return 0.0, level_momentum(spec.n0, sys)


def spreading_envelope(dx0: float, t0: float, times) -> np.ndarray:
    """Free-Gaussian width dx0 * sqrt(1 + (t/t0)^2)."""
    t = np.asarray(times, dtype=float)
    return dx0 * np.sqrt(1.0 + (t / t0) ** 2)


def detect_flattening(series: TimeSeries, sys: WellSystem, epsilon: float,
                      hold: int) -> float | None:
    """First time the Delta-x series stays near the flat value.

    Returns the time of the first sample of the earliest run of ``hold``
    consecutive samples all within a relative band +-epsilon of L/sqrt(12),
    or None when the series never saturates.  The sustained-run rule keeps
    single dips through the band (wall collisions, anti-revivals) from
    firing the detector early.

    The series should be sampled at least every quarter bounce period and
    span several flattening times; that is the caller's responsibility.
    """
    if series.observable != "dx":
        raise ValueError(f"need a dx series, got {series.observable!r}")
    if hold < 1:
        raise ValueError("hold must be >= 1")
    flat = flat_reference(sys)[2]
    inside = np.abs(series.values - flat) <= epsilon * flat
    count = np.concatenate(([0], np.cumsum(inside)))      # count[j]: inside[:j] true
    starts = np.flatnonzero(count[hold:] - count[:-hold] == hold)
    return float(series.times[starts[0]]) if starts.size else None
