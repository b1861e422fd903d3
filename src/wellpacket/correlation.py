"""Autocorrelation, mirror-correlation, collapse fitting, revival scanning.

C(t) measures the overlap of the evolved state with the initial one and
C-bar(t) the overlap with the spatially mirrored initial state; both reduce
to weighted phase sums over the level window.  The collapse time is
extracted by fitting the early stroboscopic decay of |C(n tau)| to a
Gaussian law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .packet import EigenExpansion, Theta, takes_fold
from .system import revival_time

__all__ = [
    "CollapseFit",
    "CollapseFitError",
    "ScanPeak",
    "autocorrelation",
    "autocorrelation_series",
    "mirror_correlation_series",
    "fit_gaussian_decay",
    "fit_stroboscopic",
    "fit_collapse",
    "revival_scan",
    "nearest_fraction",
]

# |C(n tau)| cutoff for the collapse fit.  The Gaussian law holds only in
# the early quadratic regime; beyond |C| ~ 0.9 the true stroboscopic decay
# crosses over to the much slower free-dispersion law (1 + 4 s^2)^(-1/4),
# and fitting into that tail inflates the estimate several-fold.
DEFAULT_FIT_THRESHOLD = 0.9

_MAX_FIT_POINTS = 10000

# How far past T, as a fraction of T, a revival scan window may end: the
# rounding of a "1T" or "2 n0 tau" literal, which grows with T.
SCAN_WINDOW_SLACK = 1e-12

# How far past the window's end, in resolution steps, a revival scan sample
# may lie: the rounding of (stop - start) / resolution on an on-grid window.
SCAN_STEP_SLACK = 1e-9


class CollapseFitError(RuntimeError):
    """Stroboscopic sampling cannot bracket a collapse to fit."""


@dataclass(frozen=True)
class CollapseFit:
    """Result of the stroboscopic Gaussian fit of |C(n tau)|."""

    T_C_estimate: float
    points_used: int
    residual: float
    threshold: float

    def __post_init__(self):
        if not self.T_C_estimate > 0:
            raise ValueError("fitted collapse time must be positive")
        if self.points_used < 3:
            raise ValueError("fit must use at least 3 points")


@dataclass(frozen=True)
class ScanPeak:
    """Local correlation maximum, annotated with a nearby rational of T."""

    time: float
    height: float
    channel: str               # "C" or "Cbar", whichever is larger there
    fraction: tuple[int, int] | None


def _phase_sum(exp: EigenExpansion, weights: NDArray, times,
               theta: Theta | None = None) -> NDArray[np.complex128]:
    """Sum_n weights[n, j] exp(i E_n t / hbar), shaped (j, t), or (t,) for 1-d weights.

    ``theta``, the exact times / T, makes every phase exact.  Where the cost
    rule (takes_fold) holds, each column's weights are binned at n^2 mod q
    and one FFT gives every sample (EigenExpansion.fold).  Otherwise the
    weights, being real, take conj(P @ weights) of each chunk of the
    kernel's P = exp(-i E t / hbar); one chunk is alive at a time.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if takes_fold(t, theta, len(weights)):
        cols = np.ascontiguousarray(weights.reshape(len(weights), -1).T)
        out = exp.fold([(exp.square_residues(theta.den), cols)], theta, len(cols))
        return out.reshape(weights.shape[1:] + t.shape)
    w = weights.astype(complex)
    out = np.empty(w.shape[1:] + t.shape, dtype=complex)
    return exp.map_chunks(lambda P: np.conj(P @ w).T, t, out, theta=theta)


def autocorrelation(exp: EigenExpansion, t: float, theta=None) -> complex:
    """C(t) = Sum |a_n|^2 exp(i E_n t / hbar); ``theta`` is the exact t / T, if known."""
    return complex(_phase_sum(exp, exp.weights, t, Theta.of([theta]))[0])


def autocorrelation_series(exp: EigenExpansion, times, theta: Theta | None = None,
                           mirror: bool = False):
    """C(t) over a time array; ``theta`` is the exact times / T, if known.
    With ``mirror``, the pair (C(t), C-bar(t)) from one two-column phase sum."""
    if mirror:
        return tuple(_phase_sum(exp, _both_weights(exp), times, theta))
    return _phase_sum(exp, exp.weights, times, theta)


def mirror_correlation_series(exp: EigenExpansion, times,
                              theta: Theta | None = None) -> NDArray[np.complex128]:
    """C-bar(t) = Sum (-1)^(n+1) |a_n|^2 exp(i E_n t / hbar) over a time array;
    ``theta`` is the exact times / T, if known.

    Closed form of the overlap Int psi*(L-x, t) psi(x, 0) dx, using
    u_n(L - x) = (-1)^(n+1) u_n(x).
    """
    return _phase_sum(exp, _mirror_weights(exp), times, theta)


def _mirror_weights(exp: EigenExpansion) -> NDArray[np.float64]:
    signs = np.where(exp.levels % 2 == 1, 1.0, -1.0)  # (-1)^(n+1)
    return signs * exp.weights


def _both_weights(exp: EigenExpansion) -> NDArray[np.float64]:
    """The weights of C and C-bar as the two columns of one phase sum."""
    return np.stack([exp.weights, _mirror_weights(exp)], axis=1)


def fit_gaussian_decay(times, magnitudes) -> tuple[float, float]:
    """Least squares of ln|C| = -(t/T_C)^2 through the origin.

    Returns (T_C_estimate, rms residual of the ln fit).
    """
    t = np.asarray(times, dtype=float)
    y = np.log(np.asarray(magnitudes, dtype=float))
    if t.size < 3:
        raise CollapseFitError(f"need at least 3 points, got {t.size}")
    u = t**2
    slope = -float(np.dot(u, y) / np.dot(u, u))
    if slope <= 0:
        raise CollapseFitError("non-decaying magnitudes; cannot fit a collapse time")
    resid = y + slope * u
    return 1.0 / math.sqrt(slope), float(np.sqrt(np.mean(resid**2)))


def fit_stroboscopic(magnitude, tau: float,
                     threshold: float = DEFAULT_FIT_THRESHOLD) -> CollapseFit:
    """Gaussian-decay fit of a stroboscopic magnitude sampler.

    ``magnitude(n)`` is evaluated at the period index n = 1, 2, ..., the
    time t = n tau, while the value stays above the threshold; the
    collected points feed the ln-Gaussian least squares.  Raises CollapseFitError with fewer than three usable
    points (the signal collapses too fast for the stroboscope to see).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    ts, mags = [], []
    for n in range(1, _MAX_FIT_POINTS + 1):
        c = magnitude(n)
        if c <= threshold:
            break
        ts.append(n * tau)
        mags.append(c)
    else:
        # never dipping below threshold means the early-decay regime was
        # never delimited (near-isochronous spectrum); any fit over an
        # arbitrary truncation would be meaningless
        raise CollapseFitError(
            f"|C(n tau)| stayed above {threshold} for {_MAX_FIT_POINTS} periods; "
            "no collapse to fit")
    if len(ts) < 3:
        raise CollapseFitError(
            f"only {len(ts)} stroboscopic points above |C| = {threshold}")
    est, resid = fit_gaussian_decay(ts, mags)
    return CollapseFit(T_C_estimate=est, points_used=len(ts),
                       residual=resid, threshold=threshold)


def fit_collapse(exp: EigenExpansion, tau: float,
                 threshold: float = DEFAULT_FIT_THRESHOLD, theta=None) -> CollapseFit:
    """Fit the collapse time from |C(n tau)|, n = 1, 2, ... while |C| > threshold.

    For the default packet the estimate lands within 10% of the closed form
    T/(2 pi dn^2) = 4 t0.  ``theta``, the exact tau / T (1 / (2 n0) for the
    bounce period), makes the phase at each n tau exact.
    """
    def magnitude(n):
        return abs(autocorrelation(exp, n * tau, None if theta is None else n * theta))
    return fit_stroboscopic(magnitude, tau, threshold)


def nearest_fraction(x: float, max_q: int = 8) -> tuple[int, int]:
    """Best rational p/q approximation to x with 1 <= q <= max_q.

    Equivalent to descending the Stern-Brocot tree to depth q <= max_q;
    with such a shallow cutoff, scanning the reduced fractions directly is
    exact and simpler.
    """
    best = (round(x), 1)
    err = abs(x - best[0])
    for q in range(2, max_q + 1):
        p = round(x * q)
        if math.gcd(p, q) != 1:
            continue
        e = abs(x - p / q)
        if e < err:
            best, err = (p, q), e
    return best


def _scan_times(T: float, t0: float, t1: float, resolution: float) -> NDArray[np.float64]:
    """The revival scan's samples t0 + k resolution, none past t1 but by
    rounding (SCAN_STEP_SLACK), on a window within [0, T] but by rounding
    (SCAN_WINDOW_SLACK); at least two of them, or ValueError naming the
    setting at fault."""
    if not t0 >= 0.0:
        raise ValueError("scan_start: must not be negative")
    if not t0 < t1 <= T * (1.0 + SCAN_WINDOW_SLACK):
        raise ValueError("scan_stop: must lie in (scan_start, 1T]")
    if not resolution > 0.0:
        raise ValueError("scan_resolution: must be positive")
    times = np.arange(t0, t1 + SCAN_STEP_SLACK * resolution, resolution)
    if times.size < 2:
        raise ValueError("scan_resolution: leaves fewer than two samples")
    return times


def revival_scan(exp: EigenExpansion, t_window: tuple[float, float],
                 resolution: float, min_height: float, theta=None) -> list[ScanPeak]:
    """Local maxima of max(|C|, |C-bar|) on a sampled window.

    The samples are t0 + k resolution over (t0, t1) = ``t_window``
    (_scan_times).  Peaks at or above ``min_height`` are annotated with
    the closest fraction p/q of the revival time T (nearest_fraction) when
    that fraction lies within half a resolution step; otherwise the
    annotation is None.  ``theta``, the exact (t0 / T, resolution / T),
    makes every sample's phase exact.  The window needs at least two
    samples.
    """
    T = revival_time(exp.sys)
    times = _scan_times(T, *t_window, resolution)
    exact = None if theta is None else Theta.progression(*theta, times.size)
    ac, mc = np.abs(_phase_sum(exp, _both_weights(exp), times, exact))
    curve = np.maximum(ac, mc)
    # a peak is at least its left neighbor and above its right one; the
    # window edges count when they top their one neighbor, so the exact
    # revival at t = T is not silently dropped
    rises = np.concatenate(([True], curve[1:] >= curve[:-1]))
    falls = np.concatenate((curve[:-1] > curve[1:], [True]))
    peaks = []
    for i in np.flatnonzero((curve >= min_height) & rises & falls):
        p, q = nearest_fraction(times[i] / T)
        frac = (p, q) if abs(times[i] - (p / q) * T) <= resolution / 2 else None
        channel = "C" if ac[i] >= mc[i] else "Cbar"
        peaks.append(ScanPeak(time=float(times[i]), height=float(curve[i]),
                              channel=channel, fraction=frac))
    return peaks
