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

from .packet import EigenExpansion, Theta, held, takes_fold
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


def _phase_sum(exp: EigenExpansion, weights: NDArray, times) -> NDArray[np.complex128]:
    """Sum_n weights[n, j] exp(i E_n t / hbar), shaped (j, t), or (t,) for 1-d weights.

    On a Theta where the cost rule (takes_fold) holds, each column's
    weights are binned at n^2 mod q, one np.add.at a column, and one FFT
    of the bins gives every sample (EigenExpansion.fold).  Otherwise
    exact times on a progression of two or more, as every scan and every
    fit block after the first is, take the two-level split: sqrt(T) rows
    of baby-step and giant-step unit roots and one GEMM
    (EigenExpansion.split).  Any other times, a single time such as the
    first fit block (n = 1) among them, take conj(P @ weights) of each
    chunk of the kernel's P = exp(-i E t / hbar), the weights being real;
    one chunk is alive at a time.
    """
    shape = weights.shape[1:] + (np.size(times),)
    cols = weights.reshape(len(weights), -1)
    if takes_fold(times, len(weights)):
        r = exp.square_residues(times.den)
        bins = np.zeros((cols.shape[1], times.den), dtype=complex)
        # complex weights, cast once a call, take ufunc.at's fast loop, where
        # real ones into complex bins would take its slow one
        for row, w in zip(bins, np.ascontiguousarray(cols.T, dtype=complex)):
            np.add.at(row, r, w)
        out = exp.fold(bins, times)
    elif isinstance(times, Theta) and (step := times.step()) is not None:
        out = exp.split(cols, times, step)
    else:
        return exp.map_chunks(_summed(weights), times, np.empty(shape, dtype=complex))
    return out.reshape(shape)


def _summed(weights: NDArray[np.float64]):
    """The chunk function of a phase sum over any spectrum: for real weights,
    Sum_n weights[n, j] exp(i E_n t / hbar) = conj(P @ weights) over a block
    P = exp(-i E_n t / hbar), shaped (j, t)."""
    w = weights.astype(complex)
    return lambda P: np.conj(P @ w).T


def autocorrelation(exp: EigenExpansion, t) -> complex:
    """C(t) = Sum |a_n|^2 exp(i E_n t / hbar) at one time t, a float or a one-time
    Theta.  Single times only; autocorrelation_series serves every caller in the package."""
    if np.size(t) != 1:
        raise ValueError(f"autocorrelation takes one time, got {np.size(t)}")
    return complex(_phase_sum(exp, exp.weights, t)[0])


def autocorrelation_series(exp: EigenExpansion, times, *, mirror: bool = False):
    """C(t) over a time array or a Theta.  With ``mirror``, the pair
    (C(t), C-bar(t)) from one two-column phase sum."""
    if mirror:
        return tuple(_phase_sum(exp, _both_weights(exp), times))
    return _phase_sum(exp, exp.weights, times)


def mirror_correlation_series(exp: EigenExpansion, times) -> NDArray[np.complex128]:
    """C-bar(t) = Sum (-1)^(n+1) |a_n|^2 exp(i E_n t / hbar) over a time
    array or a Theta.

    Closed form of the overlap Int psi*(L-x, t) psi(x, 0) dx, using
    u_n(L - x) = (-1)^(n+1) u_n(x).
    """
    return _phase_sum(exp, _mirror_weights(exp), times)


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
    with np.errstate(all="ignore"):
        u = t**2
        slope = -float(np.dot(u, y) / np.dot(u, u))
    # not slope <= 0, which a NaN would pass, as where every t^2 underflows
    if not 0.0 < slope < math.inf:
        raise CollapseFitError(f"ln|C| decay rate {slope!r} is not finite and positive")
    resid = y + slope * u
    return 1.0 / math.sqrt(slope), float(np.sqrt(np.mean(resid**2)))


def fit_stroboscopic(magnitude, tau: float,
                     threshold: float = DEFAULT_FIT_THRESHOLD) -> CollapseFit:
    """Gaussian-decay fit of a batched stroboscopic magnitude sampler.

    ``magnitude(ns)`` gives |C(n tau)| at an int array of period indices n,
    the times t = n tau.  It is asked for blocks that double in length,
    n = 1, 2-3, 4-7, ..., up to _MAX_FIT_POINTS, until a value falls to the
    threshold; the points before the first such n feed the ln-Gaussian
    least squares.  Raises CollapseFitError with fewer than three usable
    points (the signal collapses too fast for the stroboscope to see).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    blocks, start = [], 1
    while start <= _MAX_FIT_POINTS:
        block = np.asarray(magnitude(np.arange(start, min(2 * start, _MAX_FIT_POINTS + 1))),
                           dtype=float)
        cut = np.flatnonzero(block <= threshold)
        blocks.append(block[:cut[0]] if cut.size else block)
        if cut.size:
            break
        start *= 2
    else:
        # never dipping below threshold means the early-decay regime was
        # never delimited (near-isochronous spectrum); any fit over an
        # arbitrary truncation would be meaningless
        raise CollapseFitError(
            f"|C(n tau)| stayed above {threshold} for {_MAX_FIT_POINTS} periods; "
            "no collapse to fit")
    mags = np.concatenate(blocks)
    if mags.size < 3:
        raise CollapseFitError(
            f"only {mags.size} stroboscopic points above |C| = {threshold}")
    est, resid = fit_gaussian_decay(np.arange(1, mags.size + 1) * tau, mags)
    return CollapseFit(T_C_estimate=est, points_used=mags.size,
                       residual=resid, threshold=threshold)


def fit_collapse(exp: EigenExpansion, tau,
                 threshold: float = DEFAULT_FIT_THRESHOLD) -> CollapseFit:
    """Fit the collapse time from |C(n tau)|, n = 1, 2, ... while |C| > threshold.

    For the default packet the estimate lands within 10% of the closed form
    T/(2 pi dn^2) = 4 t0.  ``tau`` is a float or a Theta of one time, whose
    exact tau / T = num / den (1 / (2 n0) for the bounce period) makes the
    phase at each n tau exact: each block of fit_stroboscopic is then the
    progression n num / den, summed on the path the cost rule picks.
    """
    period = np.asarray(tau, dtype=float).item()

    def magnitude(ns):
        times = ns * period
        if isinstance(tau, Theta):
            times = Theta(times, ns * tau.num[0] % tau.den, tau.den, tau.T)
        return np.abs(autocorrelation_series(exp, times))
    return fit_stroboscopic(magnitude, period, threshold)


def nearest_fraction(x, max_q: int = 8):
    """Best rational p/q approximation to x with 1 <= q <= max_q.

    Equivalent to descending the Stern-Brocot tree to depth q <= max_q;
    with such a shallow cutoff, scanning the reduced fractions directly is
    exact and simpler: p = rint(x q) for each q, a p/q that does not
    reduce skipped, and the first q of least |x - p/q| taken, so a tie goes
    to the smaller q.  For a scalar x, the pair (p, q) of Python ints; for
    an array, the pair of int arrays of its shape.
    """
    xs = np.asarray(x, dtype=float)[..., None]
    qs = np.arange(1, max_q + 1)
    ps = np.rint(xs * qs)
    err = np.abs(xs - ps / qs)
    err[np.gcd(ps.astype(np.int64), qs) != 1] = np.inf
    best = np.argmin(err, axis=-1)
    p = np.take_along_axis(ps, best[..., None], axis=-1)[..., 0].astype(np.int64)
    q = qs[best]
    if p.ndim == 0:
        return int(p), int(q)
    return p, q


def _scan_times(T: float, t0: float, t1: float, resolution: float) -> NDArray[np.float64]:
    """The revival scan's samples t0 + k resolution, none past t1 but by
    rounding (SCAN_STEP_SLACK), on a window within [0, T] but by rounding
    (SCAN_WINDOW_SLACK); at least two of them, and no more than memory
    holds (packet.held), or ValueError naming the setting at fault."""
    if not t0 >= 0.0:
        raise ValueError("scan_start: must not be negative")
    if not t0 < t1 <= T * (1.0 + SCAN_WINDOW_SLACK):
        raise ValueError("scan_stop: must lie in (scan_start, 1T]")
    if not resolution > 0.0:
        raise ValueError("scan_resolution: must be positive")
    times = held(f"scan_resolution: the samples {resolution!r} apart over [{t0!r}, {t1!r}]",
                 lambda: np.arange(t0, t1 + SCAN_STEP_SLACK * resolution, resolution))
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
    makes every sample's phase exact; one that is not the window's is
    refused (Theta.progression).  The window needs at least two samples.
    """
    T = revival_time(exp.sys)
    times = _scan_times(T, *t_window, resolution)
    samples = times if theta is None else Theta.progression(times, T, *theta)
    ac, mc = np.abs(_phase_sum(exp, _both_weights(exp), samples))
    curve = np.maximum(ac, mc)
    # a peak is at least its left neighbor and above its right one; the
    # window edges count when they top their one neighbor, so the exact
    # revival at t = T is not silently dropped
    rises = np.concatenate(([True], curve[1:] >= curve[:-1]))
    falls = np.concatenate((curve[:-1] > curve[1:], [True]))
    at = np.flatnonzero((curve >= min_height) & rises & falls)
    t = times[at]
    p, q = nearest_fraction(t / T)
    near = np.abs(t - (p / q) * T) <= resolution / 2
    return [ScanPeak(time=ti, height=h, channel="C" if c else "Cbar",
                     fraction=(pi, qi) if n else None)
            for ti, h, c, pi, qi, n in zip(t.tolist(), curve[at].tolist(),
                                           (ac[at] >= mc[at]).tolist(), p.tolist(),
                                           q.tolist(), near.tolist())]
