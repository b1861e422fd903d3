"""Quasi-Gaussian wave packets expanded over the well eigenbasis.

A packet is specified by its central level n0, launch point x0 and either
the width parameter alpha or the initial spatial spread dx0 (alpha =
dx0*sqrt(2)/hbar).  Coefficients carry the phase exp(-i p_n x0 / hbar) so
the packet starts at x0 moving toward the right wall with mean momentum
+p0, the level momentum of n0.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .system import ScaleError, WellSystem, _scale, eigenenergy, level_momentum, revival_time

__all__ = ["PacketSpec", "EigenExpansion", "Theta", "build_gaussian_packet", "takes_fold",
           "NumericalConsistencyError", "PHASE_CHUNK_BYTES", "RESIDUE_TABLE_BYTES"]

# Raw Gaussian weight that may be discarded by clipping the window at n = 1
# before the construction is flagged.
_TRUNCATION_WARN_WEIGHT = 1e-8

# Bytes of complex128 one row block of _time_chunks may hold: a time chunk
# of the phase kernel's factors, a block of the split's giant steps, or a
# block of evolution's grid basis.
# Every series, scan and field reduces one block before building the next,
# so memory stays bounded however many times or grid points a run asks for.
PHASE_CHUNK_BYTES = 2**20

# Bytes of complex128 one form's fold bins, an array of length q over the
# residues of an exact grid, may hold; the split's weighted baby steps stay
# within it too.  Apart from PHASE_CHUNK_BYTES, so that the chunk size never
# decides which path runs or what the split's values are.
RESIDUE_TABLE_BYTES = 16 * 2**20

# unit_roots forms (num mod q)(n^2 mod q) + (q - 1) / 2 in int64, within 2^63
# for a denominator q below 3e9; a time grid with a larger q takes the float path.
_MAX_DEN = 3_000_000_000

# Relative rounding allowed between two closed-form values of one quantity:
# T and 2 n0 tau or a Theta's T, or a time and its exact theta = t / T.
_IDENTITY_TOL = 1e-12

# Rows of level pairs (m, n) whose weights the residue fold bins at once, at
# the least.  A bin then sums its pairs in short runs, one partial per
# block; one sum over all N^2 pairs put up to 5.3 eps of scale into the
# constant bin of <x^2> at N = 509, and 16-row blocks 0.25 eps.
FOLD_ROWS = 16


class NumericalConsistencyError(RuntimeError):
    """An inconsistent or non-finite numerical result (not a config error)."""


def takes_fold(times, terms: int) -> bool:
    """The cost rule: whether sums of ``terms`` phase terms at each of the
    times take EigenExpansion.fold rather than map_chunks.

    On exact times (a Theta) of denominator q, the fold costs
    terms + q log2 q and the chunks T terms for T times; the fold takes
    them when it is the cheaper and its length-q bins fit
    RESIDUE_TABLE_BYTES.  A moment sums N^2 terms, a correlation N.  Float
    times always take the chunks.
    """
    if not isinstance(times, Theta):
        return False
    q = times.den
    return terms + q * math.log2(q) < times.t.size * terms and 16 * q <= RESIDUE_TABLE_BYTES


def fold_rows(n_levels: int, q: int) -> list[slice]:
    """Row slices of the N x N level pairs for the fold's blocks: FOLD_ROWS
    rows each, or enough rows to hold q pairs, so that the per-block bins of
    length q cost no more than the pairs themselves."""
    rows = max(FOLD_ROWS, -(-q // max(1, n_levels)))
    return [slice(i, min(i + rows, n_levels)) for i in range(0, n_levels, rows)]


def _time_chunks(n_times: int, n_levels: int) -> list[slice]:
    """Row slices of a T x N complex128 block: the phase kernel's time
    chunks, and evolution's basis blocks over the grid points.

    The slices are balanced, their lengths differing by at most one, and
    each holds at most PHASE_CHUNK_BYTES while that is three rows or more;
    below, two or three rows.  No slice of a longer block holds a single
    row: BLAS sums a one-row product in another order, and with at least
    two rows per slice a row's value does not depend on the split.
    """
    rows = max(1, PHASE_CHUNK_BYTES // (16 * max(1, n_levels)))
    n = min(-(-n_times // rows), max(1, n_times // 2))
    return [slice(i * n_times // n, (i + 1) * n_times // n) for i in range(n)]


def float_phases(energies: NDArray[np.float64], hbar: float,
                 t: NDArray[np.float64]) -> Callable[[slice], NDArray[np.complex128]]:
    """The float phase block over a spectrum: the function from a slice s of
    the times t to P = exp(-i E_n t[s] / hbar), whose phase error grows as
    eps E_n t / hbar."""
    def block(s: slice):
        P = -1j * np.outer(t[s], energies) / hbar
        return np.exp(P, out=P)
    return block


def unit_roots(r: NDArray[np.int64], q: int) -> NDArray[np.complex128]:
    """exp(-2 pi i r / q) at int products r >= 0 such as num_j (n^2 mod q), by the
    one exact-root rule: r is reduced mod q and centred in (-q/2, q/2], in
    place, and the angle is -2 pi (r / q), the quotient rounded once.  A root
    thus depends on the fraction r / q mod 1 alone, and its |angle| <= pi."""
    r += (q - 1) // 2
    r %= q
    r -= (q - 1) // 2
    P = np.empty(r.shape, dtype=complex)
    P.real = 0.0
    np.multiply(np.divide(r, q, out=P.imag), -2.0 * math.pi, out=P.imag)
    return np.exp(P, out=P)


def map_phases(fn: Callable[[NDArray[np.complex128]], NDArray], energies: NDArray[np.float64],
               hbar: float, times, out: NDArray, block=None) -> NDArray:
    """The chunked phase kernel over a spectrum: out[..., s] = fn(P) for every
    time chunk s of _time_chunks, one chunk after another; returns out.  P is
    block(s) where ``block`` is given (EigenExpansion._phase_rows, whose exact
    phases only the box has), else float_phases' exp(-i E_n t / hbar) over
    times[s].  fn may overwrite P."""
    t = np.asarray(times, dtype=float).reshape(-1)
    if block is None:
        block = float_phases(energies, hbar, t)
    for s in _time_chunks(t.size, len(energies)):
        out[..., s] = fn(block(s))
    return out


def _fractions(values) -> tuple[list[int], int] | None:
    """Exact values (Fractions or ints) as numerators mod their common denominator
    den, and den; None if a value is None or den reaches 3e9, TypeError if inexact."""
    if any(v is None for v in values):
        return None
    from fractions import Fraction  # here, so that importing the package does not load it
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"theta must be exact (int or Fraction), not {type(v).__name__}")
    den = math.lcm(*(v.denominator for v in values))
    if den >= _MAX_DEN:
        return None
    return [v.numerator * (den // v.denominator) % den for v in values], den


@dataclass(frozen=True, eq=False)
class Theta:
    """Float times t_j with their exact fractions theta_j = t_j / T of the
    revival time T, checked once when built (Theta.of, Theta.progression).

    Only theta mod 1 sets a box phase, E_n t / hbar = 2 pi n^2 theta, so
    theta_j is held as num[j] / den mod 1 over one denominator.  A time
    literal in units of tau = T / (2 n0) or of T is such a fraction.  As an
    array (np.asarray, np.size) a Theta is its read-only float times t."""

    t: NDArray[np.float64]
    num: NDArray[np.int64]
    den: int
    T: float

    def __post_init__(self):
        """Refuse fractions that are not one per time, or not the float times'
        own: theta_j = t_j / T mod 1 within _IDENTITY_TOL max(1, t_j / T)."""
        t = np.array(self.t, dtype=float).reshape(-1)
        if self.num.shape != t.shape:
            raise ValueError("theta must hold one value per time")
        x = t / self.T
        d = x - self.num / self.den
        d -= np.rint(d)
        np.abs(d, out=d)
        # within _IDENTITY_TOL every sample passes, with no tolerance array formed
        if d.max(initial=0.0) > _IDENTITY_TOL:
            bad = np.flatnonzero(d > _IDENTITY_TOL * np.maximum(1.0, np.abs(x)))
            if bad.size:
                j = bad[0]
                raise ValueError(f"theta: {self.num[j]}/{self.den} at sample {j} is not "
                                 f"t / T = {x[j]:.17g} mod 1")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)

    @classmethod
    def of(cls, times, T: float, values) -> "Theta | NDArray[np.float64]":
        """The times with their exact t / T ``values``, Fractions or ints, one
        per time; the plain float times if _fractions finds no exact part."""
        exact = _fractions(values)
        if exact is None:
            return np.asarray(times, dtype=float)
        return cls(times, np.array(exact[0], dtype=np.int64), exact[1], T)

    @classmethod
    def progression(cls, times, T: float, start, step) -> "Theta | NDArray[np.float64]":
        """The times with their exact t / T = start + j step, j = 0, 1, ...;
        the plain float times if _fractions finds no exact part."""
        exact = _fractions([start, step])
        if exact is None:
            return np.asarray(times, dtype=float)
        (a, b), den = exact
        return cls(times, (np.arange(np.size(times), dtype=np.int64) * b + a) % den, den, T)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.t, dtype=dtype, copy=copy)

    def __iter__(self):
        """Each time as a Theta of its own, as the wavefunctions take them."""
        return (Theta(self.t[j:j + 1], self.num[j:j + 1], self.den, self.T)
                for j in range(self.t.size))

    def step(self) -> int | None:
        """The constant step b mod den of a progression num_j = num_0 + j b,
        or None when the times are fewer than two or not such a progression."""
        d = np.diff(self.num) % self.den
        return int(d[0]) if d.size and not (d != d[0]).any() else None


@dataclass(frozen=True)
class PacketSpec:
    """Parameters of the quasi-Gaussian packet.

    Exactly one of ``alpha`` / ``dx0`` must be given; the other is derived
    through dx0 = alpha*hbar/sqrt(2) (minimum-uncertainty pair, so
    dx0 * dp0 = hbar/2).
    """

    n0: int
    x0: float
    alpha: float | None = None
    dx0: float | None = None
    window_sigmas: float = 8.0

    def __post_init__(self):
        if (self.alpha is None) == (self.dx0 is None):
            raise ValueError("provide exactly one of alpha / dx0")
        if int(self.n0) != self.n0 or self.n0 < 1:
            raise ValueError("n0: must be a positive integer")
        for name in ("alpha", "dx0", "window_sigmas"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}: must be finite")
        for name in ("alpha", "dx0"):
            width = getattr(self, name)
            if width is not None and not width > 0:
                raise ValueError(f"{name}: must be positive")
        if self.window_sigmas <= 0:
            raise ValueError("window_sigmas: must be positive")

    def validate_for(self, sys: WellSystem):
        if not 0.0 < self.x0 < sys.width_L:
            raise ValueError(f"x0: must lie inside (0, {sys.width_L})")

    def alpha_value(self, sys: WellSystem) -> float:
        if self.alpha is not None:
            return self.alpha
        return self.dx0 * math.sqrt(2.0) / sys.hbar

    def dx0_value(self, sys: WellSystem) -> float:
        if self.dx0 is not None:
            return self.dx0
        return self.alpha * sys.hbar / math.sqrt(2.0)

    def dn_value(self, sys: WellSystem) -> float:
        """Std deviation of the |a_n|^2 distribution over the level index.

        dn = dp * L / (pi hbar) with dp = 1/(alpha sqrt(2)); this is the
        width entering the collapse time T_C = T/(2 pi dn^2).
        """
        dp = 1.0 / (self.alpha_value(sys) * math.sqrt(2.0))
        return dp * sys.width_L / (math.pi * sys.hbar)


@dataclass(frozen=True, eq=False)
class EigenExpansion:
    """State as coefficients a_n over a contiguous level window.

    coefficients[i] belongs to level n_min + i.  The spectrum is the box's:
    energies[i] = eigenenergy(n_min + i), derived here, never passed in, so
    that the float phases and the exact ones (2 pi n^2 theta) see one
    spectrum.  Sum |a_n|^2 = 1 after construction.
    """

    n_min: int
    coefficients: NDArray[np.complex128]
    energies: NDArray[np.float64] = field(init=False)
    sys: WellSystem
    truncated_at_floor: bool = False
    spec: PacketSpec | None = None

    def __post_init__(self):
        energies = eigenenergy(self.levels, self.sys)
        self.coefficients.setflags(write=False)
        energies.setflags(write=False)
        object.__setattr__(self, "energies", energies)

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.coefficients) - 1

    @property
    def levels(self) -> NDArray[np.int64]:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def weights(self) -> NDArray[np.float64]:
        """|a_n|^2 over the window."""
        return np.abs(self.coefficients) ** 2

    def _phase_rows(self, times):
        """The function from a slice of the times to its phase block P: for a
        Theta, unit_roots of the raw products num_j (n^2 mod q), one per
        phase term and no array of length q; for float times, float_phases'
        exp(-i E_n t / hbar), refused where max|t| E_max / hbar overflows."""
        if not isinstance(times, Theta):
            t = np.asarray(times, dtype=float).reshape(-1)
            t_max = float(np.abs(t).max(initial=0.0))
            if not math.isfinite(t_max * float(self.energies[-1]) / self.sys.hbar):
                raise NumericalConsistencyError(f"phase E_n t / hbar overflows at t = {t_max!r}")
            return float_phases(self.energies, self.sys.hbar, t)
        q, n2 = self._den(times), self.square_residues(times.den)
        return lambda s: unit_roots(np.multiply.outer(times.num[s], n2), q)

    def _den(self, times: Theta) -> int:
        """The denominator q of ``times``, refused unless they were built for
        this well's revival time T: every exact phase path asks for it."""
        if abs(times.T - revival_time(self.sys)) > _IDENTITY_TOL * times.T:
            raise ValueError(f"theta: built for T = {times.T!r}, not this well's T")
        return times.den

    def map_chunks(self, fn: Callable[[NDArray[np.complex128]], NDArray], times,
                   out: NDArray) -> NDArray:
        """map_phases over this window's spectrum: out[..., s] = fn(P) for every
        time chunk s, P = exp(-i E_n t / hbar) over times[s]; returns out.
        A Theta makes every phase an exact residue (see _phase_rows).  fn
        may overwrite P.
        """
        return map_phases(fn, self.energies, self.sys.hbar, times, out, self._phase_rows(times))

    def square_residues(self, q: int) -> NDArray[np.int64]:
        """n^2 mod q over the window: the box phase 2 pi n^2 theta at theta = num / q
        is 2 pi (n^2 mod q) num / q."""
        return (self.levels % q) ** 2 % q

    def fold(self, bins: NDArray[np.complex128], times: Theta) -> NDArray[np.complex128]:
        """The residue fold's transform: out[k, j] = Sum_r bins[k, r] exp(2 pi i r num_j / q).

        bins[k, r] is form k's weight of the phase terms 2 pi r theta, binned
        by the caller at residues r in [0, q): a box moment its pairs m < n
        at m^2 - n^2 mod q (observables._series), a correlation its weights
        w_n at n^2 mod q (correlation._phase_sum).  One FFT of length q per
        form gives every sample, out[k, j] = FFT(bins[k])[-num_j mod q].  The
        constant bin r = 0 stays out of the FFT, zeroed in bins, and is added
        afterwards, so its rounding does not spread over the others.  Costs
        O(q log q) and holds O(q + T), whatever T.
        """
        self._den(times)   # refuses times built for another well's T
        const = bins[:, 0].copy()
        bins[:, 0] = 0.0
        # -num_j lies in (-q, 0]: take reads it as -num_j mod q
        out = np.take(np.fft.fft(bins, axis=1), -times.num, axis=1)
        out += const[:, None]
        return out

    def split(self, weights: NDArray[np.float64], times: Theta,
              step: int) -> NDArray[np.complex128]:
        """The two-level split: out[k, j] = Sum_n weights[n, k] exp(2 pi i n^2 theta_j)
        over the progression theta_j = (a + j step) / q, a = times.num[0].

        With j = j1 + J j2 and J about sqrt(T) for T times, the phase of
        level n at sample j is the product of a baby step
        U[j1, n] = exp(-2 pi i n^2 num_j1 / q) and a giant step
        V[j2, n] = exp(-2 pi i n^2 ((step J mod q) j2 mod q) / q), each
        unit_roots of its raw products with n^2 mod q, exact in int64
        (q < 3e9).  So out[k, j] = conj((V (U w_k)^T)[j2, j1]),
        one complex GEMM for every k at once, from (J + T / J) N unit roots
        in place of the chunks' T N.  The weighted U stays whole, within
        RESIDUE_TABLE_BYTES; V is built a block of _time_chunks at a time,
        the GEMM's rows, so that no value depends on the blocks.
        """
        q, count, forms = self._den(times), times.num.size, weights.shape[1]
        n2 = self.square_residues(q)
        J = min(math.isqrt(count - 1) + 1, max(1, RESIDUE_TABLE_BYTES // (16 * forms * n2.size)))
        giants, stride = -(-count // J), step * J % q
        UW = (unit_roots(np.multiply.outer(times.num[:J], n2), q)
              * weights.T[:, None, :]).reshape(-1, n2.size)
        grid = np.empty((forms, giants, J), dtype=complex)
        for s in _time_chunks(giants, n2.size):
            j = np.arange(s.start, s.stop) * stride % q
            M = unit_roots(np.multiply.outer(j, n2), q) @ UW.T
            grid[:, s] = np.conj(M).reshape(-1, forms, J).transpose(1, 0, 2)
        return grid.reshape(forms, -1)[:, :count]

    def phases_at(self, t) -> NDArray[np.complex128]:
        """Coefficients evolved to one time t, a float or a Theta of one time:
        a_n exp(-i E_n t / hbar)."""
        if np.size(t) != 1:
            raise ValueError(f"phases_at takes one time, got {np.size(t)}")
        return self.coefficients * self._phase_rows(t)(slice(None))[0]


def level_window(n0: int, dn: float, sigmas: float, floor: int) -> tuple[int, int]:
    """The first and the last level of a Gaussian's window n0 +- sigmas dn,
    clipped at ``floor``: n0 -+ floor(sigmas dn), exact in integers.  The
    half-width sigmas dn must be a finite, positive double (system._scale,
    a "packet" ScaleError), and the window must hold a level (ValueError)."""
    h = _scale("packet", f"the level window's half-width {sigmas!r} x {dn!r}",
               lambda: sigmas * dn)
    lo, hi = max(floor, n0 - math.floor(h)), n0 + math.floor(h)
    if hi < lo:
        raise ValueError(f"the level window {n0} +- {h!r} clipped at n = {floor} is empty")
    return lo, hi


def held(what: str, build: Callable[[], NDArray], size: int | None = None,
         error: Callable[[str], Exception] = ValueError) -> NDArray:
    """build(), an array numpy allocates, under the memory rule: error("`what`
    cannot be held") where numpy cannot build it (a MemoryError, or its
    ValueError for a size past its maximum) or where ``size``, its count of
    8-byte elements if given, passes the bytes intp addresses (numpy wraps
    counts near 2^63 to an empty array)."""
    try:
        if size is None or size <= np.iinfo(np.intp).max // 8:
            return build()
    except (MemoryError, ValueError):
        pass
    raise error(f"{what} cannot be held")


def level_ends(lo: int, hi: int, source: str) -> NDArray[np.int64]:
    """The int64 levels [lo, hi]; ScaleError from ``source`` for a top level
    past int64 (numpy would build an object array)."""
    if hi >= np.iinfo(np.int64).max:
        raise ScaleError(source, f"the top level n = {hi} is past int64")
    return np.array([lo, hi], dtype=np.int64)


def level_range(lo: int, hi: int, source: str) -> NDArray[np.int64]:
    """The int64 levels lo..hi; ScaleError from ``source`` for a top level past
    int64 (level_ends) or more levels than memory holds (held)."""
    level_ends(lo, hi, source)
    return held(f"the {hi + 1 - lo} levels n = {lo} to {hi}",
                lambda: np.arange(lo, hi + 1, dtype=np.int64), hi + 1 - lo,
                lambda message: ScaleError(source, message))


def build_gaussian_packet(spec: PacketSpec, sys: WellSystem = WellSystem()) -> EigenExpansion:
    """Construct the packet's eigenbasis expansion.

    Coefficients on the window [n0 - W*dn, n0 + W*dn] (clipped to n >= 1):

        a_n = sqrt(alpha hbar sqrt(pi) / L)
              * exp(-alpha^2 (p_n - p0)^2 / 2) * exp(-i p_n x0 / hbar)

    then rescaled so Sum |a_n|^2 is exactly 1.  If clipping at n = 1 discards
    more than 1e-8 of raw weight, the result carries truncated_at_floor=True.
    The packet's widths dn and alpha^2, the window's half-width W*dn and
    the energy at its top must be finite, positive doubles (system._scale),
    and its levels an int64 array that memory holds (level_range):
    ScaleError names the first that is not, the energy as "system", the
    others as "packet".
    """
    spec.validate_for(sys)
    alpha = spec.alpha_value(sys)
    hbar, L = sys.hbar, sys.width_L
    dn = _scale("packet", "the packet's width dn", lambda: spec.dn_value(sys))
    n_min, n_max = level_window(spec.n0, dn, spec.window_sigmas, 1)
    _scale("system", f"the window's top energy E_{n_max}",
           lambda: eigenenergy(n_max, sys))
    alpha2 = _scale("packet", "the packet's width alpha^2", lambda: alpha**2)

    ns = level_range(n_min, n_max, "packet")
    pn = level_momentum(ns, sys)
    p0 = level_momentum(spec.n0, sys)
    amp = math.sqrt(alpha * hbar * math.sqrt(math.pi) / L)
    raw = amp * np.exp(-0.5 * alpha2 * (pn - p0) ** 2) * np.exp(-1j * pn * spec.x0 / hbar)

    truncated = False
    lo = spec.n0 - spec.window_sigmas * dn      # the window's edge before the clip
    if lo < 1.0:
        # weight the clip would have kept had levels below 1 existed
        k = np.arange(math.floor(lo), 1)
        lost = float(np.sum(amp**2 * np.exp(-(alpha * level_momentum(1, sys)) ** 2
                                            * (k - spec.n0) ** 2)))
        truncated = lost > _TRUNCATION_WARN_WEIGHT

    coeff = raw / math.sqrt(float(np.sum(np.abs(raw) ** 2)))
    return EigenExpansion(n_min=n_min, coefficients=coeff, sys=sys,
                          truncated_at_floor=truncated, spec=spec)
