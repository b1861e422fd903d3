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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .system import WellSystem, eigenenergy, level_momentum

__all__ = ["PacketSpec", "EigenExpansion", "Theta", "build_gaussian_packet",
           "initial_moments", "PHASE_CHUNK_BYTES"]

# Raw Gaussian weight that may be discarded by clipping the window at n = 1
# before the construction is flagged.
_TRUNCATION_WARN_WEIGHT = 1e-8

# Bytes of complex128 phase factors one time chunk of the phase kernel may
# hold.  Every series and scan reduces one chunk before building the next,
# so memory stays bounded however many time samples a run asks for.
PHASE_CHUNK_BYTES = 16 * 2**20

# Exact phases form (n^2 mod q)(num mod q) in int64, which holds for a
# denominator q below 2^31.5; a time grid with a larger q takes the float path.
_MAX_DEN = 3_000_000_000


def _time_chunks(n_times: int, n_levels: int, parts: int = 1) -> list[slice]:
    """Row slices of a T x N complex128 phase block, each within PHASE_CHUNK_BYTES.

    The slices are balanced, their lengths differing by at most one, and
    there are at least ``parts`` of them as long as each still holds two
    rows.  No slice of a longer block holds a single row unless the budget
    forces it: BLAS sums a one-row product in another order, and with at
    least two rows per slice a row's value does not depend on the split.
    """
    if n_times == 0:
        return []
    rows = max(1, PHASE_CHUNK_BYTES // (16 * max(1, n_levels)))
    n = max(-(-n_times // rows), min(parts, n_times // 2))
    edges = [i * n_times // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


@dataclass(frozen=True, eq=False)
class Theta:
    """Times as exact fractions of the revival time T: theta_j = t_j / T.

    Only theta mod 1 sets a box phase, E_n t / hbar = 2 pi n^2 theta, so
    theta_j is held as num[j] / den mod 1 over one denominator.  A time
    literal in units of tau = T / (2 n0) or of T is such a fraction.
    """

    num: NDArray[np.int64]
    den: int

    @classmethod
    def of(cls, values) -> "Theta | None":
        """From exact values (Fractions or ints); None when any value is None
        or their common denominator reaches 3e9."""
        if any(v is None for v in values):
            return None
        den = math.lcm(*(v.denominator for v in values))
        if den >= _MAX_DEN:
            return None
        num = [v.numerator * (den // v.denominator) % den for v in values]
        return cls(np.array(num, dtype=np.int64), den)

    @classmethod
    def progression(cls, start, step, count: int) -> "Theta | None":
        """theta_j = start + j step for j = 0 .. count - 1; None when the
        denominator reaches 3e9."""
        head = cls.of([start, step])
        if head is None:
            return None
        a, b = (int(v) for v in head.num)
        return cls((np.arange(count, dtype=np.int64) * b + a) % head.den, head.den)


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

    coefficients[i] belongs to level n_min + i and energies[i] matches
    eigenenergy(n_min + i).  Sum |a_n|^2 = 1 after construction.
    """

    n_min: int
    coefficients: NDArray[np.complex128]
    energies: NDArray[np.float64]
    sys: WellSystem
    truncated_at_floor: bool = False
    spec: PacketSpec | None = None

    def __post_init__(self):
        if len(self.coefficients) != len(self.energies):
            raise ValueError("coefficients and energies must have equal length")
        self.coefficients.setflags(write=False)
        self.energies.setflags(write=False)

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

    def _phase_rows(self, t: NDArray[np.float64], theta: Theta | None):
        """The function from a slice of the times to its phase block P.

        With theta, P = exp(-2 pi i r / q) for the exact residue
        r = (n^2 mod q)(num mod q) mod q, gathered from a table of the q unit
        roots built here, once per call; when q exceeds the work or the chunk
        budget, exp is taken of r / q instead.  Without theta, P is the float
        exp(-i E_n t / hbar), whose phase error grows as eps E_n t / hbar.
        """
        if theta is None:
            def block(s: slice):
                P = -1j * np.outer(t[s], self.energies) / self.sys.hbar
                return np.exp(P, out=P)
            return block
        q = theta.den
        n2 = (self.levels % q) ** 2 % q
        roots = None
        if q <= t.size * n2.size and 16 * q <= PHASE_CHUNK_BYTES:
            roots = np.exp(np.arange(q) * (-2j * math.pi / q))

        def block(s: slice):
            r = np.multiply.outer(theta.num[s], n2)
            np.remainder(r, q, out=r)
            P = np.empty(r.shape, dtype=complex)
            if roots is not None:
                # r lies in [0, q): "clip" never clips, and unlike the default
                # mode it writes straight into P without a buffer
                return np.take(roots, r, out=P, mode="clip")
            P.real = 0.0
            np.multiply(r, -2.0 * math.pi / q, out=P.imag)
            return np.exp(P, out=P)
        return block

    def map_chunks(self, fn: Callable[[NDArray[np.complex128]], NDArray], times,
                   out: NDArray, threads: int = 1, theta: Theta | None = None) -> NDArray:
        """The phase kernel: out[..., s] = fn(P) for every time chunk s; returns out.

        P = exp(-i E_n t / hbar) over times[s], within PHASE_CHUNK_BYTES.
        ``theta``, the exact times / T, makes every phase an exact residue
        (see _phase_rows); it presumes the box spectrum that
        build_gaussian_packet gives.  fn may overwrite P.  With threads > 1
        the times are cut into at least that many chunks, which go to a pool
        of that many threads, each building its own P; at most ``threads``
        chunks are alive at once, and out is the same as with one thread.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        if theta is not None and theta.num.shape != t.shape:
            raise ValueError("theta must hold one value per time")
        block = self._phase_rows(t, theta)

        def task(s: slice):
            out[..., s] = fn(block(s))

        chunks = _time_chunks(t.size, len(self.energies), threads)
        if threads <= 1:
            for s in chunks:
                task(s)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(task, chunks))
        return out

    def phases_at(self, t: float, theta=None) -> NDArray[np.complex128]:
        """Coefficients evolved to time t: a_n exp(-i E_n t / hbar); ``theta``
        is the exact t / T, if known."""
        out = np.empty((len(self.energies), 1), dtype=complex)
        self.map_chunks(lambda P: P.T, [t], out, theta=Theta.of([theta]))
        return self.coefficients * out[:, 0]


def build_gaussian_packet(spec: PacketSpec, sys: WellSystem = WellSystem()) -> EigenExpansion:
    """Construct the packet's eigenbasis expansion.

    Coefficients on the window [n0 - W*dn, n0 + W*dn] (clipped to n >= 1):

        a_n = sqrt(alpha hbar sqrt(pi) / L)
              * exp(-alpha^2 (p_n - p0)^2 / 2) * exp(-i p_n x0 / hbar)

    then rescaled so Sum |a_n|^2 is exactly 1.  If clipping at n = 1 discards
    more than 1e-8 of raw weight, the result carries truncated_at_floor=True.
    """
    spec.validate_for(sys)
    alpha = spec.alpha_value(sys)
    hbar, L = sys.hbar, sys.width_L
    dn = spec.dn_value(sys)
    lo = spec.n0 - spec.window_sigmas * dn
    n_min = max(1, math.ceil(lo))
    n_max = math.floor(spec.n0 + spec.window_sigmas * dn)
    if n_max < n_min:
        raise ValueError("truncation window is empty; increase window_sigmas")

    ns = np.arange(n_min, n_max + 1)
    pn = level_momentum(ns, sys)
    p0 = level_momentum(spec.n0, sys)
    amp = math.sqrt(alpha * hbar * math.sqrt(math.pi) / L)
    raw = amp * np.exp(-0.5 * alpha**2 * (pn - p0) ** 2) * np.exp(-1j * pn * spec.x0 / hbar)

    truncated = False
    if lo < 1.0:
        # weight the clip would have kept had levels below 1 existed
        k = np.arange(math.floor(lo), 1)
        lost = float(np.sum(amp**2 * np.exp(-(alpha * level_momentum(1, sys)) ** 2
                                            * (k - spec.n0) ** 2)))
        truncated = lost > _TRUNCATION_WARN_WEIGHT

    coeff = raw / math.sqrt(float(np.sum(np.abs(raw) ** 2)))
    energies = np.array([eigenenergy(int(n), sys) for n in ns], dtype=float)
    return EigenExpansion(n_min=n_min, coefficients=coeff, energies=energies,
                          sys=sys, truncated_at_floor=truncated, spec=spec)


def initial_moments(spec: PacketSpec, sys: WellSystem = WellSystem()) -> tuple[float, float]:
    """Analytic t=0 spreads (dx0, dp0) = (alpha hbar / sqrt2, 1/(alpha sqrt2))."""
    alpha = spec.alpha_value(sys)
    return alpha * sys.hbar / math.sqrt(2.0), 1.0 / (alpha * math.sqrt(2.0))
