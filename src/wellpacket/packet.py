"""Quasi-Gaussian wave packets expanded over the well eigenbasis.

A packet is specified by its central level n0, launch point x0 and either
the width parameter alpha or the initial spatial spread dx0 (alpha =
dx0*sqrt(2)/hbar).  Coefficients carry the phase exp(-i p_n x0 / hbar) so
the packet starts at x0 moving toward the right wall with mean momentum
+p0, the level momentum of n0.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .system import WellSystem, eigenenergy, level_momentum

__all__ = ["PacketSpec", "EigenExpansion", "Theta", "build_gaussian_packet",
           "takes_fold", "PHASE_CHUNK_BYTES", "RESIDUE_TABLE_BYTES"]

# Raw Gaussian weight that may be discarded by clipping the window at n = 1
# before the construction is flagged.
_TRUNCATION_WARN_WEIGHT = 1e-8

# Bytes of complex128 one row block of _time_chunks may hold: a time chunk
# of the phase kernel's factors, or a block of evolution's grid basis.
# Every series, scan and field reduces one block before building the next,
# so memory stays bounded however many times or grid points a run asks for.
PHASE_CHUNK_BYTES = 2**20

# Bytes of complex128 a length-q array over the residues of an exact grid may
# hold: one form's fold bins, or the chunks' table of unit roots.  Apart from
# PHASE_CHUNK_BYTES, so that the chunk size never decides which path runs.
RESIDUE_TABLE_BYTES = 16 * 2**20

# Exact phases form (n^2 mod q)(num mod q) in int64, which holds for a
# denominator q below 2^31.5; a time grid with a larger q takes the float path.
_MAX_DEN = 3_000_000_000

# Rows of level pairs (m, n) whose weights the residue fold bins at once, at
# the least.  A bin then sums its pairs in short runs, one bincount per
# block; one bincount over all N^2 pairs put up to 5.3 eps of scale into the
# constant bin of <x^2> at N = 509, and 16-row blocks 0.25 eps.
FOLD_ROWS = 16


def _check_theta(t: NDArray, theta: "Theta | None"):
    if theta is not None and theta.num.shape != t.shape:
        raise ValueError("theta must hold one value per time")


def takes_fold(times, theta: "Theta | None", terms: int) -> bool:
    """The cost rule: whether sums of ``terms`` phase terms at each of the
    times take EigenExpansion.fold rather than map_chunks.

    On the exact grid ``theta`` of denominator q, the fold costs
    terms + q log2 q and the chunks T terms for T times; the fold takes
    them when it is the cheaper and its length-q bins fit RESIDUE_TABLE_BYTES,
    as the chunks' unit-root table must.  A moment sums N^2 terms, a
    correlation N.  Float times (no theta) always take the chunks, and a
    theta that does not hold one value per time is refused either way.
    """
    t = np.asarray(times).reshape(-1)
    _check_theta(t, theta)
    if theta is None:
        return False
    q = theta.den
    return terms + q * math.log2(q) < t.size * terms and 16 * q <= RESIDUE_TABLE_BYTES


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

    def _phase_rows(self, t: NDArray[np.float64], theta: Theta | None):
        """The function from a slice of the times to its phase block P.

        With theta, P = exp(-2 pi i r / q) for the exact residue
        r = (n^2 mod q)(num mod q) mod q, gathered from a table of the q unit
        roots built here, once per call; when q exceeds the work or
        RESIDUE_TABLE_BYTES, exp is taken of r / q instead.  Without theta,
        P is the float exp(-i E_n t / hbar), whose phase error grows as
        eps E_n t / hbar.
        """
        if theta is None:
            def block(s: slice):
                P = -1j * np.outer(t[s], self.energies) / self.sys.hbar
                return np.exp(P, out=P)
            return block
        q = theta.den
        n2 = self.square_residues(q)
        roots = None
        if q <= t.size * n2.size and 16 * q <= RESIDUE_TABLE_BYTES:
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
                   out: NDArray, *, theta: Theta | None = None) -> NDArray:
        """The chunked phase kernel: out[..., s] = fn(P) for every time chunk s,
        one chunk after another; returns out.

        P = exp(-i E_n t / hbar) over times[s], s a chunk of _time_chunks.
        ``theta``, the exact times / T, makes every phase an exact residue
        (see _phase_rows).  fn may overwrite P.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        _check_theta(t, theta)
        block = self._phase_rows(t, theta)
        for s in _time_chunks(t.size, len(self.energies)):
            out[..., s] = fn(block(s))
        return out

    def square_residues(self, q: int) -> NDArray[np.int64]:
        """n^2 mod q over the window: the box phase 2 pi n^2 theta at theta = num / q
        is 2 pi (n^2 mod q) num / q."""
        return (self.levels % q) ** 2 % q

    def fold(self, blocks: Iterable, theta: Theta, forms: int) -> NDArray[np.complex128]:
        """The residue fold: out[k, j] = Sum_r S[k, r] exp(2 pi i r num_j / q).

        ``blocks`` yields pairs (r, w): residues r in [0, q) of the phase
        terms' 2 pi r theta and their float weights w, shaped
        (parts,) + r.shape, each w[k] contiguous.  Row k < forms is binned
        into the real part of S[k] and row forms + k into its imaginary
        part, one bincount each per block.  A box moment bins its pairs
        m < n at m^2 - n^2 mod q in real and imaginary rows (fold_rows), a
        correlation its real weights w_n at n^2 mod q.  One FFT of length q
        per form then gives every sample, out[k, j] = FFT(S[k])[-num_j mod q].
        The constant bin r = 0 stays out of the FFT and is added afterwards,
        so its rounding does not spread over the others.  Costs
        O(pairs + q log q) and holds O(q + T), whatever T.
        """
        q = theta.den
        bins = np.zeros((forms, q), dtype=complex)
        # while binning, S[k]'s 2q doubles hold its real part and then its
        # imaginary part, so that every bincount adds to a contiguous row
        planes = bins.view(float).reshape(forms, 2, q)
        for r, w in blocks:
            r, w = r.reshape(-1), w.reshape(len(w), -1)
            for k in range(len(w)):
                planes[k % forms, k // forms] += np.bincount(r, w[k], q)
            del r, w      # so that the next block is built without this one
        for row, plane in zip(bins, planes):
            row.real, row.imag = plane.copy()
        const = bins[:, 0].copy()
        bins[:, 0] = 0.0
        # -num_j lies in (-q, 0]: take reads it as -num_j mod q
        out = np.take(np.fft.fft(bins, axis=1), -theta.num, axis=1)
        out += const[:, None]
        return out

    def phases_at(self, t: float, theta=None) -> NDArray[np.complex128]:
        """Coefficients evolved to time t: a_n exp(-i E_n t / hbar); ``theta``
        is the exact t / T, if known."""
        block = self._phase_rows(np.array([t], dtype=float), Theta.of([theta]))
        return self.coefficients * block(slice(None))[0]


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
    return EigenExpansion(n_min=n_min, coefficients=coeff, sys=sys,
                          truncated_at_floor=truncated, spec=spec)
