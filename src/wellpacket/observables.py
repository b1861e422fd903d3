"""Expectation values and uncertainties from exact matrix elements.

All moments are assembled in the eigenbasis,

    <O>_t = Sum_mn a_m* a_n <m|O|n> exp(i (E_m - E_n) t / hbar),

with closed-form infinite-square-well matrix elements, so there is no grid
truncation or aliasing error.  Grids serve only as an independent
cross-check (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.typing import NDArray

from .packet import EigenExpansion, Theta, fold_rows, takes_fold
from .system import WellSystem, level_momentum

__all__ = [
    "NumericalConsistencyError",
    "MatrixElementTable",
    "TimeSeries",
    "build_matrix_elements",
    "table_for",
    "expectation_series",
    "uncertainty_series",
    "sample_series",
]

OBSERVABLES = ("x", "x2", "p", "p2")
SERIES_IDS = OBSERVABLES + ("dx", "dp")

# Ceiling on the imaginary residue of an assembled real observable, as a
# fraction of its rounding scale Sum |a_m||a_n||O_mn| (see _series); both
# paths check one Hermiticity probe per call, and the chunks every sample.
# Anything larger points at a coefficient/table inconsistency.  Also the
# relative floor below which a variance counts as negative.
_IMAG_TOL = 1e-12

# g of the Hermiticity probe's vector b_n = a_n exp(2 pi i g n^2): the golden
# ratio's fractional part, so that the probe's phases carry no symmetry of
# the packet's own (see _spans).
_PROBE = (math.sqrt(5.0) - 1.0) / 2.0

# How far <x> may stray outside [0, L], as a fraction of L.
_WELL_TOL = 1e-9

# Row of each form in MatrixElementTable.diagonals.
_FORM_INDEX = {"x": 0, "x2": 1, "p": 2}

# Bytes of one form's rows that the fold writes at once: a span of its
# row blocks, so that a small window is written in few calls.
_SPAN_BYTES = 2**18

# The bilinear forms each series id is assembled from.
_FORMS = {"x": ("x",), "x2": ("x2",), "p": ("p",), "p2": (),
          "dx": ("x", "x2"), "dp": ("p",)}


class NumericalConsistencyError(RuntimeError):
    """An internally-inconsistent numerical result (not a user error)."""


@dataclass(frozen=True, eq=False)
class MatrixElementTable:
    """<m|O|n> for O in {x, x^2, p, p^2} over a level window, in O(N) bytes.

    Every form is real.  <m|p|n> is purely imaginary, so the p form R holds
    its imaginary part: <m|p|n> = i R[m, n].  <m|p^2|n> is diagonal, so
    ``p2`` is the vector of p_n^2.  The x, x2 and p forms are not stored:
    off the diagonal they are read from the six 1-D ``kernels`` of
    build_matrix_elements, and ``diagonals`` holds their diagonals.
    ``rows`` writes a row block of a form afresh and ``diagonal`` reads a
    diagonal: they are the only readers of a form, and the table keeps
    nothing they write.  A table serves exactly the packet table_for built
    it for, its window in its well; the series refuse any other (_series).
    """

    n_min: int
    n_max: int
    sys: WellSystem
    kernels: NDArray[np.float64]
    diagonals: NDArray[np.float64]
    p2: NDArray[np.float64]
    _hankel: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self):
        N = self.n_max - self.n_min + 1
        K = self.kernels
        if K.shape != (6, 2 * N - 1) or not K.flags.c_contiguous:
            raise ValueError("kernels must be a contiguous 6 x (2N - 1) array")
        # H[r][i, j] = K[r, i + j]: Hankel views of the kernels, no copy
        H = as_strided(K, (6, N, N), (K.strides[0],) + 2 * K.strides[1:], writeable=False)
        object.__setattr__(self, "_hankel", H)

    def diagonal(self, which: str) -> NDArray[np.float64]:
        """The diagonal of a form; for p2, its vector."""
        if which not in OBSERVABLES:
            raise ValueError(f"unknown observable {which!r}")
        return self.p2 if which == "p2" else self.diagonals[_FORM_INDEX[which]]

    def rows(self, which: str, s: slice) -> NDArray[np.float64]:
        """Rows s of the real form of ``which``, written afresh from the
        kernels; the only temporaries are of the block's size.

        Each entry rounds as the plain N x N formula does (see
        build_matrix_elements), whichever rows the block holds.
        """
        d = self.diagonal(which)
        lo, hi, _ = s.indices(d.size)
        r = slice(lo, hi)
        H, L, hbar = self._hankel, self.sys.width_L, self.sys.hbar
        if which == "x":
            R = np.subtract(H[1, r], H[0, ::-1][r])
            R *= 2.0 * L / np.pi**2
        elif which == "x2":
            R = np.subtract(H[2, ::-1][r], H[3, r])
            R *= 2.0 * L**2 / np.pi**2
        elif which == "p":
            w = np.multiply(H[4, ::-1][r], H[5, r])
            np.divide(1.0, w, out=w)
            m = np.arange(self.n_min + lo, self.n_min + hi, dtype=float)
            n = np.arange(self.n_min, self.n_max + 1, dtype=float)
            R = np.multiply.outer(4.0 * hbar / L * m, n)
            R *= w
        else:
            raise ValueError("p2 is diagonal: see MatrixElementTable.diagonal")
        # the block's diagonal entries (k - lo, k) lie N + 1 apart from lo
        R.reshape(-1)[lo::d.size + 1] = d[lo:hi]
        return R


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled values of one observable."""

    observable: str
    times: NDArray[np.float64]
    values: NDArray[np.float64]

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
    """Closed-form tables over [n_min, n_max], held as 1-D kernels.

    <m|x|n>  = L/2 on the diagonal; for m+n odd
               -(2L/pi^2) [1/(m-n)^2 - 1/(m+n)^2]; zero otherwise.
    <m|x2|n> = L^2 (1/3 - 1/(2 n^2 pi^2)) on the diagonal; off it
               (2L^2/pi^2) (-1)^(m+n) [1/(m-n)^2 - 1/(m+n)^2]  (all m != n).
    <m|p|n>  = -(4 i hbar / L) m n / (m^2 - n^2) for m+n odd; zero otherwise.
    <m|p2|n> = delta_mn p_n^2, p_n the level momentum.

    Off the diagonal every entry is a function of d = m - n and s = m + n
    (of equal parity), so each form is read from 1-D kernels over d and s
    through read-only strided views, Toeplitz T[i, j] = c[i - j] and Hankel
    H[i, j] = h[i + j]; MatrixElementTable.rows writes any row block of a
    form from them, with no temporary larger than the block:

        x     = (2L/pi^2)   (H(g_s) - T(g_d)),  g = 1/d^2 at odd parity, else 0
        x2    = (2L^2/pi^2) (T(+-1/d^2) - H(+-1/s^2)),  sign (-1)^d
        Im p  = ((4 hbar/L) m) n * (1 / (T(e_d) H(s))),  e = -d odd, +inf even

    Each rounds as the plain N x N formulas do, bit for bit: 1/d^2 - 1/s^2
    is an exact negation of 1/s^2 - 1/d^2, and Im p is the numerator times
    the rounded reciprocal of the exact integer n^2 - m^2, as complex
    division rounds.  Even pairs give +0.0 (1/inf).  The table holds the
    kernels, the three diagonals and p_n^2: 16 N doubles, whatever N.
    """
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    L = sys.width_L
    N = n_max - n_min + 1
    ns = np.arange(n_min, n_max + 1, dtype=float)

    # kernel rows over t = 0 .. 2N-2, at d = t - (N-1) (rows 0, 2, 4) and
    # s = 2 n_min + t (rows 1, 3, 5); d is odd where t - N is even.  Read as
    # H[r][i, j] = K[r, i + j], the d rows are T = H[r, ::-1], K[r, N-1 - i + j],
    # the kernel at j - i = n - m: the same as at m - n for the even rows 0
    # and 2, and e(m - n) = n - m for row 4, which holds d
    K = np.empty((6, 2 * N - 1))
    K[4] = np.arange(1 - N, N)
    K[5] = np.arange(2 * n_min, 2 * n_max + 1)
    np.square(K[4:], out=K[:2])
    K[0, N - 1] = 1.0               # d = 0: the diagonal is held apart
    np.divide(1.0, K[:2], out=K[:2])
    K[2:4] = K[:2]
    K[2, N % 2::2] *= -1.0          # (-1)^d / d^2
    K[3, 1::2] *= -1.0              # (-1)^s / s^2
    K[0, (N - 1) % 2::2] = 0.0      # even d
    K[1, ::2] = 0.0                 # even s
    K[4, (N - 1) % 2::2] = np.inf

    diagonals = np.zeros((3, N))
    diagonals[0] = L / 2.0
    diagonals[1] = L**2 * (1.0 / 3.0 - 1.0 / (2.0 * ns**2 * np.pi**2))
    p2 = level_momentum(np.arange(n_min, n_max + 1), sys) ** 2

    for arr in (K, diagonals, p2):
        arr.setflags(write=False)
    return MatrixElementTable(n_min=int(n_min), n_max=int(n_max), sys=sys, kernels=K,
                              diagonals=diagonals, p2=p2)


def table_for(exp: EigenExpansion) -> MatrixElementTable:
    """The table of the expansion's window and well, the one its series take."""
    return build_matrix_elements(exp.n_min, exp.n_max, exp.sys)


def _variance(mean, second, which: str) -> NDArray[np.float64]:
    var = second - mean**2
    floor = -_IMAG_TOL * np.abs(second)
    if np.any(var < floor):
        raise NumericalConsistencyError(
            f"negative variance for {which}: min {float(np.min(var)):.3e}")
    return np.maximum(var, 0.0)


def _check_residue(which: str, worst: float, scale: float):
    if worst > _IMAG_TOL * scale:
        raise NumericalConsistencyError(
            f"imaginary residue {worst:.3e} on <{which}> exceeds {_IMAG_TOL} "
            f"of its scale {scale:.3e}")


def _spans(exp: EigenExpansion, table: MatrixElementTable, forms: list[str], q: int,
           scales: NDArray[np.float64], probes: NDArray[np.float64]):
    """The forms' rows, a span at a time: yields (span, blocks, rows), rows[k]
    the rows ``span`` of forms[k] written afresh (MatrixElementTable.rows)
    for whole row blocks of the fold at denominator q (fold_rows; q = 0 for
    the chunks), up to _SPAN_BYTES a form, so that small blocks do not each
    pay the call overhead.  When the caller is done with a span, adds its
    Sum |a_m||a_n||R_mn| to scales[k] and its share of the Hermiticity probe
    Im(b^H O b) to probes[k], and drops its rows, so that one span is alive
    at a time unless the caller keeps one.  The probe, rounding for a
    Hermitian O, takes b_n = a_n exp(2 pi i g n^2), not b_n(t): at x0 = L/2,
    conj(a_m) a_n is purely imaginary for odd m - n, and a probe at t = 0
    misses a non-Hermitian entry of p or x2 there."""
    mags = np.abs(exp.coefficients)
    # the probe's real and imaginary parts apart, for two real GEMVs a span
    b = exp.coefficients * np.exp(2j * math.pi * _PROBE * exp.levels.astype(float) ** 2)
    br, bi = np.ascontiguousarray(b.real), np.ascontiguousarray(b.imag)
    blocks = fold_rows(mags.size, q)
    per = max(1, _SPAN_BYTES // (8 * mags.size * blocks[0].stop))
    for g in range(0, len(blocks), per):
        group = blocks[g:g + per]
        span = slice(group[0].start, group[-1].stop)
        rows = [table.rows(f, span) for f in forms]
        yield span, group, rows
        for k, f in enumerate(forms):
            # Im(b^H O b) over the span's rows; Re(b^H R b) for O = i R
            yr, yi = rows[k] @ br, rows[k] @ bi
            probes[k] += (br[span] @ yr + bi[span] @ yi if f == "p"
                          else br[span] @ yi - bi[span] @ yr)
        # b^H O b is real for any b, so its imaginary part is rounding in the
        # sum over m, n, bounded by a small multiple of eps Sum |b_m||b_n||O_mn|;
        # |b_n| = |a_n| for b_n(t) and the probe alike makes that scale the same
        # for each, and |O_mn| = |R_mn| exactly for O = i R
        scales += [mags[span] @ (np.abs(R, out=R) @ mags) for R in rows]
        rows.clear()


def _series(exp: EigenExpansion, table: MatrixElementTable, ids: tuple[str, ...],
            times, *, theta: Theta | None = None) -> list[NDArray[np.float64]]:
    """Each series id over a time array, by the residue fold or from one
    evolved block per time chunk.

    Every form the ids need, <O>_t = Sum_mn b_m* O_mn b_n for O in
    {x, x2, p} with b_n(t) = a_n exp(-i E_n t / hbar), comes from one of two
    paths, which the cost rule (takes_fold) picks.  <p^2> = Sum |a_n|^2 p_n^2
    is constant in time and needs neither.  ``theta``, the exact times / T,
    makes the phases exact.  Both read the forms' rows from one walk of
    row spans (_spans), which also sums each form's rounding scale and its
    Hermiticity probe, checked once per call on either path.  The table
    must be the packet's own (table_for): its window and well, checked
    before any form is read.

    The fold (EigenExpansion.fold), on an exact grid: b_m* b_n carries the
    phase 2 pi (m^2 - n^2) theta.  Each form is Hermitian, so the pair
    (n, m) is the conjugate of (m, n) at the opposite residue, and
    <O> = Sum_n |a_n|^2 O_nn + 2 Re Sum_{m<n} b_m* O_mn b_n: only the pairs
    m < n are binned, at m^2 - n^2 mod q and with twice their weight, in
    row blocks (fold_rows), and the diagonal, constant in time, as an exact
    sum at residue 0.  One FFT gives every sample, and <O> is read from it
    real by construction: its real part, or for p = i R, binned as R, minus
    its imaginary part.  The walk's spans are dropped one after another, so
    the fold holds O(N rows + q), whatever N^2.  A half fold cannot see a
    form that is not Hermitian; the probe of the full rows does.

    The chunks (EigenExpansion.map_chunks): the walk writes each dense real
    form R once per call into an array of the call's own, N^2 doubles a
    form, which the table does not keep.  b is formed once per chunk.  Each
    form is R or i R, so with b = br + i bi it takes two real GEMMs,
    y = br R^T and y = bi R^T, and four row sums: Sum b* R b =
    (br.Rbr + bi.Rbi) + i (br.Rbi - bi.Rbr).  The spent phase block P holds
    y, so a chunk needs P, br and bi: two chunks' bytes.  Each sample's
    imaginary part is checked as well.
    """
    for which in ids:
        if which not in SERIES_IDS:
            raise ValueError(f"unknown series id {which!r}")
    if (table.n_min, table.n_max, table.sys) != (exp.n_min, exp.n_max, exp.sys):
        raise ValueError(
            f"table of levels [{table.n_min}, {table.n_max}] in {table.sys} is not the "
            f"table of the packet's levels [{exp.n_min}, {exp.n_max}] in {exp.sys}")
    t = np.asarray(times, dtype=float).reshape(-1)
    forms = [f for f in ("x", "x2", "p") if any(f in _FORMS[w] for w in ids)]
    scales, probes = np.zeros((2, len(forms)))

    def mean_diagonal(f: str) -> float:
        # Sum |a_n|^2 O_nn, exactly rounded
        return math.fsum((exp.weights * table.diagonal(f)).tolist())

    def assemble(P):
        b = np.multiply(exp.coefficients, P, out=P)
        br, bi = np.ascontiguousarray(b.real), np.ascontiguousarray(b.imag)
        y = P.view(np.float64).reshape(-1)[:br.size].reshape(br.shape)
        out = np.empty((len(forms), br.shape[0]), dtype=complex)
        for k, (f, R) in enumerate(zip(forms, dense)):
            np.matmul(br, R.T, out=y)
            rr, ir = np.einsum("ij,ij->i", br, y), np.einsum("ij,ij->i", bi, y)
            np.matmul(bi, R.T, out=y)
            ri, ii = np.einsum("ij,ij->i", br, y), np.einsum("ij,ij->i", bi, y)
            re, im = rr + ii, ri - ir
            # i (re + i im) = -im + i re for an imaginary form
            out[k].real, out[k].imag = (-im, re) if f == "p" else (re, im)
        return out

    def pairs(q: int):
        # the half fold's blocks.  Each bins the pairs m < n of a row slice
        # s, at m^2 - n^2 mod q, weighted 2 conj(a_m) a_n R_mn for the real
        # form R of each of the F forms: the real parts in rows k, the
        # imaginary parts in rows F + k, each contiguous.  The pairs n <= m
        # of the block's leading square weigh 0, but for the first block's
        # (n_min, n_min) at residue 0: it carries the diagonal
        # Sum |a_n|^2 R_nn, exactly rounded, so that the constant bin holds
        # it within rounding of its pairs however many rows a block holds
        a, n2, F = exp.coefficients, exp.square_residues(q), len(forms)
        diagonal = [mean_diagonal(f) for f in forms]
        # 2 conj(a_m) a_n = Sum_k A[m, k] V[j, k, n], its real part (j = 0)
        # and its imaginary part (j = 1)
        A = 2.0 * a.view(float).reshape(-1, 2)
        V = np.array([[a.real, a.imag], [a.imag, -a.real]])
        lower = np.tri(fold_rows(a.size, q)[0].stop, dtype=bool)
        for span, group, rows in _spans(exp, table, forms, q, scales, probes):
            for s in group:
                c, h = s.start, s.stop - s.start
                r = np.subtract.outer(n2[s], n2[c:])
                np.add(r, q, out=r, where=r < 0)
                w = np.empty((2 * F, h, a.size - c))
                # 2 conj(a_m) a_n in the last form's rows, which it then
                # weighs in place
                ab = w[F - 1::F]
                np.einsum("mk,jkn->jmn", A[s], V[:, :, c:], out=ab)
                np.copyto(ab[:, :, :h], 0.0, where=lower[:h, :h])
                here = slice(c - span.start, s.stop - span.start)
                for k in range(F - 1):
                    np.multiply(rows[k][here, c:], ab[0], out=w[k])
                    np.multiply(rows[k][here, c:], ab[1], out=w[F + k])
                ab *= rows[-1][here, c:]
                if c == 0:
                    w[:F, 0, 0] = diagonal
                yield r, w
                # one block alive at a time: drop it before the next is built
                del r, w, ab

    if not forms:
        vals = {}
    elif takes_fold(t, theta, exp.coefficients.size ** 2):
        raw = exp.fold(pairs(theta.den), theta, len(forms))
        vals = dict(zip(forms, raw.real))
        if "p" in vals:
            # p = i R was binned as R: <p> = Re(i FFT) = -Im FFT, in place
            vals["p"] = np.negative(raw[-1].imag, out=raw[-1].imag)
    else:
        N = exp.coefficients.size
        dense = np.empty((len(forms), N, N))
        for span, _, rows in _spans(exp, table, forms, 0, scales, probes):
            np.stack(rows, out=dense[:, span])
        raw = exp.map_chunks(assemble, t, np.empty((len(forms), t.size), dtype=complex),
                             theta=theta)
        vals = {}
        for f, scale, v in zip(forms, scales, raw):
            _check_residue(f, float(np.max(np.abs(v.imag))) if v.size else 0.0, scale)
            vals[f] = v.real
    for f, probe, scale in zip(forms, probes, scales):
        _check_residue(f, abs(probe), scale)
    if "x" in vals:
        L = exp.sys.width_L
        x = vals["x"]
        out_of_well = np.maximum(-x, x - L)
        if np.any(out_of_well > _WELL_TOL * L):
            raise NumericalConsistencyError(
                f"<x> = {x[np.argmax(out_of_well)]} outside the well")
    if any(w in ("p2", "dp") for w in ids):
        vals["p2"] = np.full(t.size, mean_diagonal("p2"))

    out = []
    for which in ids:
        if which in ("dx", "dp"):
            mean = which[1:]
            out.append(np.sqrt(_variance(vals[mean], vals[mean + "2"], mean)))
        else:
            out.append(vals[which])
    return out


def expectation_series(exp: EigenExpansion, table: MatrixElementTable, which,
                       times, *, theta: Theta | None = None):
    """Vectorized expectation over a time array.

    ``which`` is one id of SERIES_IDS ("dx" and "dp" are the
    uncertainties) or a tuple of them; a tuple returns a tuple of arrays,
    all assembled on one path of the kernel (_series).  ``theta``, the
    exact times / T, makes every phase exact.
    """
    if isinstance(which, str):
        return _series(exp, table, (which,), times, theta=theta)[0]
    return tuple(_series(exp, table, tuple(which), times, theta=theta))


def uncertainty_series(exp: EigenExpansion, table: MatrixElementTable, which: str,
                       times, *, theta: Theta | None = None) -> NDArray[np.float64]:
    """Vectorized uncertainty over a time array.  ``theta``, the exact
    times / T, makes every phase exact."""
    if which not in ("x", "p"):
        raise ValueError(f"uncertainty defined for x or p, got {which!r}")
    return _series(exp, table, ("d" + which,), times, theta=theta)[0]


def sample_series(exp: EigenExpansion, table: MatrixElementTable, which: str,
                  schedule, *, theta: Theta | None = None) -> TimeSeries:
    """One value per schedule point; which in {x, x2, p, p2, dx, dp}.
    ``theta``, the exact schedule / T, makes every phase exact."""
    times = np.asarray(schedule, dtype=float)
    if times.size == 0:
        raise ValueError("empty schedule")
    values = expectation_series(exp, table, which, times, theta=theta)
    return TimeSeries(observable=which, times=times, values=values)
