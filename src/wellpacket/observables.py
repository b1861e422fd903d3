"""Expectation values and uncertainties from exact matrix elements.

All moments are assembled in the eigenbasis,

    <O>_t = Sum_mn a_m* a_n <m|O|n> exp(i (E_m - E_n) t / hbar),

with closed-form infinite-square-well matrix elements, so there is no grid
truncation or aliasing error.  Grids serve only as an independent
cross-check (see tests).
"""

from __future__ import annotations

import hashlib
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
    """<m|O|n> for O in {x, x^2, p, p^2} over a level window, all real.

    ``x`` and ``x2`` are the N x N tables.  <m|p|n> is purely imaginary, so
    ``p`` holds its imaginary part: <m|p|n> = i p[m, n].  <m|p^2|n> is
    diagonal, so ``p2`` is the vector of p_n^2.
    """

    n_min: int
    n_max: int
    x: NDArray[np.float64]
    x2: NDArray[np.float64]
    p: NDArray[np.float64]
    p2: NDArray[np.float64]

    def covers(self, exp: EigenExpansion) -> bool:
        return self.n_min <= exp.n_min and exp.n_max <= self.n_max

    def block(self, which: str, exp: EigenExpansion) -> NDArray[np.float64]:
        """Sub-table aligned with the expansion's window; for p2, a slice."""
        if which not in OBSERVABLES:
            raise ValueError(f"unknown observable {which!r}")
        if not self.covers(exp):
            raise ValueError(
                f"table window [{self.n_min}, {self.n_max}] does not cover "
                f"expansion window [{exp.n_min}, {exp.n_max}]")
        i = exp.n_min - self.n_min
        j = exp.n_max - self.n_min + 1
        table = getattr(self, which)
        return table[i:j] if which == "p2" else table[i:j, i:j]


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

    Off the diagonal every entry is a function of d = m - n and s = m + n
    (of equal parity), so each table is read from 1-D kernels over d and s
    through read-only strided views, Toeplitz T[i, j] = c[i - j] and Hankel
    H[i, j] = h[i + j], and written into its final array with no N x N
    temporary:

        x     = (2L/pi^2)   (H(g_s) - T(g_d)),  g = 1/d^2 at odd parity, else 0
        x2    = (2L^2/pi^2) (T(+-1/d^2) - H(+-1/s^2)),  sign (-1)^d
        Im p  = ((4 hbar/L) m) n * (1 / (T(e_d) H(s))),  e = -d odd, +inf even

    Each rounds as the plain N x N formulas do, bit for bit: 1/d^2 - 1/s^2
    is an exact negation of 1/s^2 - 1/d^2, and Im p is the numerator times
    the rounded reciprocal of the exact integer n^2 - m^2, as complex
    division rounds.  Even pairs give +0.0 (1/inf).  The p table's
    reciprocals are formed in x2's array before x2 is written.
    """
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    L, hbar = sys.width_L, sys.hbar
    N = n_max - n_min + 1
    ns = np.arange(n_min, n_max + 1, dtype=float)

    # kernel rows over t = 0 .. 2N-2, at d = t - (N-1) (rows 0, 2, 4) and
    # s = 2 n_min + t (rows 1, 3, 5); d is odd where t - N is even
    K = np.empty((6, 2 * N - 1))
    K[4] = np.arange(1 - N, N)
    K[5] = np.arange(2 * n_min, 2 * n_max + 1)
    np.square(K[4:], out=K[:2])
    K[0, N - 1] = 1.0               # d = 0: the diagonal is filled apart
    np.divide(1.0, K[:2], out=K[:2])
    K[2:4] = K[:2]
    K[2, N % 2::2] *= -1.0          # (-1)^d / d^2
    K[3, 1::2] *= -1.0              # (-1)^s / s^2
    K[0, (N - 1) % 2::2] = 0.0      # even d
    K[1, ::2] = 0.0                 # even s
    K[4, (N - 1) % 2::2] = np.inf
    # H[r][i, j] = K[r, i + j].  The d rows are read as T = H[r, ::-1],
    # K[r, N-1 - i + j], the kernel at j - i = n - m: the same as at m - n
    # for the even rows 0 and 2, and e(m - n) = n - m for row 4, which holds d
    H = as_strided(K, (6, N, N), (K.strides[0],) + 2 * K.strides[1:], writeable=False)

    x = np.subtract(H[1], H[0, ::-1])
    x *= 2.0 * L / np.pi**2
    x.reshape(-1)[::N + 1] = L / 2.0

    w = np.multiply(H[4, ::-1], H[5])
    np.divide(1.0, w, out=w)
    p = np.multiply.outer(4.0 * hbar / L * ns, ns)
    p *= w

    x2 = np.subtract(H[2, ::-1], H[3], out=w)
    x2 *= 2.0 * L**2 / np.pi**2
    x2.reshape(-1)[::N + 1] = L**2 * (1.0 / 3.0 - 1.0 / (2.0 * ns**2 * np.pi**2))

    p2 = level_momentum(np.arange(n_min, n_max + 1), sys) ** 2

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
            times, *, theta: Theta | None = None) -> list[NDArray[np.float64]]:
    """Each series id over a time array, by the residue fold or from one
    evolved block per time chunk.

    Every form the ids need, <O>_t = Sum_mn b_m* O_mn b_n for O in
    {x, x2, p} with b_n(t) = a_n exp(-i E_n t / hbar), comes from one of two
    paths, which the cost rule (takes_fold) picks.  <p^2> = Sum |a_n|^2 p_n^2
    is constant in time and needs neither.  ``theta``, the exact times / T,
    makes the phases exact.

    The fold (EigenExpansion.fold), on an exact grid: b_m* b_n carries the
    phase 2 pi (m^2 - n^2) theta, so each form's off-diagonal pairs are
    binned at m^2 - n^2 mod q in row blocks of the table, one FFT gives every
    sample, and the diagonal, constant in time, is added as an exact sum.

    The chunks (EigenExpansion.map_chunks): b is formed once per chunk.
    Each form is R or i R for the real table R (MatrixElementTable), so with
    b = br + i bi it takes two real GEMMs, y = br R^T and y = bi R^T, and four
    row sums: Sum b* R b = (br.Rbr + bi.Rbi) + i (br.Rbi - bi.Rbr).  The spent
    phase block P holds y, so a chunk needs P, br and bi: two chunks' bytes.
    """
    for which in ids:
        if which not in SERIES_IDS:
            raise ValueError(f"unknown series id {which!r}")
    t = np.asarray(times, dtype=float).reshape(-1)
    forms = [f for f in ("x", "x2", "p") if any(f in _FORMS[w] for w in ids)]
    reals = [(f == "p", np.ascontiguousarray(table.block(f, exp))) for f in forms]

    def assemble(P):
        b = np.multiply(exp.coefficients, P, out=P)
        br, bi = np.ascontiguousarray(b.real), np.ascontiguousarray(b.imag)
        y = P.view(np.float64).reshape(-1)[:br.size].reshape(br.shape)
        out = np.empty((len(forms), br.shape[0]), dtype=complex)
        for k, (imaginary, R) in enumerate(reals):
            np.matmul(br, R.T, out=y)
            rr, ir = np.einsum("ij,ij->i", br, y), np.einsum("ij,ij->i", bi, y)
            np.matmul(bi, R.T, out=y)
            ri, ii = np.einsum("ij,ij->i", br, y), np.einsum("ij,ij->i", bi, y)
            re, im = rr + ii, ri - ir
            # i (re + i im) = -im + i re for an imaginary table
            out[k].real, out[k].imag = (-im, re) if imaginary else (re, im)
        return out

    def pairs(q: int):
        # the fold's blocks: conj(a_m) a_n O_mn at residues m^2 - n^2 mod q
        # for m in a row slice, the diagonal m = n left out
        a, n2 = exp.coefficients, exp.square_residues(q)
        for s in fold_rows(a.size, q):
            r = np.subtract.outer(n2[s], n2)
            np.remainder(r, q, out=r)
            ab = np.multiply.outer(a[s].conj(), a)
            i = np.arange(s.stop - s.start)
            ab[i, s.start + i] = 0.0
            w = np.empty((len(forms),) + ab.shape, dtype=complex)
            for k, (imaginary, R) in enumerate(reals):
                np.multiply(ab, R[s], out=w[k])
                if imaginary:
                    w[k] *= 1j
            yield r, w

    if not forms:
        raw = []
    elif takes_fold(t, theta, exp.coefficients.size ** 2):
        raw = exp.fold(pairs(theta.den), theta, len(forms))
        # the diagonal Sum |a_n|^2 O_nn, exactly rounded, keeps the constant
        # bin within rounding of its pairs however many rows a block holds
        raw += np.array([math.fsum(exp.weights * np.diagonal(R)) * (1j if imaginary else 1)
                         for imaginary, R in reals])[:, None]
    else:
        raw = exp.map_chunks(assemble, t, np.empty((len(forms), t.size), dtype=complex),
                             theta=theta)
    mags = np.abs(exp.coefficients)
    vals = {}
    for f, (_, R), v in zip(forms, reals, raw):
        # <O>_t is real, so its imaginary part is rounding in the sum over
        # m, n, bounded by a small multiple of eps Sum |b_m||b_n||O_mn|;
        # |b_n(t)| = |a_n| makes that scale the same at every t, and
        # |O_mn| = |R_mn| exactly for O = i R.
        scale = float(mags @ np.abs(R) @ mags)
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
        vals["p2"] = np.full(t.size, math.fsum(exp.weights * table.block("p2", exp)))

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


def uncertainty(exp: EigenExpansion, table: MatrixElementTable, which: str,
                t: float) -> float:
    """Delta which at time t, sqrt(<O^2> - <O>^2), which in {x, p}."""
    return float(uncertainty_series(exp, table, which, [t])[0])


def uncertainty_series(exp: EigenExpansion, table: MatrixElementTable, which: str,
                       times, *, theta: Theta | None = None) -> NDArray[np.float64]:
    """Vectorized uncertainty over a time array.  ``theta``, the exact
    times / T, makes every phase exact."""
    if which not in ("x", "p"):
        raise ValueError(f"uncertainty defined for x or p, got {which!r}")
    return _series(exp, table, ("d" + which,), times, theta=theta)[0]


def spec_hash(exp: EigenExpansion) -> str:
    """Short stable hash of the packet parameters and window, for metadata."""
    s = exp.spec
    key = (exp.sys.mass, exp.sys.hbar, exp.sys.width_L, exp.n_min, exp.n_max,
           None if s is None else (s.n0, s.x0, s.alpha, s.dx0, s.window_sigmas))
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def sample_series(exp: EigenExpansion, table: MatrixElementTable, which: str,
                  schedule, *, theta: Theta | None = None) -> TimeSeries:
    """One value per schedule point; which in {x, x2, p, p2, dx, dp}.
    ``theta``, the exact schedule / T, makes every phase exact."""
    times = np.asarray(schedule, dtype=float)
    if times.size == 0:
        raise ValueError("empty schedule")
    values = expectation_series(exp, table, which, times, theta=theta)
    meta = {
        "packet": spec_hash(exp),
        "window": [exp.n_min, exp.n_max],
    }
    return TimeSeries(observable=which, times=times, values=values, metadata=meta)
