"""Independent quadrature oracles used across the test suite.

Everything here is built only from the textbook basis functions and
composite Gauss-Legendre integration, never from the package's closed
forms, so agreement is evidence rather than tautology.  The exceptions are
the last four sections: the closed-form tables evaluated the plain way,
as full N x N arrays, against which the package's structured build is
held bit for bit, and the package's dense forms read back as operators;
direct reference paths for the phase kernel, which take
the closed-form tables (checked against quadrature above) and redo the
time evolution the plain way, one full T x N block at a time; a 40-digit
mpmath evaluation of the moments at exact times, and a long-double one
fast enough for N in the hundreds; and 40-digit correlations over the box
and over any spectrum.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def gl_integrate(f, a: float, b: float, panels: int, order: int = 12):
    """Composite Gauss-Legendre integral of a vectorized callable."""
    xi, wi = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    # nodes laid out panel-major; strictly increasing across the whole range
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return np.sum(f(x) * w, axis=-1)


def gl_points(a: float, b: float, panels: int, order: int = 12):
    """The node/weight arrays of gl_integrate, for integrating sampled data."""
    xi, wi = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return x, w


def basis_x(n: int, x, L: float = 1.0):
    """Box eigenfunction sqrt(2/L) sin(n pi x / L), zero outside the well."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= L)
    return np.where(inside, np.sqrt(2.0 / L) * np.sin(n * np.pi * x / L), 0.0)


def _panels_for(n: int, extra: float = 0.0) -> int:
    # a few panels per half-oscillation of the fastest factor
    return max(32, int(2 * (n + extra)) + 16)


def overlap_quad(m: int, n: int, L: float = 1.0) -> float:
    f = lambda x: basis_x(m, x, L) * basis_x(n, x, L)
    return float(gl_integrate(f, 0.0, L, _panels_for(max(m, n))))


def x_power_quad(m: int, n: int, power: int, L: float = 1.0) -> float:
    """<m| x^power |n> by quadrature."""
    f = lambda x: basis_x(m, x, L) * x**power * basis_x(n, x, L)
    return float(gl_integrate(f, 0.0, L, _panels_for(max(m, n))))


def p_quad(m: int, n: int, L: float = 1.0, hbar: float = 1.0) -> complex:
    """<m| p |n> = -i hbar Integral u_m u_n' by quadrature."""
    kn = n * np.pi / L
    f = lambda x: basis_x(m, x, L) * np.sqrt(2.0 / L) * kn * np.cos(kn * x)
    return -1j * hbar * gl_integrate(f, 0.0, L, _panels_for(max(m, n)))


def p2_quad(m: int, n: int, L: float = 1.0, hbar: float = 1.0) -> float:
    """<m| p^2 |n>; -hbar^2 u_n'' = (n pi hbar / L)^2 u_n exactly."""
    return (n * np.pi * hbar / L) ** 2 * overlap_quad(m, n, L)


def momentum_amplitude_quad(n: int, p: float, L: float = 1.0,
                            hbar: float = 1.0) -> complex:
    """phi_n(p) = (2 pi hbar)^(-1/2) Integral u_n(x) exp(-i p x / hbar) dx."""
    f = lambda x: basis_x(n, x, L) * np.exp(-1j * p * x / hbar)
    panels = _panels_for(n, extra=abs(p) * L / (math.pi * hbar))
    return complex(gl_integrate(f, 0.0, L, panels) / math.sqrt(2.0 * math.pi * hbar))


# --- the closed-form tables, entry by entry as N x N formulas ------------

def dense_matrix_elements(n_min: int, n_max: int, L: float = 1.0, hbar: float = 1.0):
    """(x, x2, p, p2) over [n_min, n_max] from full N x N arrays of m, n,
    m - n and m + n: the plain evaluation of the closed forms whose
    rounding build_matrix_elements reproduces from 1-D kernels."""
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

    p2 = np.diag((ns * np.pi * hbar / L) ** 2)
    return x, x2, p, p2


def operator_block(table, which: str) -> np.ndarray:
    """<m|O|n> as the full N x N operator from the table's two readers: x
    and x2, and i times the real p form, as their dense forms, all rows at
    once (MatrixElementTable.rows(f, slice(None))), and the diagonal
    matrix of the p2 vector (MatrixElementTable.diagonal)."""
    if which == "p2":
        return np.diag(table.diagonal("p2"))
    M = table.rows(which, slice(None))
    return 1j * M if which == "p" else M


# --- direct reference paths for the phase kernel -------------------------

def dense_expectation(exp, table_block, times) -> np.ndarray:
    """Sum_mn b_m* O_mn b_n over all times from one full T x N evolved block.

    The dense per-form path: ``table_block`` is the form's dense table over
    the expansion's window (MatrixElementTable.rows(f, slice(None))).
    Returns the complex values, imaginary rounding residue included.
    """
    t = np.asarray(times, dtype=float)
    U = exp.coefficients[None, :] * np.exp(
        -1j * np.outer(t, exp.energies) / exp.sys.hbar)
    return np.sum(U.conj() * (U @ table_block.T), axis=1)


def direct_correlation(exp, times, mirror: bool = False) -> np.ndarray:
    """C(t) = Sum |a_n|^2 exp(i E_n t / hbar), or C-bar(t) with the
    mirror sign (-1)^(n+1), summed level by level at each time."""
    w = np.abs(exp.coefficients) ** 2
    if mirror:
        w = w * np.array([(-1.0) ** (n + 1) for n in range(exp.n_min, exp.n_min + w.size)])
    return np.array([np.sum(w * np.exp(1j * exp.energies * t / exp.sys.hbar))
                     for t in np.asarray(times, dtype=float)])


# --- 40-digit reference moments at exact times ---------------------------

def mp_moments(exp, theta, dps: int = 40) -> dict[str, float]:
    """<x>, <x^2>, Delta x, <p>, Delta p, |C| and |C-bar| at t = theta T, in mpmath.

    ``theta`` is an exact fraction of the revival time T.  Energies, T and
    the phases exp(-i E_n t / hbar) are evaluated at ``dps`` digits, and the
    x, x^2 and p matrix elements from their textbook closed forms; only the
    coefficients a_n come from the package, taken as their exact binary
    values.  Even at E_n t / hbar ~ 1e12 rad the phases keep more than 25
    digits, so each result is the correctly rounded double of the exact
    value for these coefficients.
    """
    with mpmath.workdps(dps):
        pi, sys = mpmath.pi, exp.sys
        m, hbar, L = (mpmath.mpf(v) for v in (sys.mass, sys.hbar, sys.width_L))
        theta = Fraction(theta)
        t = 4 * m * L**2 / (hbar * pi) * theta.numerator / theta.denominator
        ns = range(exp.n_min, exp.n_max + 1)
        a = [mpmath.mpc(complex(c)) for c in exp.coefficients]
        b = [an * mpmath.expj(-((n * pi * hbar / L) ** 2 / (2 * m)) * t / hbar)
             for an, n in zip(a, ns)]

        def x(i, j):
            if i == j:
                return L / 2
            return -(2 * L / pi**2) * (mpmath.mpf(1) / (i - j) ** 2
                                       - mpmath.mpf(1) / (i + j) ** 2) if (i + j) % 2 else 0

        def x2(i, j):
            if i == j:
                return L**2 * (mpmath.mpf(1) / 3 - 1 / (2 * i**2 * pi**2))
            return (2 * L**2 / pi**2) * (-1) ** (i + j) * (mpmath.mpf(1) / (i - j) ** 2
                                                           - mpmath.mpf(1) / (i + j) ** 2)

        def p(i, j):
            return -4j * hbar / L * i * j / mpmath.mpf(i * i - j * j) if (i + j) % 2 else 0

        def form(O):
            return mpmath.re(mpmath.fsum(mpmath.conj(bm) * mpmath.fsum(O(i, j) * bn
                                                                       for j, bn in zip(ns, b))
                                         for i, bm in zip(ns, b)))

        mean, second = form(x), form(x2)
        p_mean = form(p)
        w = [abs(an) ** 2 for an in a]
        p_second = mpmath.fsum(wn * (n * pi * hbar / L) ** 2 for n, wn in zip(ns, w))
        C = mpmath.fsum(wn * mpmath.conj(bn / an) for wn, bn, an in zip(w, b, a))
        Cbar = mpmath.fsum((-1) ** (n + 1) * wn * mpmath.conj(bn / an)
                           for n, wn, bn, an in zip(ns, w, b, a))
        return {"x": float(mean), "x2": float(second), "dx": float(mpmath.sqrt(second - mean**2)),
                "p": float(p_mean), "dp": float(mpmath.sqrt(p_second - p_mean**2)),
                "absC": float(abs(C)), "absCbar": float(abs(Cbar))}


# --- long-double reference moments at exact times ------------------------

# pi to the precision of np.longdouble, parsed from its decimal digits
_PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def ld_moments(exp, theta, rows: int = 32) -> dict[str, np.longdouble]:
    """<x>, <x^2> and <p> at t = theta T in np.longdouble.

    The same closed forms as mp_moments, evaluated a block of ``rows`` rows
    at a time: each row's products O_mn b_n summed pairwise (np.sum), then
    the rows' conj(b_m)-weighted sums, pairwise too.  The phase of level n
    is exp(-2 pi i r / q) at the exact residue r = n^2 p mod q of
    theta = p / q, reduced in Python ints and centred in (-q/2, q/2]; the
    coefficients are taken as their exact binary values.  Where long
    double is the x87 80-bit format (eps 2^-63) its rounding lies about
    2000 times below a double's, so the values are the reference for the
    double paths' eps-of-scale bound; as a plain double it would check
    nothing, which the assertion below refuses.  About 0.06 s a sample at
    N = 509, where mp_moments takes 17 s.
    """
    assert np.finfo(np.longdouble).eps <= 2.0**-63, "long double is no wider than a double"
    theta = Fraction(theta)
    p, q = theta.numerator, theta.denominator
    levels = exp.levels.tolist()
    r = np.array([(n * n * p + (q - 1) // 2) % q - (q - 1) // 2 for n in levels],
                 dtype=np.longdouble)
    angle = (-2 * _PI_LD / q) * r
    b = exp.coefficients.astype(np.clongdouble) * (np.cos(angle) + 1j * np.sin(angle))
    L, hbar = np.longdouble(exp.sys.width_L), np.longdouble(exp.sys.hbar)
    ns = np.array(levels, dtype=np.longdouble)
    parts = {"x": [], "x2": [], "p": []}
    for start in range(0, len(levels), rows):
        m, n = ns[start:start + rows, None], ns[None, :]
        d, s = m - n, m + n
        odd = (s % 2 == 1)
        off = d != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            bracket = np.where(off, 1 / d**2 - 1 / s**2, 0)
            ratio = np.where(odd, m * n / (m * m - n * n), 0)
        x = np.where(odd, -(2 * L / _PI_LD**2) * bracket, 0)
        x2 = np.where(odd, -1, 1) * (2 * L**2 / _PI_LD**2) * bracket
        # one diagonal entry a row, m = n, in row order
        diag, nd = np.flatnonzero(~off.reshape(-1)), ns[start:start + rows]
        x.reshape(-1)[diag] = L / 2
        x2.reshape(-1)[diag] = L**2 * (1 / np.longdouble(3) - 1 / (2 * nd**2 * _PI_LD**2))
        # p_mn = -(4 i hbar / L) m n / (m^2 - n^2) at odd m + n
        p = -(4j * hbar / L) * ratio
        bm = np.conj(b[start:start + rows])
        for key, O in (("x", x), ("x2", x2), ("p", p)):
            parts[key].append(bm * np.sum(O * b, axis=1))
    return {key: np.sum(np.concatenate(v)).real for key, v in parts.items()}


# --- 40-digit reference correlations -------------------------------------

def mp_correlation(weights, levels=None, theta=None, energies=None, t=None,
                   hbar: float = 1.0, dps: int = 40) -> complex:
    """C = Sum_n w_n exp(i phi_n) in mpmath, the weights taken as their exact
    binary values.

    For a box packet give ``levels`` and the exact ``theta`` = t / T: phi_n
    is the exact box phase 2 pi (n^2 theta mod 1).  For any other spectrum
    give the float ``energies`` and time ``t``: phi_n is the double fl(E_n t)
    / hbar that the float kernel forms, whose rounding (eps E_n t / hbar) is
    the float path's stated error, so that the exponentials and the sum are
    what is checked.  Either way the result is the correctly rounded C for
    these phases.
    """
    with mpmath.workdps(dps):
        w = [mpmath.mpf(float(v)) for v in weights]
        if theta is None:
            phases = [mpmath.mpf(float(phi)) for phi in np.multiply(t, energies) / hbar]
        else:
            phases = []
            for n in levels:
                r = int(n) ** 2 * Fraction(theta) % 1
                phases.append(2 * mpmath.pi * r.numerator / r.denominator)
        C = mpmath.fsum(wn * mpmath.expj(phi) for wn, phi in zip(w, phases))
        return complex(C)


# --- 40-digit closed forms ------------------------------------------------

def mp_wkb(k: float, n: int, V0: float = 1.0, a: float = 1.0, mass: float = 0.5,
           hbar: float = 1.0, half: bool = False, dps: int = 40):
    """(E_n, tau_n, T_rev) of the WKB spectrum of V0 |x/a|^k in mpmath, from
    the closed forms of powerlaw.wkb_energy, classical_period_powerlaw and
    revival_time_powerlaw with every parameter taken as its exact binary
    value; k = math.inf is the box of width 2a (a when half).  T_rev is
    None at k = 2."""
    with mpmath.workdps(dps):
        pi = mpmath.pi
        V0, a, m, hbar = (mpmath.mpf(v) for v in (V0, a, mass, hbar))
        if math.isinf(k):
            width = a if half else 2 * a
            E = ((n + 1) * pi * hbar / width) ** 2 / (2 * m)
            tau = pi * hbar * (n + 1) / E
            return E, tau, 2 * (n + 1) * tau
        k = mpmath.mpf(k)
        mu = mpmath.mpf(0.75 if half else 0.5)
        pref = hbar * pi / ((a if half else 2 * a) * mpmath.sqrt(2 * m))
        ratio = mpmath.gamma(1 / k + 1.5) / (mpmath.gamma(1 / k + 1) * mpmath.gamma(1.5))
        E = ((n + mu) * pref * V0 ** (1 / k) * ratio) ** (2 * k / (k + 2))
        tau = 2 * pi * hbar * (n + mu) * (2 + k) / (2 * k) / E
        T_rev = None if k == 2 else abs((k + 2) / (k - 2)) * 2 * (n + mu) * tau
        return E, tau, T_rev


def mp_timescales(n0: int, dx0: float, mass: float = 0.5, hbar: float = 1.0,
                  L: float = 1.0, dps: int = 40) -> dict:
    """The closed-form report of timescales.compute_timescales in mpmath, the
    packet given by its width dx0, every parameter its exact binary value."""
    with mpmath.workdps(dps):
        pi = mpmath.pi
        dx0, m, hbar, L = (mpmath.mpf(v) for v in (dx0, mass, hbar, L))
        T_rev = 4 * m * L**2 / (pi * hbar)
        dn = hbar / (2 * dx0) * L / (pi * hbar)        # dp L / (pi hbar), dp = hbar / (2 dx0)
        return {"tau": 2 * L / (n0 * pi * hbar / (m * L)), "T_rev": T_rev,
                "t0": 2 * m * dx0**2 / hbar, "T_C": T_rev / (2 * pi * dn**2),
                "t_flat": 8 / mpmath.sqrt(12) * m * L * dx0 / hbar}
