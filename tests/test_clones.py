"""Fractional revivals of the wave field against its clone sum.

At theta = t/T = p/q (reduced) the box phase exp(-2 pi i n^2 p/q) is
q-periodic in n, so it is a finite Fourier series in n:

    exp(-2 pi i p n^2 / q) = Sum_{k mod q} b_k exp(2 pi i n k / q),
    b_k = (1/q) Sum_{n mod q} exp(-2 pi i (p n^2 + k n) / q),

Gauss sums with b_k = b_{-k} (n -> -n).  Pairing k with -k turns each
exponential into cos(2 pi n k / q), and

    sin(n pi x / L) cos(2 pi n k / q)
        = [sin(n pi (x + 2Lk/q) / L) + sin(n pi (x - 2Lk/q) / L)] / 2,

so that

    psi(x, pT/q) = Sum_{k mod q} b_k psi0(x + 2Lk/q),

psi0 being the t = 0 eigensum at any real x (odd and 2L-periodic): q
clones of the initial packet (Aronstein & Stroud, PRA 55, 4526 (1997)).
The identity is exact for any coefficients and any window.  Apart from
the calls under test, nothing here uses the package's kernels: psi0 is
summed from the coefficients, and the moments of the clone sum are
integrated by Gauss-Legendre.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import (PacketSpec, SpatialGrid, Theta, build_gaussian_packet,
                        compute_timescales, expectation_series,
                        position_wavefunction)
from wellpacket.packet import takes_fold

EPS = np.finfo(float).eps
Q_MAX = 12
# every reduced p/q in [0, 1) with q <= Q_MAX
FRACTIONS = sorted({Fraction(p, q) for q in range(1, Q_MAX + 1) for p in range(q)})
# (n0, dx0, x0): a window clipped near the floor, the golden-file size, the
# default packet, a large-N window of several basis blocks, and one of 509
# levels (field only: its Gauss-Legendre nodes would take seconds)
LADDER = [(12, 0.15, 0.2), (40, 0.1, 0.5), (400, 0.05, 0.3), (1500, 0.01, 0.7),
          (3996, 0.005, 0.55)]
GL_NODES = 40           # Gauss-Legendre nodes per panel


def _psi0(exp, x):
    """The t = 0 eigensum Sum a_n sqrt(2/L) sin(n pi x / L) at real x."""
    L = exp.sys.width_L
    return np.sqrt(2.0 / L) * np.sin(np.outer(x, exp.levels) * (np.pi / L)) @ exp.coefficients


def _gauss_weights(theta: Fraction):
    """The clone shifts k in (-q/2, q/2] and their weights b_k at theta = p/q,
    each exponent reduced mod q in integers before the float exp."""
    p, q = theta.numerator, theta.denominator
    ks = np.arange(-((q - 1) // 2), q // 2 + 1)
    n = np.arange(q)
    r = (p * n ** 2 + ks[:, None] * n) % q
    return ks, np.exp(-2j * np.pi * r / q).sum(axis=1) / q


def _clone_sum(exp, x, theta: Fraction, psi0_at: dict):
    """psi(x, theta T) as Sum_k b_k psi0(x + 2Lk/q), with psi0 on each
    shifted grid computed once per shift k/q and kept in psi0_at."""
    L, q = exp.sys.width_L, theta.denominator
    ks, b = _gauss_weights(theta)
    total = np.zeros(len(x), complex)
    for k, bk in zip(ks.tolist(), b):
        shift = Fraction(k, q)
        if shift not in psi0_at:
            psi0_at[shift] = _psi0(exp, x + 2 * L * k / q)
        total += bk * psi0_at[shift]
    return total, float(np.sum(np.abs(b)))


def _field_bound(exp, weight_sum: float) -> float:
    """Bound on |psi - clone sum| at one point, from eps, n_max and pi.

    A term's argument n pi x / L is rounded three times (with pi itself),
    within 3.5 eps of its size: at most 3.5 eps n_max pi for x in [0, L] on
    the package's side, and for a clone at |x + 2Lk/q| <= 2L, after the
    shift's own rounding, 9 eps n_max pi.  sin, the phase, the coefficient
    product and b_k each add a few eps, and a sum of N <= n_max terms N eps.
    Every term is at most A = sqrt(2/L) Sum |a_n| in size, and Sum |b_k| of
    them are summed on the clone side, so the two sides differ by at most
    (12.5 pi + 3) eps n_max A Sum |b_k| <= 16 pi eps n_max A Sum |b_k|.
    """
    A = math.sqrt(2.0 / exp.sys.width_L) * float(np.sum(np.abs(exp.coefficients)))
    return 16 * math.pi * EPS * int(exp.levels[-1]) * A * weight_sum


def _packet(n0, dx0, x0):
    spec = PacketSpec(n0=n0, x0=x0, dx0=dx0)
    exp = build_gaussian_packet(spec)
    return exp, compute_timescales(exp.sys, spec).T_rev


@pytest.mark.parametrize("n0, dx0, x0", LADDER)
def test_field_at_fractional_revivals_is_the_clone_sum(n0, dx0, x0):
    # every reduced p/q with q <= 12 in one call: the basis is built once, in
    # row blocks, and each phase vector is an exact chunk block, the unit
    # roots of its reduced residues
    exp, T = _packet(n0, dx0, x0)
    grid = SpatialGrid.default(exp.sys, 1001)
    fields = position_wavefunction(exp, grid, [Theta.of([float(th) * T], T, [th])
                                               for th in FRACTIONS])
    psi0_at = {}
    for theta, field in zip(FRACTIONS, fields):
        clones, weight_sum = _clone_sum(exp, grid.points, theta, psi0_at)
        deviation = float(np.max(np.abs(field.amplitudes - clones)))
        assert deviation <= _field_bound(exp, weight_sum), (theta, deviation)
    # the clones carry the packet: at T/2 it is the mirror image of psi0
    half = fields[FRACTIONS.index(Fraction(1, 2))].amplitudes
    assert np.max(np.abs(np.abs(half) - np.abs(_psi0(exp, exp.sys.width_L - grid.points)))) \
        <= _field_bound(exp, 1.0)


def _gauss_legendre(L: float, n_max: int):
    """Composite Gauss-Legendre nodes and weights on [0, L]: a panel per 8
    half-waves of the highest level, so that |psi|^2 (wave numbers up to
    2 n_max pi / L) turns through 8 pi on each of its GL_NODES-node panels."""
    panels = math.ceil(n_max / 8)
    t, w = np.polynomial.legendre.leggauss(GL_NODES)
    edges = np.linspace(0.0, L, panels + 1)
    half = np.diff(edges)[:, None] / 2
    nodes = (edges[:-1, None] + half * (t + 1)).reshape(-1)
    return nodes, (half * w).reshape(-1)


@pytest.mark.parametrize("n0, dx0, x0", LADDER[:4])
def test_moments_at_fractional_revivals_match_the_clone_sum(n0, dx0, x0):
    # <x> and dx of the clone sum, integrated by Gauss-Legendre, against the
    # fold (the grid j/q, j = 0 .. q-1, of each q) and the chunks (each
    # reduced p/q by itself)
    exp, T = _packet(n0, dx0, x0)
    L, n_max, N = exp.sys.width_L, int(exp.levels[-1]), len(exp.levels)
    nodes, weights = _gauss_legendre(L, n_max)
    psi0_at, oracle, bounds = {}, {}, {}
    for theta in FRACTIONS:
        clones, weight_sum = _clone_sum(exp, nodes, theta, psi0_at)
        density = np.abs(clones) ** 2
        x1, x2 = weights @ (nodes * density), weights @ (nodes ** 2 * density)
        oracle[theta] = x1, math.sqrt(x2 - x1 * x1)
        # |d<x^j>| <= L^j (2 sqrt(L) B + L B^2) from the field (||psi|| = 1,
        # Cauchy-Schwarz), plus the rounding of the package's sum of N^2
        # terms |a_m a_n x^j_mn| <= N L^j and of the M-node quadrature
        B = _field_bound(exp, weight_sum)
        err = [L ** j * (2 * math.sqrt(L) * B + L * B * B + (4 * n_max * N + len(nodes)) * EPS)
               for j in (1, 2)]
        bounds[theta] = err[0], (err[1] + 2 * L * err[0]) / oracle[theta][1]

    def check(theta, x_mean, dx):
        want_x, want_dx = oracle[theta]
        tol_x, tol_dx = bounds[theta]
        assert abs(x_mean - want_x) <= tol_x, (theta, x_mean, want_x)
        assert abs(dx - want_dx) <= tol_dx, (theta, dx, want_dx)

    for q in range(1, Q_MAX + 1):
        grid = Theta.progression(np.arange(q) * (T / q), T, Fraction(0), Fraction(1, q))
        assert takes_fold(grid, N * N) == (q > 1)
        x_mean, dx = expectation_series(exp, ("x", "dx"), grid)
        for j in range(q):
            check(Fraction(j, q), float(x_mean[j]), float(dx[j]))
    for theta in FRACTIONS:
        one = Theta.of([float(theta) * T], T, [theta])
        assert not takes_fold(one, N * N)
        x_mean, dx = expectation_series(exp, ("x", "dx"), one)
        check(theta, float(x_mean[0]), float(dx[0]))
