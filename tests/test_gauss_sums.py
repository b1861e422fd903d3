"""Fractional revival heights against quadratic Gauss sums.

At t = (p/q) T a box phase is 2 pi n^2 p/q, so

    C(p/q T) = Sum_{r mod q} W_r exp(2 pi i p r^2 / q),  W_r = Sum_{n = r mod q} |a_n|^2.

When the packet spans many more levels than q (dn >> q) every W_r tends
to 1/q, and |C(p/q T)| to |G(p, q)| / q with the Gauss sum
G(p, q) = Sum_{r mod q} exp(2 pi i p r^2 / q), whose modulus for reduced
p/q is sqrt(q) for odd q, 0 for q = 2 mod 4 and sqrt(2q) for q = 0 mod 4.
The mirror sign is a phase of the same kind, (-1)^(n+1) = -exp(2 pi i n^2 / 2),
so C-bar(theta T) = -C((theta + 1/2) T) and its height is that of the
reduced theta + 1/2.  None of this uses the package's kernels.

How far W_r is from flat follows from Poisson summation of the Gaussian
|a_n|^2 of width dn: q |W_r - 1/q| is at most
eps(q) = 2 Sum_{m >= 1} exp(-2 pi^2 m^2 (dn / q)^2), and the renormalised
cut at the window edges moves it by twice the Gaussian mass outside the
window.  So each height is asserted within that bound plus a few eps; at
n0 = 3996, dx0 = 0.005 (dn = 31.8, dn >> q) the Poisson term is below
1e-60 and the bound is rounding and the window cut, while at n0 = 400,
dx0 = 0.05 (dn = 3.2) it is of order 0.1 to 1 and the heights are not yet
the Gauss-sum ones.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import (PacketSpec, Theta, autocorrelation_series,
                        build_gaussian_packet, compute_timescales,
                        mirror_correlation_series, revival_scan)

# Every reduced p/q in [0, 1) with q <= Q_MAX, and their common denominator.
Q_MAX = 12
FRACTIONS = sorted({Fraction(p, q) for q in range(1, Q_MAX + 1) for p in range(q)})
GRID = math.lcm(*range(1, Q_MAX + 1))       # 27720

# Rounding of the phase sums and of sqrt(q) / q, in units of eps.
ROUND_EPS = 8


def gauss_height(theta: Fraction) -> float:
    """|G(p, q)| / q for theta = p/q reduced."""
    q = theta.denominator
    if q % 4 == 2:
        return 0.0
    return math.sqrt(q if q % 2 else 2 * q) / q


def heights(theta: Fraction) -> tuple[float, float]:
    """Gauss-sum limits of |C| and |C-bar| at theta T."""
    return gauss_height(theta), gauss_height(theta + Fraction(1, 2))


def flat_bound(exp, q: int) -> float:
    """Bound on ||C(p/q T)| - |G(p, q)| / q| for this packet (module docstring)."""
    dn = exp.spec.dn_value(exp.sys)
    poisson = 2 * sum(math.exp(-2 * (math.pi * m * dn / q) ** 2) for m in range(1, 64))
    # the Gaussian |a_n|^2 of width dn about n0, summed far past the window
    n = np.arange(math.floor(exp.spec.n0 - 40 * dn), math.ceil(exp.spec.n0 + 40 * dn) + 1)
    g = np.exp(-0.5 * ((n - exp.spec.n0) / dn) ** 2)
    outside = (n < exp.n_min) | (n > exp.n_max)
    cut = float(np.sum(g[outside]) / np.sum(g))
    return poisson + 2 * cut + ROUND_EPS * np.finfo(float).eps


def assert_heights(exp, got_C, got_Cbar, thetas):
    for theta, c, cbar in zip(thetas, got_C, got_Cbar):
        want_C, want_Cbar = heights(theta)
        assert abs(c - want_C) <= flat_bound(exp, theta.denominator), theta
        shifted = (theta + Fraction(1, 2)).denominator
        assert abs(cbar - want_Cbar) <= flat_bound(exp, shifted), theta


@pytest.fixture(scope="module", params=[(3996, 0.005), (400, 0.05)],
                ids=["dn31.8", "dn3.2"])
def packet(request, sys0):
    n0, dx0 = request.param
    spec = PacketSpec(n0=n0, x0=0.3, dx0=dx0)
    return build_gaussian_packet(spec, sys0), compute_timescales(sys0, spec).T_rev


def test_gauss_heights_and_signs():
    assert [gauss_height(Fraction(1, q)) for q in (1, 2, 3, 4)] == \
        pytest.approx([1.0, 0.0, 1 / math.sqrt(3), 1 / math.sqrt(2)], rel=1e-15)
    # the mirror image is whole at T/2 and absent at 0 and T/3
    assert heights(Fraction(1, 2)) == (0.0, 1.0)
    assert heights(Fraction(0))[1] == 0.0 and heights(Fraction(1, 3))[1] == 0.0
    assert len(FRACTIONS) == 46


def test_regimes_are_as_stated(packet):
    exp, _ = packet
    dn = exp.spec.dn_value(exp.sys)
    bounds = [flat_bound(exp, q) for q in range(1, 2 * Q_MAX + 1)]
    if dn > 30:
        # dn >> q: the bound is rounding and the window cut, a few e-15
        assert max(bounds) < 1e-14
    else:
        assert max(bounds) > 0.1


def test_fractional_revivals_at_listed_times(packet):
    exp, T = packet
    times = Theta.of(np.array([float(th) for th in FRACTIONS]) * T, T, FRACTIONS)
    assert_heights(exp, np.abs(autocorrelation_series(exp, times)),
                   np.abs(mirror_correlation_series(exp, times)), FRACTIONS)


def test_fractional_revivals_on_a_dense_grid(packet):
    # [0, T] in steps of T / 27720 holds every p/q with q <= 12 exactly
    exp, T = packet
    times = Theta.progression(np.linspace(0.0, T, GRID + 1), T, 0, Fraction(1, GRID))
    at = [int(th * GRID) for th in FRACTIONS]
    C = np.abs(autocorrelation_series(exp, times))
    Cbar = np.abs(mirror_correlation_series(exp, times))
    assert_heights(exp, C[at], Cbar[at], FRACTIONS)
    assert abs(C[-1] - 1.0) <= flat_bound(exp, 1)


def test_full_scan_peaks_are_gauss_sums(sys0):
    # dn >> q: every fractional revival with q <= 12 tops 1/sqrt(11) > 0.3,
    # is a scan peak on its exact sample, and is annotated when q <= 8
    spec = PacketSpec(n0=3996, x0=0.3, dx0=0.005)
    exp = build_gaussian_packet(spec, sys0)
    T = compute_timescales(sys0, spec).T_rev
    peaks = revival_scan(exp, (0.0, T), T / GRID, 0.3, theta=(0, Fraction(1, GRID)))
    found = {round(p.time / T * GRID): p for p in peaks}
    for theta in FRACTIONS + [Fraction(1)]:
        want_C, want_Cbar = heights(theta)
        q = theta.denominator
        peak = found.get(int(theta * GRID))
        assert peak is not None, theta
        assert math.isclose(peak.time, float(theta) * T, rel_tol=1e-12, abs_tol=1e-15)
        bound = max(flat_bound(exp, q), flat_bound(exp, (theta + Fraction(1, 2)).denominator))
        assert abs(peak.height - max(want_C, want_Cbar)) <= bound, theta
        if q % 4 == 0:
            assert peak.channel in ("C", "Cbar")       # equal heights
        else:
            assert peak.channel == ("C" if q % 2 else "Cbar"), theta
        assert peak.fraction == ((theta.numerator, q) if q <= 8 else None), theta
