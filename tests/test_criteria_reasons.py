"""The physics behind the two acceptance criteria that fail by design.

Criteria 5 and 7 (tests/test_acceptance.py) fail for reasons the README
states.  These tests hold those reasons, so that a change which moves
either value shows up here, while the acceptance tests stay as stated.
"""

import math
from fractions import Fraction

import numpy as np

from wellpacket import (MomentumGrid, PacketSpec, Theta, build_gaussian_packet,
                        compute_timescales, detect_flattening, expectation_series,
                        momentum_wavefunction, probability_density, sample_series)


def test_c05_momentum_mean_is_the_lobe_imbalance(default_exp, default_report, sys0):
    # At 124 tau (theta = 31/200) the position density is flat, but the
    # momentum density's lobes at +-p0 carry unequal weight w+ and w-.  The
    # two-lobe model gives <p> = p0 (w+ - w-) instead of 0: the exact <p>
    # matches it to 4.6e-6 of p0, within the weight the grid misses (5.7e-5),
    # and w+ - w- = 0.152 lies far above criterion 5's 1e-2
    theta = Fraction(31, 200)
    t = float(theta) * default_report.T_rev
    p0 = default_exp.spec.n0 * math.pi * sys0.hbar / sys0.width_L
    at = Theta.of([t], default_report.T_rev, [theta])
    p = expectation_series(default_exp, "p", at)[0]

    grid = MomentumGrid.default(sys0, default_exp.spec.n0, 2.0, 1.0)
    rho = probability_density(momentum_wavefunction(default_exp, grid, at)[0])
    P = grid.points
    plus, minus = P >= 0, P <= 0
    w_plus, w_minus = np.trapezoid(rho[plus], P[plus]), np.trapezoid(rho[minus], P[minus])
    missing = 1.0 - np.trapezoid(rho, P)
    assert 0.0 < missing < 1e-4
    assert abs(p / p0 - (w_plus - w_minus)) <= missing
    assert w_plus - w_minus > 0.1
    # the lobes' peak heights differ as much (README: ratio about 2.3)
    assert rho[P > 0].max() > 2.0 * rho[P < 0].max()


def test_c07_saturation_is_near_twice_the_envelope_crossing(sys0):
    # The free envelope dx0 sqrt(1 + (t/t0)^2) crosses L/sqrt 12 at
    # t_flat/4 sqrt(1 - 12 dx0^2 / L^2), which is t_flat/4 for dx0 << L.  The
    # detector's t* sits near twice that crossing (0.94 to 0.96 of it over
    # the three widths criterion 7 uses), so t* is about t_flat/2 and falls
    # below the criterion's band [1.2, 3.0] t_flat
    L = sys0.width_L
    for dx0 in (0.025, 0.05, 0.10):
        spec = PacketSpec(n0=400, x0=0.5, dx0=dx0)
        rep = compute_timescales(sys0, spec)
        crossing = rep.t0 * math.sqrt(L**2 / (12.0 * dx0**2) - 1.0)
        assert math.isclose(crossing, rep.t_flat / 4 * math.sqrt(1.0 - 12.0 * dx0**2 / L**2),
                            rel_tol=1e-12)
        exp = build_gaussian_packet(spec, sys0)
        times = np.arange(0.0, 150.0 * rep.tau, 0.25 * rep.tau)
        series = sample_series(exp, "dx", times)
        t_star = detect_flattening(series, sys0, epsilon=0.05, hold=10)
        assert 0.85 <= t_star / (2.0 * crossing) <= 1.15, dx0
        assert t_star / rep.t_flat < 0.6, dx0
