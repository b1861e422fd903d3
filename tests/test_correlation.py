"""Autocorrelation, mirror correlation, collapse fits, revival scan."""

import math

import numpy as np
import pytest

from wellpacket import (DEFAULT_FIT_THRESHOLD, CollapseFitError, PacketSpec,
                        SpatialGrid, WellSystem, autocorrelation,
                        autocorrelation_series, build_gaussian_packet,
                        compute_timescales, fit_collapse, fit_gaussian_decay,
                        mirror_correlation_series, nearest_fraction,
                        position_wavefunction, revival_scan)

from oracles import gl_points

TAU = 2.0 / (800.0 * math.pi)
T_REV = 2.0 / math.pi
T_C = 0.01


def test_autocorrelation_at_zero(default_exp):
    assert autocorrelation(default_exp, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_exact_revival(default_exp):
    assert abs(autocorrelation(default_exp, T_REV)) == pytest.approx(1.0, abs=1e-12)


def test_half_revival_mirror_overlap(default_exp):
    assert abs(mirror_correlation_series(default_exp, [T_REV / 2.0])[0]) == \
        pytest.approx(1.0, abs=1e-10)
    # at t = 0 the packet is orthogonal to its mirror (reversed momentum)
    assert abs(mirror_correlation_series(default_exp, [0.0])[0]) < 1e-6


def test_symmetry_and_periodicity(default_exp, rng):
    for t in rng.uniform(0.0, T_REV, 10):
        c = autocorrelation(default_exp, float(t))
        assert autocorrelation(default_exp, -float(t)) == pytest.approx(c.conjugate(),
                                                                      abs=1e-12)
        # C(t + T) = C(t); rounding of the 2 pi n^2 phase advance leaves
        # a few 1e-11 of drift, so this is looser than the |C(T)| check
        assert autocorrelation(default_exp, float(t) + T_REV) == pytest.approx(c, abs=1e-9)
        assert abs(c) <= 1.0 + 1e-12


def test_stroboscopic_magnitude_law(default_exp):
    # at multiples of tau the coherent sum collapses onto the dephasing
    # envelope (1 + 4 s^2)^(-1/4), s = t / T_C; this is essentially exact
    # until the wings of the level window matter
    ns = np.arange(1, 13)
    mags = np.abs(autocorrelation_series(default_exp, ns * TAU))
    law = (1.0 + 4.0 * (ns * TAU / T_C) ** 2) ** -0.25
    assert np.max(np.abs(mags / law - 1.0)) < 1e-10


def test_gaussian_law_small_time_only(default_exp):
    # the quadratic expansion exp(-s^2) tracks the envelope only while
    # s is small; by n = 12 it is off by tens of percent
    ns = np.arange(1, 7)
    mags = np.abs(autocorrelation_series(default_exp, ns * TAU))
    gauss = np.exp(-((ns * TAU / T_C) ** 2))
    assert np.max(np.abs(mags / gauss - 1.0)) < 0.10
    n12 = abs(autocorrelation(default_exp, 12 * TAU))
    assert abs(n12 / math.exp(-((12 * TAU / T_C) ** 2)) - 1.0) > 0.3


def test_mirror_correlation_against_quadrature(default_exp, sys0):
    # closed form vs direct overlap integral of the mirrored initial state
    # with the evolved one, on Gauss-Legendre nodes
    L = sys0.width_L
    nodes, weights = gl_points(0.0, L, panels=900, order=10)
    grid = SpatialGrid(nodes)
    psi0 = position_wavefunction(default_exp, grid, 0.0).amplitudes
    # the node set is symmetric about L/2, so psi0(L - x) is the reversal
    mirrored = psi0[::-1]
    for t in (0.0, 124 * TAU, T_REV / 2.0, 0.37 * T_REV):
        # convention: correlations are <psi(t)|target>, conjugate on the
        # evolved state
        psit = position_wavefunction(default_exp, grid, t).amplitudes
        overlap = np.sum(weights * np.conj(psit) * mirrored)
        assert mirror_correlation_series(default_exp, [t])[0] == \
            pytest.approx(overlap, abs=1e-6)


def test_fit_gaussian_decay_synthetic():
    t_true = 0.0123
    ts = np.linspace(1e-4, 0.004, 15)
    mags = np.exp(-((ts / t_true) ** 2))
    est, resid = fit_gaussian_decay(ts, mags)
    assert est == pytest.approx(t_true, rel=1e-6)
    assert resid < 1e-12


def test_fit_collapse_default_packet(default_exp):
    fit = fit_collapse(default_exp, TAU)
    assert fit.threshold == DEFAULT_FIT_THRESHOLD == 0.9
    assert fit.points_used >= 3
    assert fit.T_C_estimate == pytest.approx(T_C, rel=0.10)


def test_fit_collapse_quadratic_scaling(sys0):
    wide = build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.10), sys0)
    fit = fit_collapse(wide, TAU)
    base = fit_collapse(build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.05),
                                              sys0), TAU)
    assert fit.T_C_estimate / base.T_C_estimate == pytest.approx(4.0, rel=0.15)


def test_fit_collapse_random_packets(sys0, rng):
    # any packet with enough stroboscopic points above threshold fits its
    # closed-form T_C; at least 3 points requires 4 pi n0 dx0^2 >= 8.3
    accepted = 0
    while accepted < 20:
        n0 = int(rng.integers(220, 701))
        dx0 = float(rng.uniform(0.02, 0.09))
        if 4.0 * math.pi * n0 * dx0**2 < 8.3:
            continue
        spec = PacketSpec(n0=n0, x0=0.5, dx0=dx0)
        exp = build_gaussian_packet(spec, sys0)
        rep = compute_timescales(sys0, spec)
        fit = fit_collapse(exp, rep.tau)
        assert fit.T_C_estimate == pytest.approx(rep.T_C, rel=0.15)
        accepted += 1


def test_fit_collapse_too_few_points(sys0):
    # a short-T_C packet drops below threshold after < 3 strobe points
    exp = build_gaussian_packet(PacketSpec(n0=100, x0=0.5, dx0=0.02), sys0)
    rep = compute_timescales(sys0, PacketSpec(n0=100, x0=0.5, dx0=0.02))
    with pytest.raises(CollapseFitError):
        fit_collapse(exp, rep.tau)


def test_fit_threshold_validation(default_exp):
    with pytest.raises(ValueError):
        fit_collapse(default_exp, TAU, threshold=1.5)
    with pytest.raises(ValueError):
        fit_collapse(default_exp, TAU, threshold=0.0)


def test_revival_scan_landmarks(default_exp):
    peaks = revival_scan(default_exp, (0.0, T_REV), 0.25 * TAU, 0.3)
    by_time = {round(p.time / TAU, 2): p for p in peaks}

    full = by_time[800.0]
    assert full.height == pytest.approx(1.0, abs=1e-9)
    assert full.channel == "C"
    assert full.fraction == (1, 1)

    half = by_time[400.0]
    assert half.height == pytest.approx(1.0, abs=1e-9)
    assert half.channel == "Cbar"
    assert half.fraction == (1, 2)

    quarter = by_time[200.0]
    assert quarter.height == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)
    assert quarter.fraction == (1, 4)


def test_revival_scan_min_height(default_exp):
    peaks = revival_scan(default_exp, (0.45 * T_REV, 0.55 * T_REV), 0.25 * TAU,
                         min_height=0.9)
    assert all(p.height >= 0.9 for p in peaks)
    assert any(p.fraction == (1, 2) for p in peaks)


def test_revival_scan_window_validation(default_exp):
    with pytest.raises(ValueError):
        revival_scan(default_exp, (-0.1, 0.5 * T_REV), 0.25 * TAU, 0.3)
    with pytest.raises(ValueError):
        revival_scan(default_exp, (0.0, 1.5 * T_REV), 0.25 * TAU, 0.3)
    with pytest.raises(ValueError):
        revival_scan(default_exp, (0.5 * T_REV, 0.1 * T_REV), 0.25 * TAU, 0.3)
    with pytest.raises(ValueError, match="resolution"):
        revival_scan(default_exp, (0.0, 0.5 * T_REV), -0.25 * TAU, 0.3)
    # a step past the window leaves the single sample t = 0, which has no
    # neighbor to be a peak against
    with pytest.raises(ValueError, match="two samples"):
        revival_scan(default_exp, (0.0, TAU), 3 * TAU, 0.3)


def test_revival_scan_window_end_slack_scales_with_T(default_exp):
    # 2000 tau rounds 4.7e-10 past T in a well of length 1000: far past an
    # absolute slack of 1e-12, yet a window that ends at T
    big = WellSystem(width_L=1000.0, mass=3.0)
    spec = PacketSpec(n0=1000, x0=500.0, dx0=50.0)
    exp, rep = build_gaussian_packet(spec, big), compute_timescales(big, spec)
    assert 2000 * rep.tau > rep.T_rev
    peaks = revival_scan(exp, (0.0, 2000 * rep.tau), rep.tau / 2, 0.3)
    assert peaks[-1].fraction == (1, 1)
    for well, T in ((exp, rep.T_rev), (default_exp, T_REV)):
        with pytest.raises(ValueError, match="scan_stop"):
            revival_scan(well, (0.0, T * (1 + 1e-9)), T / 1600, 0.3)


def _peaks_by_loop(curve, min_height):
    """The scan's peak rule as a plain loop, the reference for its mask."""
    last, out = len(curve) - 1, []
    for i, c in enumerate(curve):
        if c < min_height:
            continue
        if i == 0:
            ok = c > curve[1]
        elif i == last:
            ok = c >= curve[last - 1]
        else:
            ok = curve[i - 1] <= c > curve[i + 1]
        if ok:
            out.append(i)
    return out


def test_revival_scan_peaks_follow_the_loop_rule(default_exp, monkeypatch, rng):
    # coarse random curves, so plateaus, ties and peaks at both edges occur
    import wellpacket.correlation as correlation

    for _ in range(200):
        n = int(rng.integers(2, 30))
        ac, mc = np.round(rng.random((2, n)), 1)
        monkeypatch.setattr(correlation, "_phase_sum", lambda *a, pair=(ac, mc): np.array(pair))
        peaks = revival_scan(default_exp, (0.0, (n - 1) * TAU), TAU, 0.3)
        curve = np.maximum(ac, mc)
        assert [round(p.time / TAU) for p in peaks] == _peaks_by_loop(curve, 0.3)
        for p in peaks:
            i = round(p.time / TAU)
            assert p.channel == ("C" if ac[i] >= mc[i] else "Cbar")


def test_nearest_fraction():
    assert nearest_fraction(0.5) == (1, 2)
    assert nearest_fraction(0.3333) == (1, 3)
    assert nearest_fraction(0.76) == (3, 4)
    assert nearest_fraction(0.0) == (0, 1)
    assert nearest_fraction(1.0) == (1, 1)
    assert nearest_fraction(0.375) == (3, 8)
    # 2/4 is skipped as unreduced, so 1/3 wins under a q <= 4 cap
    assert nearest_fraction(0.375, max_q=4) == (1, 3)


def test_series_forms_match_scalars(default_exp, rng):
    ts = np.sort(rng.uniform(0.0, T_REV, 8))
    cs = autocorrelation_series(default_exp, ts)
    ms = mirror_correlation_series(default_exp, ts)
    for i, t in enumerate(ts):
        assert cs[i] == pytest.approx(autocorrelation(default_exp, float(t)), abs=1e-13)
        assert ms[i] == pytest.approx(mirror_correlation_series(default_exp, [float(t)])[0],
                                      abs=1e-13)


def test_series_pair_matches_the_single_series(default_exp, rng):
    # run_correlate takes C and C-bar from one two-column phase sum
    ts = np.sort(rng.uniform(0.0, T_REV, 50))
    C, Cbar = autocorrelation_series(default_exp, ts, mirror=True)
    assert np.max(np.abs(C - autocorrelation_series(default_exp, ts))) <= 1e-15
    assert np.max(np.abs(Cbar - mirror_correlation_series(default_exp, ts))) <= 1e-15
