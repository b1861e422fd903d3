"""Closed-form time scales, the spreading envelope, flattening detection."""

import math

import numpy as np
import pytest

from wellpacket import (PacketSpec, TimeScaleReport, TimeSeries,
                        build_gaussian_packet, compute_timescales,
                        detect_flattening, fit_collapse, flat_momentum_reference,
                        flat_reference, sample_series, spreading_envelope,
                        table_for)


def test_ratio_identities(default_report):
    assert default_report.T_rev / default_report.tau == pytest.approx(800.0, abs=1e-12)
    assert default_report.t0 / default_report.tau == pytest.approx(math.pi, abs=1e-12)
    assert default_report.T_C / default_report.t0 == pytest.approx(4.0, abs=1e-12)


def test_worked_values(default_report):
    assert default_report.tau == pytest.approx(2.0 / (800.0 * math.pi), rel=1e-14)
    assert default_report.T_rev == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert default_report.t0 == pytest.approx(0.0025, rel=1e-14)
    assert default_report.T_C == pytest.approx(0.01, rel=1e-12)
    assert default_report.t_flat == pytest.approx(8.0 * 0.5 * 0.05 / math.sqrt(12.0),
                                                rel=1e-14)
    assert default_report.t_flat == pytest.approx(0.05774, abs=5e-6)
    assert default_report.t_flat_measured is None


def test_spreading_ratio_identity(sys0):
    # t0 / tau = n0 pi (dx0 / L)^2 exactly
    for n0, dx0 in ((400, 0.05), (250, 0.03), (600, 0.08)):
        rep = compute_timescales(sys0, PacketSpec(n0=n0, x0=0.5, dx0=dx0))
        assert rep.t0 / rep.tau == pytest.approx(n0 * math.pi * dx0**2, rel=1e-12)


def test_scalings(sys0):
    base = compute_timescales(sys0, PacketSpec(n0=400, x0=0.5, dx0=0.05))
    faster = compute_timescales(sys0, PacketSpec(n0=800, x0=0.5, dx0=0.05))
    assert faster.tau == pytest.approx(base.tau / 2.0, rel=1e-12)
    assert faster.T_rev == base.T_rev            # revival time is packet-independent
    wider = compute_timescales(sys0, PacketSpec(n0=400, x0=0.5, dx0=0.10))
    assert wider.t0 == pytest.approx(4.0 * base.t0, rel=1e-12)
    assert wider.T_C == pytest.approx(4.0 * base.T_C, rel=1e-12)
    assert wider.t_flat == pytest.approx(2.0 * base.t_flat, rel=1e-12)


def test_hierarchy(default_report):
    r = default_report
    assert r.tau < r.t0 < r.T_C < r.t_flat < r.T_rev


def test_flat_references(sys0, default_spec):
    x_mean, x2_mean, dx = flat_reference(sys0)
    assert x_mean == 0.5
    assert x2_mean == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert dx == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)
    p_mean, dp = flat_momentum_reference(default_spec, sys0)
    assert p_mean == 0.0
    assert dp == pytest.approx(400.0 * math.pi, rel=1e-15)


def test_envelope_values():
    env = spreading_envelope(0.05, 0.0025, [0.0, 0.0025, 0.005])
    assert env[0] == 0.05
    assert env[1] == pytest.approx(0.05 * math.sqrt(2.0), rel=1e-14)
    assert env[2] == pytest.approx(0.05 * math.sqrt(5.0), rel=1e-14)


def test_report_round_trip(default_report):
    d = default_report.to_dict()
    assert TimeScaleReport.from_dict(d) == default_report
    with_measured = TimeScaleReport(**{**d, "t_flat_measured": 0.027})
    assert TimeScaleReport.from_dict(with_measured.to_dict()) == with_measured


def test_report_validation():
    with pytest.raises(ValueError):
        TimeScaleReport(tau=1.0, T_rev=0.5, t0=0.1, T_C=0.4, t_flat=0.2)


def test_detect_flattening_synthetic(sys0):
    flat = 1.0 / math.sqrt(12.0)
    times = np.linspace(0.0, 1.0, 21)
    values = np.full(21, 0.05)
    values[7:] = flat
    # one spurious dip into the band must not trigger the detector
    values[3] = flat
    series = TimeSeries("dx", times, values)
    assert detect_flattening(series, sys0, 0.05, hold=5) == pytest.approx(times[7])
    # a run shorter than hold never fires
    assert detect_flattening(series, sys0, 0.05, hold=15) is None
    rising = TimeSeries("dx", times, np.linspace(0.01, 0.2, 21))
    assert detect_flattening(rising, sys0, 0.05, 10) is None


def test_detect_flattening_matches_the_run_loop(sys0, rng):
    # the detector's window test against the plain run-counting loop
    flat = 1.0 / math.sqrt(12.0)
    for _ in range(300):
        n, hold = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        inside = rng.random(n) < 0.8
        series = TimeSeries("dx", np.arange(n) * 0.1, np.where(inside, flat, 0.05))
        want, run = None, 0
        for i, ok in enumerate(inside):
            run = run + 1 if ok else 0
            if run >= hold:
                want = float(series.times[i - hold + 1])
                break
        assert detect_flattening(series, sys0, 0.05, hold) == want


def test_detect_flattening_requires_dx(sys0):
    series = TimeSeries("x", np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        detect_flattening(series, sys0, 0.05, 10)
    good = TimeSeries("dx", np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        detect_flattening(good, sys0, 0.05, hold=0)


@pytest.fixture(scope="module")
def measured_tstars(sys0):
    out = {}
    for dx0 in (0.025, 0.05, 0.10):
        spec = PacketSpec(n0=400, x0=0.5, dx0=dx0)
        exp = build_gaussian_packet(spec, sys0)
        rep = compute_timescales(sys0, spec)
        times = np.arange(0.0, 480 * rep.tau, 0.25 * rep.tau)
        series = sample_series(exp, table_for(exp), "dx", times)
        out[dx0] = detect_flattening(series, sys0, 0.05, 10)
    return out


def test_measured_flattening_values(measured_tstars, default_report):
    tau = default_report.tau
    assert measured_tstars[0.025] == pytest.approx(17 * tau, rel=0.02)
    assert measured_tstars[0.05] == pytest.approx(34 * tau, rel=0.02)
    assert measured_tstars[0.10] == pytest.approx(65 * tau, rel=0.02)


def test_measured_flattening_scales_linearly(measured_tstars):
    dx0s = sorted(measured_tstars)
    slope = np.polyfit(np.log(dx0s), np.log([measured_tstars[d] for d in dx0s]), 1)[0]
    assert 0.7 < slope < 1.3


def test_measured_flattening_vs_closed_form(measured_tstars, sys0):
    # the detector fires at roughly half the closed form; the closed form
    # is an upper-bound style scale, not the observed saturation time
    for dx0, t_star in measured_tstars.items():
        rep = compute_timescales(sys0, PacketSpec(n0=400, x0=0.5, dx0=dx0))
        assert 0.2 * rep.t_flat < t_star < rep.t_flat


def test_epsilon_monotonicity(sys0, default_exp, default_report):
    times = np.arange(0.0, 480 * default_report.tau, 0.25 * default_report.tau)
    series = sample_series(default_exp, table_for(default_exp), "dx", times)
    stars = [detect_flattening(series, sys0, e, 10) for e in (0.03, 0.05, 0.10)]
    assert all(s is not None for s in stars)
    assert stars[0] >= stars[1] >= stars[2]


def test_fitted_collapse_scales_quadratically(sys0):
    # complementary slope check: fitted T_C vs dx0 on a log-log line of
    # slope 2, since T_C = 4 t0 is quadratic in the width
    dx0s = (0.05, 0.07, 0.10)
    fits = []
    for dx0 in dx0s:
        spec = PacketSpec(n0=400, x0=0.5, dx0=dx0)
        exp = build_gaussian_packet(spec, sys0)
        rep = compute_timescales(sys0, spec)
        fits.append(fit_collapse(exp, rep.tau).T_C_estimate)
    slope = np.polyfit(np.log(dx0s), np.log(fits), 1)[0]
    assert 1.7 < slope < 2.3
