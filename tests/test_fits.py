"""The stroboscopic collapse fits: the batched sampler's contract, the points
each fit uses against a scalar reference loop, the golden fits' magnitudes
against the 40-digit oracle, one float phase formula behind every fit, and
the refusal of an inexact or mismatched theta."""

import math
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import (CollapseFitError, PacketSpec, PowerLawWell, Theta,
                        autocorrelation, autocorrelation_series, build_gaussian_packet,
                        classical_period_powerlaw, compute_timescales, fit_collapse,
                        fit_gaussian_decay, fit_powerlaw_collapse, fit_stroboscopic,
                        gaussian_weights, parse_config, powerlaw_autocorrelation,
                        wkb_energy)
from wellpacket import correlation, packet, powerlaw
from wellpacket.correlation import _MAX_FIT_POINTS

from oracles import mp_correlation
from test_golden import CONFIGS

EPS = np.finfo(float).eps
TAU = 0.25


class Sampler:
    """A made-up |C(n tau)| = values[n - 1] that records the blocks of n it
    is asked for."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.blocks = []

    def __call__(self, ns):
        self.blocks.append(ns.tolist())
        return self.values[ns - 1]


def test_sampler_cuts_at_the_first_value_at_the_threshold():
    # n = 6 reaches the threshold inside the block 4-7, and n = 7 rises
    # above it again: the fit stops at n = 5 all the same
    values = [0.99, 0.98, 0.97, 0.96, 0.95, 0.9, 0.97, 0.99] + [0.5] * 8
    sampler = Sampler(values)
    fit = fit_stroboscopic(sampler, TAU)
    assert sampler.blocks == [[1], [2, 3], [4, 5, 6, 7]]
    assert fit.points_used == 5
    est, resid = fit_gaussian_decay(np.arange(1, 6) * TAU, values[:5])
    assert (fit.T_C_estimate, fit.residual) == (est, resid)


def test_sampler_never_asks_past_the_limit_and_says_when_nothing_falls():
    sampler = Sampler(np.full(_MAX_FIT_POINTS, 0.95))
    with pytest.raises(CollapseFitError) as err:
        fit_stroboscopic(sampler, TAU)
    assert str(err.value) == ("|C(n tau)| stayed above 0.9 for 10000 periods; "
                              "no collapse to fit")
    # blocks that double in length: 14 calls cover n = 1 .. 10000, each once
    assert len(sampler.blocks) == 14
    assert sum(sampler.blocks, []) == list(range(1, _MAX_FIT_POINTS + 1))


@pytest.mark.parametrize("values, used", [([0.95, 0.95, 0.5], 2), ([0.5], 0)])
def test_sampler_refuses_fewer_than_three_points(values, used):
    with pytest.raises(CollapseFitError) as err:
        fit_stroboscopic(Sampler(values + [0.5] * 4), TAU)
    assert str(err.value) == f"only {used} stroboscopic points above |C| = 0.9"


def _counted_powerlaw_calls(monkeypatch):
    """The number of sampler calls each power-law fit makes, in order."""
    calls = []
    fit = powerlaw.fit_stroboscopic

    def counting(magnitude, tau, threshold):
        calls.append(0)

        def counted(ns):
            calls[-1] += 1
            return magnitude(ns)
        return fit(counted, tau, threshold)

    monkeypatch.setattr(powerlaw, "fit_stroboscopic", counting)
    return calls


def test_fit_validation():
    with pytest.raises(CollapseFitError, match="need at least 3 points, got 2"):
        fit_gaussian_decay([TAU, 2 * TAU], [0.9, 0.8])
    for tau in (0.0, -TAU):
        with pytest.raises(ValueError, match="tau must be positive"):
            fit_stroboscopic(Sampler([0.5]), tau)
    with pytest.raises(ValueError, match="fitted collapse time must be positive"):
        correlation.CollapseFit(0.0, 5, 0.0, 0.9)
    with pytest.raises(ValueError, match="fit must use at least 3 points"):
        correlation.CollapseFit(1.0, 2, 0.0, 0.9)


def test_sampler_calls_grow_with_the_log_of_the_periods(monkeypatch):
    calls = _counted_powerlaw_calls(monkeypatch)
    # the oscillator never collapses: 14 calls, where one a period took 10000
    with pytest.raises(CollapseFitError, match="stayed above"):
        fit_powerlaw_collapse(PowerLawWell(k=2.0), 400, 2.0)
    # the powerlaw-half golden fit at k = 2.05 uses 188 points, in 8 calls
    fit = fit_powerlaw_collapse(PowerLawWell(k=2.05, half=True), 80, 2.0)
    assert fit.points_used == 188
    assert calls == [14, 8]


def _scalar_points(magnitude, threshold=0.9):
    """Points above the threshold, one period after another: the reference loop."""
    n = 0
    while n < _MAX_FIT_POINTS and magnitude(n + 1) > threshold:
        n += 1
    return n


def _same_points(fit, reference: int):
    if reference < 3:
        with pytest.raises(CollapseFitError, match=f"only {reference} stroboscopic"):
            fit()
    else:
        assert fit().points_used == reference


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("n0, dx0", [(60, 0.15), (400, 0.05), (2000, 0.03)])
def test_box_fits_use_the_points_of_the_scalar_loop(sys0, n0, dx0, exact):
    spec = PacketSpec(n0=n0, x0=0.5, dx0=dx0)
    exp = build_gaussian_packet(spec, sys0)
    report = compute_timescales(sys0, spec)
    tau, T = report.tau, report.T_rev
    theta = Fraction(1, 2 * n0) if exact else None
    reference = _scalar_points(lambda n: abs(autocorrelation(
        exp, Theta.of([n * tau], T, [None if theta is None else n * theta]))))
    _same_points(lambda: fit_collapse(exp, Theta.of([tau], T, [theta])), reference)


@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("k", [1.0, 1.5, 2.05, 4.0, 8.0, math.inf])
def test_powerlaw_fits_use_the_points_of_the_scalar_loop(k, half):
    well = PowerLawWell(k=k, half=half)
    levels, w = gaussian_weights(80, 2.0, PacketSpec.window_sigmas)
    tau = classical_period_powerlaw(well, 80)
    reference = _scalar_points(
        lambda n: abs(powerlaw_autocorrelation(well, levels, w, [n * tau])[0]))
    _same_points(lambda: fit_powerlaw_collapse(well, 80, 2.0), reference)


@pytest.fixture
def fitted_points(monkeypatch):
    """The (times, magnitudes) of every Gaussian fit made while it is in use."""
    seen = []
    fit = correlation.fit_gaussian_decay

    def keep(times, magnitudes):
        seen.append((np.array(times), np.array(magnitudes)))
        return fit(times, magnitudes)

    monkeypatch.setattr(correlation, "fit_gaussian_decay", keep)
    return seen


def test_golden_fit_points_are_within_four_eps_of_the_oracle(fitted_points):
    # the box at the exact strobes n / (2 n0), the power-law wells at the
    # float strobes n tau; measured at most 1 eps on every point
    cfg = parse_config(CONFIGS["correlate"])
    exp = build_gaussian_packet(cfg.packet, cfg.system)
    theta = Fraction(1, 2 * cfg.packet.n0)
    report = compute_timescales(cfg.system, cfg.packet)
    fit_collapse(exp, Theta.of([report.tau], report.T_rev, [theta]), cfg.correlate.threshold)
    (_, mags), = fitted_points
    assert mags.size == 18
    for n, mag in enumerate(mags, start=1):
        assert abs(mag - abs(mp_correlation(exp.weights, exp.levels, n * theta))) <= 4 * EPS

    used = {}
    for name in ("powerlaw", "powerlaw-half"):
        cfg = parse_config(CONFIGS[name])
        pl = cfg.powerlaw
        levels, w = gaussian_weights(pl.fit_n0, pl.fit_dn, PacketSpec.window_sigmas)
        for k in pl.k_values:
            well = PowerLawWell(k=k, V0=pl.v0, a=pl.a, mass=cfg.system.mass,
                                hbar=cfg.system.hbar, half=pl.half)
            fitted_points.clear()
            try:
                fit_powerlaw_collapse(well, pl.fit_n0, pl.fit_dn)
            except CollapseFitError:
                continue
            (times, mags), = fitted_points
            used[name, k] = mags.size
            E = wkb_energy(well, levels)
            for t, mag in zip(times, mags):
                C = mp_correlation(w, energies=E, t=t, hbar=well.hbar)
                assert abs(mag - abs(C)) <= 4 * EPS, (name, k, t)
    assert used == {("powerlaw", 1.0): 4, ("powerlaw", 4.0): 4,
                    ("powerlaw-half", 1.5): 16, ("powerlaw-half", 2.05): 188,
                    ("powerlaw-half", 8.0): 3}


def test_every_fit_reaches_the_one_float_phase_formula(monkeypatch, default_exp,
                                                        default_report):
    calls = []
    phases = packet.float_phases

    def counted(*args):
        calls.append(args)
        return phases(*args)

    monkeypatch.setattr(packet, "float_phases", counted)
    for run in (lambda: fit_collapse(default_exp, default_report.tau),
                lambda: autocorrelation_series(default_exp, [0.0, 1e-3, 2e-3]),
                lambda: fit_powerlaw_collapse(PowerLawWell(k=4.0), 200, 3.0)):
        calls.clear()
        run()
        assert calls


def test_theta_must_be_exact(default_exp, default_report):
    T, tau = default_report.T_rev, default_report.tau
    with pytest.raises(TypeError, match="float"):
        Theta.of([0.5 * T, 0.5 * T], T, [Fraction(1, 2), 0.5])
    with pytest.raises(TypeError, match="float"):
        autocorrelation(default_exp, Theta.of([0.5 * T], T, [0.5]))
    with pytest.raises(TypeError, match="float"):
        fit_collapse(default_exp, Theta.of([tau], T, [1 / 800]))


def test_fit_collapse_refuses_a_theta_of_another_tau(default_exp, default_report):
    # 1 / 400 is twice the default packet's tau / T = 1 / 800: the period's
    # value is refused as it is built
    T, tau = default_report.T_rev, default_report.tau
    with pytest.raises(ValueError, match="theta"):
        fit_collapse(default_exp, Theta.of([tau], T, [Fraction(1, 400)]))
    exact = fit_collapse(default_exp, Theta.of([tau], T, [Fraction(1, 800)]))
    assert exact.points_used == fit_collapse(default_exp, default_report.tau).points_used
