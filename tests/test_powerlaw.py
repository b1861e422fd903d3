"""WKB spectra of power-law wells against quadrature and limit oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from wellpacket import (CollapseFitError, PowerLawWell,
                        classical_period_powerlaw, collapse_time_powerlaw,
                        fit_powerlaw_collapse, gaussian_weights,
                        powerlaw_autocorrelation, revival_time_powerlaw,
                        wkb_energy)


def test_well_validation():
    with pytest.raises(ValueError):
        PowerLawWell(k=0.0)
    with pytest.raises(ValueError):
        PowerLawWell(k=2.0, V0=-1.0)
    with pytest.raises(ValueError):
        wkb_energy(PowerLawWell(k=2.0), -1)
    with pytest.raises(ValueError):
        wkb_energy(PowerLawWell(k=2.0), 1.5)


def test_harmonic_full_well_exact():
    # V0 = 1, a = 1, m = 1/2 gives omega = 2; WKB is exact at k = 2
    well = PowerLawWell(k=2.0)
    omega = math.sqrt(2.0 * well.V0 / (well.mass * well.a**2))
    for n in (0, 1, 5, 50):
        assert wkb_energy(well, n) == pytest.approx((n + 0.5) * well.hbar * omega,
                                                    abs=1e-12)


def test_harmonic_half_well_exact():
    # wall at the origin keeps only odd oscillator states: (2n + 3/2) hbar omega
    well = PowerLawWell(k=2.0, half=True)
    omega = math.sqrt(2.0 * well.V0 / (well.mass * well.a**2))
    for n in (0, 1, 4, 20):
        assert wkb_energy(well, n) == pytest.approx((2 * n + 1.5) * well.hbar * omega,
                                                    rel=1e-10)


def test_harmonic_isochronous():
    well = PowerLawWell(k=2.0)
    omega = math.sqrt(2.0 * well.V0 / (well.mass * well.a**2))
    for n in (0, 5, 50):
        assert classical_period_powerlaw(well, n) == \
            pytest.approx(2.0 * math.pi / omega, abs=1e-10)
    assert revival_time_powerlaw(well, 10) is None
    assert collapse_time_powerlaw(well, 200, 3.0) is None


def test_box_limit_exact():
    box = PowerLawWell(k=math.inf)
    # full width 2a: E = ((n+1) pi hbar / 2a)^2 / 2m
    for n in (0, 3, 50):
        want = ((n + 1) * math.pi * box.hbar / (2 * box.a)) ** 2 / (2 * box.mass)
        assert wkb_energy(box, n) == pytest.approx(want, rel=1e-14)
    half_box = PowerLawWell(k=math.inf, half=True)
    assert wkb_energy(half_box, 0) == pytest.approx(math.pi**2, rel=1e-14)
    # period and revival carry the square-well forms
    n = 50
    E = wkb_energy(box, n)
    assert classical_period_powerlaw(box, n) == pytest.approx(
        math.pi * box.hbar * (n + 1) / E, rel=1e-14)
    assert revival_time_powerlaw(box, n) == pytest.approx(
        2 * (n + 1) * classical_period_powerlaw(box, n), rel=1e-14)


def test_huge_k_approaches_box():
    # at k = 1e6 the spectrum matches the box up to the soft-wall Maslov
    # shift (n + 1/2 instead of n + 1); correcting for it the agreement
    # is at the 1e-4 level, and the revival time agrees directly
    big = PowerLawWell(k=1e6)
    box = PowerLawWell(k=math.inf)
    n = 50
    shift = ((n + 1.0) / (n + 0.5)) ** 2
    assert wkb_energy(big, n) * shift == pytest.approx(wkb_energy(box, n), rel=1e-3)
    assert revival_time_powerlaw(big, n) == pytest.approx(
        revival_time_powerlaw(box, n), rel=1e-3)
    n = 500
    assert classical_period_powerlaw(big, n) == pytest.approx(
        classical_period_powerlaw(box, n), rel=2e-3)


def _action_residual(well: PowerLawWell, n: int) -> float:
    # Bohr-Sommerfeld: the traversal integral of p = sqrt(2m(E - V))
    # between turning points must equal (n + mu) pi hbar
    E = wkb_energy(well, n)
    xt = well.a * (E / well.V0) ** (1.0 / well.k)
    I = quad(lambda u: math.sqrt(max(0.0, 1.0 - u**well.k)), 0.0, 1.0,
             epsabs=1e-14, limit=300)[0]
    S = math.sqrt(2.0 * well.mass * E) * xt * I
    if not well.half:
        S *= 2.0
    return S / (math.pi * well.hbar) - (n + well.maslov_mu)


@pytest.mark.parametrize("k,half,n", [
    (1.0, True, 10), (1.0, False, 10), (4.0, False, 25),
    (0.5, False, 40), (10.0, False, 7), (2.0, False, 3),
])
def test_quantization_action_oracle(k, half, n):
    assert abs(_action_residual(PowerLawWell(k=k, half=half), n)) < 1e-10


def test_bouncer_energy_by_root_finding():
    # invert the quantization condition numerically and compare energies
    well = PowerLawWell(k=1.0, half=True)
    n = 10
    I = quad(lambda u: math.sqrt(max(0.0, 1.0 - u)), 0.0, 1.0, epsabs=1e-14)[0]

    def action(E):
        xt = well.a * E / well.V0
        return math.sqrt(2.0 * well.mass * E) * xt * I - (n + 0.75) * math.pi * well.hbar

    E_wkb = wkb_energy(well, n)
    E_root = brentq(action, 0.5 * E_wkb, 2.0 * E_wkb, xtol=1e-13, rtol=1e-14)
    assert E_wkb == pytest.approx(E_root, rel=1e-10)


@pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 4.0, 10.0])
def test_period_matches_level_spacing(k):
    # tau = 2 pi hbar / (dE/dn) via central differences
    well = PowerLawWell(k=k)
    for n in (20, 50):
        d1 = (wkb_energy(well, n + 1) - wkb_energy(well, n - 1)) / 2.0
        assert classical_period_powerlaw(well, n) == \
            pytest.approx(2.0 * math.pi * well.hbar / d1, rel=5e-3)


@pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 4.0, 10.0])
def test_revival_matches_level_curvature(k):
    # T_rev = 4 pi hbar / |E''(n)| via second differences, n >= 50
    well = PowerLawWell(k=k)
    for n in (50, 120):
        d2 = wkb_energy(well, n + 1) - 2.0 * wkb_energy(well, n) + \
            wkb_energy(well, n - 1)
        assert revival_time_powerlaw(well, n) == \
            pytest.approx(4.0 * math.pi * well.hbar / abs(d2), rel=5e-3)


def test_bouncer_revival_form():
    well = PowerLawWell(k=1.0, half=True)
    for n in (10, 50, 500):
        tau = classical_period_powerlaw(well, n)
        assert revival_time_powerlaw(well, n) == pytest.approx(
            6.0 * (n + 0.75) * tau, rel=1e-12)
    # the large-n form quoted for the bouncer, 6 n tau, emerges to 0.5%
    n = 500
    tau = classical_period_powerlaw(well, n)
    assert revival_time_powerlaw(well, n) == pytest.approx(6.0 * n * tau, rel=5e-3)


def test_near_harmonic_revival_divergence():
    n = 60
    near = PowerLawWell(k=2.05)
    ref = PowerLawWell(k=3.0)
    t_near = revival_time_powerlaw(near, n)
    t_ref = revival_time_powerlaw(ref, n)
    tau_near = classical_period_powerlaw(near, n)
    assert t_near == pytest.approx(81.0 * 2.0 * (n + 0.5) * tau_near, rel=1e-12)
    assert t_near / (2 * (n + 0.5) * tau_near) > 10 * t_ref / (2 * (n + 0.5) *
                                                               classical_period_powerlaw(ref, n))
    with pytest.raises(ValueError):
        revival_time_powerlaw(near, 0)


def test_spectrum_monotonic():
    for k in (0.5, 2.0, 7.0, 1e4, math.inf):
        well = PowerLawWell(k=k)
        E = [wkb_energy(well, n) for n in range(0, 30)]
        assert np.all(np.diff(E) > 0)


def test_gaussian_weights():
    levels, w = gaussian_weights(200, 3.0, 8.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert levels[np.argmax(w)] == 200
    assert levels[0] == 176 and levels[-1] == 224
    low_levels, low_w = gaussian_weights(2, 3.0, 8.0)
    assert low_levels[0] == 0
    assert low_w.sum() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        gaussian_weights(200, 0.0, 8.0)


def test_powerlaw_autocorrelation_basics():
    well = PowerLawWell(k=4.0)
    levels, w = gaussian_weights(200, 3.0, 8.0)
    assert powerlaw_autocorrelation(well, levels, w, 0.0) == \
        pytest.approx(1.0 + 0.0j, abs=1e-14)
    tau = classical_period_powerlaw(well, 200)
    assert abs(powerlaw_autocorrelation(well, levels, w, tau)) < 1.0
    with pytest.raises(ValueError):
        powerlaw_autocorrelation(well, levels, 2.0 * w, 0.0)


def test_quartic_collapse_fit():
    well = PowerLawWell(k=4.0)
    fit = fit_powerlaw_collapse(well, 200, 3.0)
    closed = collapse_time_powerlaw(well, 200, 3.0)
    assert fit.points_used >= 3
    assert fit.T_C_estimate == pytest.approx(closed, rel=0.15)


def test_near_harmonic_no_collapse():
    # k = 2.05: revivals are ~81x slower than dephasing at k = 3 would
    # suggest; stroboscopically the packet holds |C| > 0.99 for 200 periods
    well = PowerLawWell(k=2.05)
    levels, w = gaussian_weights(400, 2.0, 8.0)
    tau = classical_period_powerlaw(well, 400)
    mags = [abs(powerlaw_autocorrelation(well, levels, w, q * tau))
            for q in range(1, 201)]
    assert min(mags) > 0.99


def test_oscillator_never_collapses():
    # uniform level spacing: every strobe lands on |C| = 1, the sampler
    # exhausts its budget without crossing threshold and must say so
    with pytest.raises(CollapseFitError):
        fit_powerlaw_collapse(PowerLawWell(k=2.0), 400, 2.0)
