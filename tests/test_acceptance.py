"""End-to-end acceptance gate.

Eleven checks of the shipped behavior at fixed tolerances, each printing
one PASS/FAIL verdict line (collected again in the terminal summary).
Two checks are known to fail and are documented in README.md: the
flat-phase momentum expectation does not vanish at the probed instant
(criterion 5), and the measured flattening time sits at about half the
quoted closed form, below the stated acceptance band (criterion 7).
The checks are kept as stated rather than loosened.
"""

import math

import numpy as np
import pytest

from oracles import (momentum_amplitude_quad, gl_points, operator_block, p2_quad,
                     p_quad, x_power_quad)
from wellpacket import (EigenExpansion, MomentumGrid, PacketSpec,
                        PowerLawWell, SpatialGrid, WellSystem,
                        autocorrelation_series, build_gaussian_packet,
                        build_matrix_elements, classical_period_powerlaw,
                        collapse_time_powerlaw, compute_timescales,
                        detect_flattening, eigenenergy, fit_collapse,
                        fit_powerlaw_collapse, gaussian_weights,
                        mirror_correlation_series, momentum_wavefunction,
                        position_wavefunction, powerlaw_autocorrelation,
                        probability_density, revival_time_powerlaw,
                        sample_series, spreading_envelope, table_for,
                        uncertainty_series, expectation_series, wkb_energy)

P0 = 400.0 * math.pi

ACCEPTANCE_LINES: list[str] = []


def record(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def test_c01_timescale_identities(default_report):
    r = default_report
    d1 = abs(r.T_rev / r.tau - 800.0)
    d2 = abs(r.t0 / r.tau - math.pi)
    ok = d1 <= 1e-12 and d2 <= 1e-12
    assert record(1, ok, f"T/tau-800 = {d1:.1e}, t0/tau-pi = {d2:.1e} (tol 1e-12)")


def test_c02_exact_revival(default_exp, default_report, sys0):
    T = default_report.T_rev
    c_dev = abs(abs(autocorrelation_series(default_exp, [T])[0]) - 1.0)
    grid = SpatialGrid.default(sys0, 2048)
    psi0 = position_wavefunction(default_exp, grid, 0.0).amplitudes
    psiT = position_wavefunction(default_exp, grid, T).amplitudes
    point_dev = float(np.max(np.abs(psiT - psi0)))
    ok = c_dev <= 1e-12 and point_dev <= 1e-9
    assert record(2, ok, f"| |C(T)|-1 | = {c_dev:.1e} (tol 1e-12), "
                         f"max|psi(T)-psi(0)| = {point_dev:.1e} (tol 1e-9)")


def test_c03_half_revival_mirror(default_exp, default_report, sys0):
    Th = default_report.T_rev / 2.0
    cbar_dev = abs(abs(mirror_correlation_series(default_exp, [Th])[0]) - 1.0)

    xg = SpatialGrid.default(sys0, 2048)
    d0 = probability_density(position_wavefunction(default_exp, xg, 0.0))
    dh = probability_density(position_wavefunction(default_exp, xg, Th))
    # the default grid is symmetric about L/2, so L-x is the reversed axis
    x_dev = float(np.max(np.abs(dh - d0[::-1])))

    pg = MomentumGrid.default(sys0, 400, 1.5, 1.0)
    f0 = probability_density(momentum_wavefunction(default_exp, pg, 0.0))
    fh = probability_density(momentum_wavefunction(default_exp, pg, Th))
    p_dev = float(np.max(np.abs(fh - f0[::-1])))

    ok = cbar_dev <= 1e-10 and x_dev <= 1e-9 and p_dev <= 1e-9
    assert record(3, ok, f"| |Cbar(T/2)|-1 | = {cbar_dev:.1e} (tol 1e-10), "
                         f"mirror dev x: {x_dev:.1e}, p: {p_dev:.1e} (tol 1e-9)")


def test_c04_free_gaussian_envelope(default_exp, default_table, default_report):
    r = default_report
    # sample mid-flight: the classical particle crosses the center every
    # half period, maximally far from either wall; j tau/2 <= 3 t0
    ts = np.arange(1, 19) * (r.tau / 2.0)
    assert ts[-1] < 3.0 * r.t0
    dx = uncertainty_series(default_exp, default_table, "x", ts)
    env = spreading_envelope(0.05, r.t0, ts)
    worst = float(np.max(np.abs(dx - env) / env))
    ok = worst <= 0.02
    assert record(4, ok, f"envelope dev over (0, 3 t0): {worst:.2e} (tol 2e-2)")


def test_c05_flat_phase_values(default_exp, default_table, default_report):
    t = 124.0 * default_report.tau
    x = float(expectation_series(default_exp, default_table, "x", [t])[0])
    p = float(expectation_series(default_exp, default_table, "p", [t])[0])
    dx = float(uncertainty_series(default_exp, default_table, "x", [t])[0])
    dp = float(uncertainty_series(default_exp, default_table, "p", [t])[0])
    dx_ok = abs(dx / (1.0 / math.sqrt(12.0)) - 1.0) <= 0.05
    x_ok = abs(x - 0.5) <= 1e-2
    dp_ok = abs(dp / P0 - 1.0) <= 0.05
    p_ok = abs(p) <= 1e-2 * P0
    ok = dx_ok and x_ok and dp_ok and p_ok
    assert record(5, ok,
                  f"dx/(L/sqrt12) = {dx * math.sqrt(12.0):.4f} (tol 5%), "
                  f"<x>-L/2 = {x - 0.5:+.1e} (tol 1e-2), "
                  f"dp/p0 = {dp / P0:.4f} (tol 5%), "
                  f"<p>/p0 = {p / P0:+.4f} (tol 1e-2)")


def test_c06_collapse_scaling(default_exp, default_report, sys0):
    fit1 = fit_collapse(default_exp, default_report.tau)
    d1 = abs(fit1.T_C_estimate / 0.01 - 1.0)
    wide = build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.10), sys0)
    fit2 = fit_collapse(wide, default_report.tau)
    d2 = abs(fit2.T_C_estimate / fit1.T_C_estimate / 4.0 - 1.0)
    ok = d1 <= 0.10 and d2 <= 0.15
    assert record(6, ok, f"T_C fit/4t0 = {fit1.T_C_estimate / 0.01:.4f} (tol 10%), "
                         f"doubling ratio = {fit2.T_C_estimate / fit1.T_C_estimate:.4f} vs 4 (tol 15%)")


def test_c07_flattening_time(sys0):
    widths = (0.025, 0.05, 0.10)
    t_stars = {}
    for dx0 in widths:
        spec = PacketSpec(n0=400, x0=0.5, dx0=dx0)
        exp = build_gaussian_packet(spec, sys0)
        rep = compute_timescales(sys0, spec)
        times = np.arange(0.0, 150.0 * rep.tau, 0.25 * rep.tau)
        series = sample_series(exp, table_for(exp), "dx", times)
        t_star = detect_flattening(series, sys0, epsilon=0.05, hold=10)
        assert t_star is not None
        t_stars[dx0] = t_star

    rep_mid = compute_timescales(sys0, PacketSpec(n0=400, x0=0.5, dx0=0.05))
    ratio = t_stars[0.05] / rep_mid.t_flat
    band_ok = 1.2 <= ratio <= 3.0
    slope = float(np.polyfit(np.log(widths), np.log([t_stars[w] for w in widths]), 1)[0])
    slope_ok = abs(slope - 1.0) <= 0.3
    ok = band_ok and slope_ok
    assert record(7, ok, f"t*/t_flat = {ratio:.3f} (band [1.2, 3.0]), "
                         f"log-log slope = {slope:.3f} (tol 1.0 +- 0.3)")


def test_c08_quasi_revivals(default_exp, default_table, default_report):
    r = default_report
    pts = np.array([r.T_rev / 4.0, 3.0 * r.T_rev / 4.0, 100.0 * r.tau])
    dx = uncertainty_series(default_exp, default_table, "x", pts)
    quarter_ok = abs(dx[0] / 0.05 - 1.0) <= 0.05
    three_quarter_ok = abs(dx[1] / 0.05 - 1.0) <= 0.05
    strobe = np.arange(10, 391) * r.tau
    median = float(np.median(uncertainty_series(default_exp, default_table,
                                                "x", strobe)))
    anti_ok = dx[2] > median
    ok = quarter_ok and three_quarter_ok and anti_ok
    assert record(8, ok, f"dx(T/4)/dx0 = {dx[0] / 0.05:.4f}, "
                         f"dx(3T/4)/dx0 = {dx[1] / 0.05:.4f} (tol 5%), "
                         f"dx(100 tau) = {dx[2]:.3f} vs median {median:.3f}")


def test_c09_power_law_limits():
    osc = PowerLawWell(k=2.0)
    omega = math.sqrt(2.0 * osc.V0 / (osc.mass * osc.a**2))
    osc_dev = max(abs(wkb_energy(osc, n) - (n + 0.5) * osc.hbar * omega)
                  for n in range(0, 60))
    osc_ok = osc_dev <= 1e-12

    box = PowerLawWell(k=math.inf)
    box_ok = all(
        math.isclose(wkb_energy(box, n),
                     ((n + 1) * math.pi * box.hbar / (2 * box.a)) ** 2
                     / (2 * box.mass), rel_tol=1e-14)
        for n in (0, 7, 200))

    fd_dev = 0.0
    for k in (0.5, 1.0, 3.0, 4.0, 10.0):
        well = PowerLawWell(k=k)
        n = 50
        d2 = wkb_energy(well, n + 1) - 2 * wkb_energy(well, n) + wkb_energy(well, n - 1)
        fd_dev = max(fd_dev, abs(revival_time_powerlaw(well, n)
                                 / (4.0 * math.pi * well.hbar / abs(d2)) - 1.0))
    fd_ok = fd_dev <= 0.005

    bouncer = PowerLawWell(k=1.0, half=True)
    n = 500
    b_ratio = revival_time_powerlaw(bouncer, n) / (
        6.0 * n * classical_period_powerlaw(bouncer, n))
    b_ok = abs(b_ratio - 1.0) <= 0.005

    ok = osc_ok and box_ok and fd_ok and b_ok
    assert record(9, ok, f"oscillator dev {osc_dev:.1e} (tol 1e-12), box exact: "
                         f"{box_ok}, T_rev vs 4 pi hbar/E'' dev {fd_dev:.1e} "
                         f"(tol 5e-3), bouncer 6 n tau ratio {b_ratio:.4f}")


def test_c10_power_law_collapse():
    quartic = PowerLawWell(k=4.0)
    fit = fit_powerlaw_collapse(quartic, 200, 3.0)
    closed = collapse_time_powerlaw(quartic, 200, 3.0)
    fit_dev = abs(fit.T_C_estimate / closed - 1.0)
    fit_ok = fit_dev <= 0.15

    # near the oscillator the level spacing is nearly uniform; a narrow
    # packet (central level 400, width 2) stays coherent stroboscopically
    near = PowerLawWell(k=2.05)
    levels, w = gaussian_weights(400, 2.0, 8.0)
    tau = classical_period_powerlaw(near, 400)
    floor = min(abs(powerlaw_autocorrelation(near, levels, w, q * tau))
                for q in range(1, 201))
    floor_ok = floor > 0.99

    ok = fit_ok and floor_ok
    assert record(10, ok, f"k=4 fit/closed = {fit.T_C_estimate / closed:.4f} "
                          f"(tol 15%), k=2.05 floor over 200 periods = "
                          f"{floor:.5f} (> 0.99)")


def test_c11_oracle_suite(default_exp, sys0, rng):
    # 200 random matrix elements against Gauss-Legendre quadrature; the
    # low-level block keeps the p^2 scale where an absolute 1e-10 is
    # meaningful for the quadrature itself
    table = build_matrix_elements(1, 40, sys0)
    oracle = {"x": lambda m, n: x_power_quad(m, n, 1),
              "x2": lambda m, n: x_power_quad(m, n, 2),
              "p": p_quad, "p2": p2_quad}
    names = ("x", "x2", "p", "p2")
    elem_dev = 0.0
    for _ in range(200):
        which = names[rng.integers(0, 4)]
        m, n = (int(v) for v in rng.integers(1, 41, size=2))
        got = operator_block(table, which)[m - 1, n - 1]
        elem_dev = max(elem_dev, abs(got - oracle[which](m, n)))
    elem_ok = elem_dev <= 1e-10

    # mirror correlation closed form vs position-space overlap integrals
    nodes, weights = gl_points(0.0, 1.0, 900)
    grid = SpatialGrid(nodes)
    psi0 = position_wavefunction(default_exp, grid, 0.0).amplitudes
    mirrored = psi0[::-1]
    rep = compute_timescales(sys0, PacketSpec(n0=400, x0=0.5, dx0=0.05))
    mirror_dev = 0.0
    for tt in (0.0, 0.4 * rep.tau, rep.T_rev / 2.0, 0.13 * rep.T_rev):
        psit = position_wavefunction(default_exp, grid, tt).amplitudes
        quad_val = np.sum(weights * np.conjugate(psit) * mirrored)
        closed = mirror_correlation_series(default_exp, [tt])[0]
        mirror_dev = max(mirror_dev, abs(closed - quad_val))
    mirror_ok = mirror_dev <= 1e-6

    # momentum eigenstates against the Fourier transform, incl. p = +-p_n
    mom_dev = 0.0
    for n in (2, 41, 400):
        pn = n * math.pi
        probes = np.array(sorted({0.7, 12.3, 0.98 * pn, pn, pn + 1e-9,
                                  1.25 * pn}))
        pts = np.concatenate((-probes[::-1], [0.0], probes))
        pure = EigenExpansion(n_min=n, coefficients=np.array([1.0 + 0.0j]),
                              energies=np.array([eigenenergy(n, sys0)]),
                              sys=sys0)
        phi = momentum_wavefunction(pure, MomentumGrid(pts), 0.0).amplitudes
        for p, a in zip(pts, phi):
            mom_dev = max(mom_dev, abs(a - momentum_amplitude_quad(n, float(p))))
    mom_ok = mom_dev <= 1e-9

    ok = elem_ok and mirror_ok and mom_ok
    assert record(11, ok, f"matrix elements dev {elem_dev:.1e} (tol 1e-10), "
                          f"mirror overlap dev {mirror_dev:.1e} (tol 1e-6), "
                          f"momentum basis dev {mom_dev:.1e} (tol 1e-9)")
