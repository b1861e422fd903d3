"""Matrix elements, expectation values and uncertainties.

The closed forms are checked against Gauss-Legendre quadrature of the
basis functions (the oracle knows nothing about the closed forms), then
the assembled dynamics against grid moments and classical references.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellpacket import (MomentumGrid, NumericalConsistencyError, PacketSpec,
                        SpatialGrid, Theta, TimeSeries, WellSystem, build_gaussian_packet,
                        build_matrix_elements, expectation, expectation_series,
                        momentum_wavefunction, position_wavefunction,
                        probability_density, sample_series, spec_hash,
                        compute_timescales, table_for, uncertainty,
                        uncertainty_series)

from oracles import (dense_matrix_elements, operator_block, p2_quad, p_quad,
                     x_power_quad)

P0 = 400 * math.pi
TAU = 2.0 / (800.0 * math.pi)   # 2L/v0 = T / (2 n0)
T_REV = 2.0 / math.pi


@pytest.fixture(scope="module")
def small_table(sys0):
    return build_matrix_elements(1, 40, sys0)


def test_matrix_elements_against_quadrature(small_table, sys0, rng):
    # 200 random entries across all four operators
    L, hbar = sys0.width_L, sys0.hbar
    oracle = {
        "x": lambda m, n: x_power_quad(m, n, 1, L),
        "x2": lambda m, n: x_power_quad(m, n, 2, L),
        "p": lambda m, n: p_quad(m, n, L, hbar),
        "p2": lambda m, n: p2_quad(m, n, L, hbar),
    }
    names = ("x", "x2", "p", "p2")
    for _ in range(200):
        which = names[rng.integers(0, 4)]
        m, n = (int(v) for v in rng.integers(1, 41, size=2))
        got = operator_block(small_table, which)[m - 1, n - 1]
        assert got == pytest.approx(oracle[which](m, n), abs=1e-10)


def test_known_entries(small_table, sys0):
    L = sys0.width_L
    assert small_table.x[0, 1] == pytest.approx(-16.0 * L / (9.0 * math.pi**2), rel=1e-14)
    assert small_table.x[4, 4] == pytest.approx(L / 2.0, rel=1e-15)
    assert small_table.x[1, 3] == pytest.approx(0.0, abs=1e-15)   # even m+n, off-diagonal
    n = 7
    assert small_table.x2[n - 1, n - 1] == pytest.approx(
        L**2 * (1.0 / 3.0 - 1.0 / (2.0 * n**2 * math.pi**2)), rel=1e-14)
    # <m|p|n> = i p[m, n]
    assert 1j * small_table.p[0, 1] == pytest.approx(
        -4j * sys0.hbar / L * 2.0 / (1.0 - 4.0), rel=1e-14)
    assert small_table.p[2, 2] == 0.0
    assert small_table.p2[9] == pytest.approx((10 * math.pi * sys0.hbar / L) ** 2,
                                              rel=1e-14)
    assert small_table.p2.shape == (40,)


def test_hermiticity(small_table):
    assert np.allclose(small_table.x, small_table.x.T, atol=1e-15)
    assert np.allclose(small_table.x2, small_table.x2.T, atol=1e-15)
    p = operator_block(small_table, "p")
    assert np.allclose(p, p.conj().T, atol=1e-15)


def _assert_tables_bitwise(n_min, n_max, sys):
    """The structured build against the plain N x N formulas, bit for bit."""
    table = build_matrix_elements(n_min, n_max, sys)
    x, x2, p, p2 = dense_matrix_elements(n_min, n_max, sys.width_L, sys.hbar)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    for name, got, want in (("x", table.x, x), ("x2", table.x2, x2),
                            ("Im p", table.p, p.imag), ("p2", table.p2, np.diagonal(p2))):
        assert np.array_equal(bits(got), bits(want)), (name, n_min, n_max, sys)
    assert not np.any(p.real)
    N = n_max - n_min + 1
    assert table.p.dtype == np.float64 and table.x.shape == table.p.shape == (N, N)
    assert table.p2.shape == (N,)


WINDOWS = [(1, 1), (1, 2), (5, 5), (1, 40), (300, 500), (1, 600), (1200, 1710),
           (3500, 4010), (10000, 10300)]


@pytest.mark.parametrize("n_min, n_max", WINDOWS)
def test_tables_match_the_dense_formulas_bitwise(n_min, n_max, sys0):
    _assert_tables_bitwise(n_min, n_max, sys0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 20000), st.integers(1, 300),
       st.sampled_from([WellSystem(), WellSystem(mass=0.7, hbar=1.3, width_L=2.5),
                        WellSystem(width_L=1e-3)]))
def test_drawn_tables_match_the_dense_formulas_bitwise(n_min, size, sys):
    _assert_tables_bitwise(n_min, n_min + size - 1, sys)


def test_table_build_holds_one_table_of_scratch():
    # the three N x N tables and the p2 vector, plus at most one N x N
    # float64 while they are built
    n_min, n_max = 3742, 4250
    N = n_max - n_min + 1
    tracemalloc.start()
    try:
        table = build_matrix_elements(n_min, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = sum(getattr(table, k).nbytes for k in ("x", "x2", "p", "p2"))
    assert tables == 24 * N * N + 8 * N
    assert peak <= tables + 8 * N * N


def test_table_and_fold_series_hold_under_five_tables():
    # table_for and the four-series fold call over 7993 strobes at N = 509:
    # the three tables, the fold's bins and row blocks, and the output;
    # measured 4.25 N^2 doubles
    spec = PacketSpec(n0=3996, x0=0.3, dx0=0.005)
    exp = build_gaussian_packet(spec)
    count = 7993
    times = np.arange(count) * compute_timescales(exp.sys, spec).tau
    theta = Theta.progression(0, Fraction(1, 2 * spec.n0), count)
    N = exp.coefficients.size
    assert N == 509
    tracemalloc.start()
    try:
        table = table_for(exp)
        expectation_series(exp, table, ("x", "dx", "p", "dp"), times, theta=theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * N * N


P2_LADDER = [(n0, dx0) for n0 in (12, 40, 150, 400, 1500, 4000)
             for dx0 in (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)] + [(12, 0.0005)]


@pytest.mark.parametrize("n0, dx0", P2_LADDER)
def test_mean_square_momentum_is_correctly_rounded(n0, dx0):
    # <p^2> = Sum |a_n|^2 p_n^2 within 1 ulp of the exact rational sum of
    # the rounded weights and p_n^2: measured within 0.68 ulp, where a
    # plain dot erred by more than 1 ulp on 18 of these 43 packets (4.2 at
    # most)
    exp = build_gaussian_packet(PacketSpec(n0=n0, x0=0.3, dx0=dx0))
    table = table_for(exp)
    exact = sum(Fraction(w) * Fraction(p2)
                for w, p2 in zip(exp.weights.tolist(), table.p2.tolist()))
    got = expectation(exp, table, "p2", 0.0)
    assert abs(Fraction(got) - exact) <= math.ulp(float(exact)), (n0, dx0)


def test_block_alignment(default_exp, default_table, sys0):
    wide = build_matrix_elements(300, 500, sys0)
    a = default_table.block("x", default_exp)
    b = wide.block("x", default_exp)
    assert np.array_equal(a, b)
    narrow = build_matrix_elements(380, 420, sys0)
    with pytest.raises(ValueError):
        narrow.block("x", default_exp)
    with pytest.raises(ValueError):
        default_table.block("energy", default_exp)


def test_initial_expectations(default_exp, default_table):
    assert expectation(default_exp, default_table, "x", 0.0) == pytest.approx(0.5, abs=1e-3)
    assert expectation(default_exp, default_table, "p", 0.0) == pytest.approx(P0, rel=1e-3)
    assert uncertainty(default_exp, default_table, "x", 0.0) == pytest.approx(0.05, rel=1e-3)
    assert uncertainty(default_exp, default_table, "p", 0.0) == pytest.approx(10.0, rel=1e-2)


def test_classical_turning_points(default_exp, default_table):
    # launched from the center: right wall at tau/4, left wall at 3tau/4
    td = np.linspace(0.0, TAU, 2001)
    xd = expectation_series(default_exp, default_table, "x", td)
    assert abs(td[np.argmax(xd)] - TAU / 4.0) < TAU / 20.0
    assert abs(td[np.argmin(xd)] - 3.0 * TAU / 4.0) < TAU / 20.0
    assert xd.max() > 0.9
    assert xd.min() < 0.1


def test_stroboscopic_mean_position(default_exp, default_table):
    ts = np.arange(0, 801) * TAU
    xs = expectation_series(default_exp, default_table, "x", ts)
    assert np.max(np.abs(xs - 0.5)) < 1e-6


def test_eighth_period_mean(default_exp, default_table):
    # halfway to the wall: <x> = 3L/4 at (n + 1/8) tau before dispersion
    for n in (0, 1, 2):
        x = expectation(default_exp, default_table, "x", (n + 0.125) * TAU)
        assert x == pytest.approx(0.75, abs=2e-3)


def test_free_gaussian_envelope(default_exp, default_table):
    t0 = 0.0025
    times = np.linspace(1e-6, 3 * t0, 2000)
    dx = uncertainty_series(default_exp, default_table, "x", times)
    env = 0.05 * np.sqrt(1.0 + (times / t0) ** 2)
    # confinement never lets the packet outrun free spreading
    assert np.all(dx <= env * (1.0 + 1e-9))
    # between wall collisions the free law holds to 2%
    collision_dist = np.abs((times - TAU / 4.0) % (TAU / 2.0))
    collision_dist = np.minimum(collision_dist, TAU / 2.0 - collision_dist)
    away = collision_dist > 0.2 * TAU
    assert away.sum() > 300
    rel = np.abs(dx[away] / env[away] - 1.0)
    assert np.max(rel) < 0.02


def test_revival_and_half_revival_moments(default_exp, default_table):
    assert uncertainty(default_exp, default_table, "x", T_REV) == pytest.approx(0.05, rel=1e-6)
    assert expectation(default_exp, default_table, "p", T_REV) == pytest.approx(P0, rel=1e-6)
    # half revival: mirrored packet, reversed momentum
    assert expectation(default_exp, default_table, "p", T_REV / 2.0) == \
        pytest.approx(-P0, rel=1e-9)
    assert expectation(default_exp, default_table, "x", T_REV / 2.0) == \
        pytest.approx(0.5, abs=1e-9)


def test_quarter_revival_width(default_exp, default_table):
    for frac in (0.25, 0.75):
        dx = uncertainty(default_exp, default_table, "x", frac * T_REV)
        assert dx == pytest.approx(0.05, rel=0.05)


def test_anti_revival_width(default_exp, default_table):
    ns = np.arange(90, 111)
    dx = uncertainty_series(default_exp, default_table, "x", ns * TAU)
    at100 = dx[ns == 100][0]
    assert at100 > np.median(dx)


def test_flat_phase_moments(default_exp, default_table):
    t = 124 * TAU
    assert uncertainty(default_exp, default_table, "x", t) == \
        pytest.approx(1.0 / math.sqrt(12.0), rel=0.05)
    assert expectation(default_exp, default_table, "x", t) == pytest.approx(0.5, abs=1e-2)
    assert uncertainty(default_exp, default_table, "p", t) == pytest.approx(P0, rel=0.05)


def test_grid_moment_cross_check(default_exp, default_table, sys0):
    xg = SpatialGrid.default(sys0, 4096)
    pg = MomentumGrid.default(sys0, 400, 1.5, 1.0)
    for t in (0.0, 124 * TAU):
        d = probability_density(position_wavefunction(default_exp, xg, t))
        x_grid = float(np.trapezoid(xg.points * d, xg.points))
        x2_grid = float(np.trapezoid(xg.points**2 * d, xg.points))
        assert x_grid == pytest.approx(expectation(default_exp, default_table, "x", t),
                                       abs=1e-4)
        assert x2_grid == pytest.approx(expectation(default_exp, default_table, "x2", t),
                                        abs=1e-4)
        dm = probability_density(momentum_wavefunction(default_exp, pg, t))
        p_grid = float(np.trapezoid(pg.points * dm, pg.points))
        assert abs(p_grid - expectation(default_exp, default_table, "p", t)) < 0.01 * P0


def test_uncertainty_product(default_exp, default_table, rng):
    ts = np.sort(rng.uniform(0.0, T_REV, 50))
    prod = uncertainty_series(default_exp, default_table, "x", ts) * \
        uncertainty_series(default_exp, default_table, "p", ts)
    assert np.all(prod >= 0.5 * default_exp.sys.hbar - 1e-9)


def test_series_and_metadata(default_exp, default_table):
    ts = np.arange(0, 10) * TAU
    s = sample_series(default_exp, default_table, "dx", ts)
    assert s.observable == "dx"
    assert s.metadata["window"] == [375, 425]
    assert s.metadata["packet"] == spec_hash(default_exp)
    assert np.array_equal(s.times, ts)
    with pytest.raises(ValueError):
        sample_series(default_exp, default_table, "dx", [])
    with pytest.raises(ValueError):
        sample_series(default_exp, default_table, "energy", ts)


def test_p2_alone_is_the_constant_weighted_sum(default_exp, default_table):
    # <p^2> needs no evolved block; asked for on its own it must still work
    pn = default_exp.levels * math.pi * default_exp.sys.hbar / default_exp.sys.width_L
    want = float(np.sum(default_exp.weights * pn**2))
    ts = np.arange(0, 5) * 0.3 * TAU
    assert expectation(default_exp, default_table, "p2", 0.7 * TAU) == pytest.approx(want, rel=1e-14)
    assert np.allclose(expectation_series(default_exp, default_table, "p2", ts),
                       want, rtol=1e-14, atol=0.0)
    s = sample_series(default_exp, default_table, "p2", ts)
    assert s.observable == "p2"
    assert np.allclose(s.values, want, rtol=1e-14, atol=0.0)


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries("x", np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        TimeSeries("x", np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        TimeSeries("x", np.array([0.0, 1.0]), np.array([1.0]))


def test_uncertainty_rejects_nonquadratic(default_exp, default_table):
    with pytest.raises(ValueError):
        uncertainty(default_exp, default_table, "x2", 0.0)


def test_inconsistent_table_detected(default_exp, default_table):
    import dataclasses
    # a tampered second-moment table drives the variance negative
    bad = dataclasses.replace(default_table, x2=default_table.x2 * 0.5)
    with pytest.raises(NumericalConsistencyError):
        uncertainty(default_exp, bad, "x", 0.0)
    # a non-Hermitian momentum entry between well-populated levels leaves
    # an imaginary residue (tamper near n0, not at the window edge where
    # the coefficients are negligible): i p stays Hermitian only while the
    # real p is antisymmetric
    bad_p = default_table.p.copy()
    c = 400 - default_table.n_min
    bad_p[c, c + 1] = -bad_p[c, c + 1]
    bad = dataclasses.replace(default_table, p=bad_p)
    with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
        expectation(default_exp, bad, "p", 0.3 * TAU)
    # a scaled first-moment table pushes <x> outside the well
    bad = dataclasses.replace(default_table, x=default_table.x * 3.0)
    with pytest.raises(NumericalConsistencyError):
        expectation(default_exp, bad, "x", 0.0)
    with pytest.raises(NumericalConsistencyError, match="outside the well"):
        expectation_series(default_exp, bad, "x", [0.3 * TAU, 0.5 * TAU])



def test_negative_variance_floor_does_not_depend_on_the_unit_of_length():
    import dataclasses
    # In a well of length 1e-3 the variance of x is ~2.5e-9 and <x^2> ~2.5e-7.
    # A table shifted to give a variance of -1e-14 at t = 0 is off by far
    # more than rounding and must be refused, not clamped to 0.
    sys_mm = WellSystem(width_L=1e-3)
    exp = build_gaussian_packet(PacketSpec(n0=400, x0=0.5e-3, dx0=0.05e-3), sys_mm)
    table = table_for(exp)
    shift = -(uncertainty(exp, table, "x", 0.0) ** 2 + 1e-14)
    bad = dataclasses.replace(table, x2=table.x2 + shift * np.eye(table.x2.shape[0]))
    with pytest.raises(NumericalConsistencyError, match="negative variance for x"):
        uncertainty(exp, bad, "x", 0.0)

def test_spec_hash_distinguishes(sys0):
    a = build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.05), sys0)
    b = build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.1), sys0)
    assert spec_hash(a) != spec_hash(b)
    assert len(spec_hash(a)) == 16
