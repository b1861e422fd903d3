"""Matrix elements, expectation values and uncertainties.

The closed forms are checked against Gauss-Legendre quadrature of the
basis functions (the oracle knows nothing about the closed forms), then
the assembled dynamics against grid moments and classical references.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellpacket import (MatrixElementTable, MomentumGrid, NumericalConsistencyError,
                        PacketSpec, SpatialGrid, Theta, TimeSeries, WellSystem,
                        build_gaussian_packet, build_matrix_elements,
                        expectation_series, momentum_wavefunction, position_wavefunction,
                        probability_density, sample_series, compute_timescales,
                        table_for, uncertainty_series)
from wellpacket import observables
from wellpacket.packet import fold_rows, takes_fold
from wellpacket.system import revival_time

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
    x, x2, p = (small_table.rows(f, slice(None)) for f in ("x", "x2", "p"))
    assert x[0, 1] == pytest.approx(-16.0 * L / (9.0 * math.pi**2), rel=1e-14)
    assert x[4, 4] == pytest.approx(L / 2.0, rel=1e-15)
    assert x[1, 3] == pytest.approx(0.0, abs=1e-15)   # even m+n, off-diagonal
    n = 7
    assert x2[n - 1, n - 1] == pytest.approx(
        L**2 * (1.0 / 3.0 - 1.0 / (2.0 * n**2 * math.pi**2)), rel=1e-14)
    # <m|p|n> = i p[m, n]
    assert 1j * p[0, 1] == pytest.approx(
        -4j * sys0.hbar / L * 2.0 / (1.0 - 4.0), rel=1e-14)
    assert p[2, 2] == 0.0
    assert small_table.p2[9] == pytest.approx((10 * math.pi * sys0.hbar / L) ** 2,
                                              rel=1e-14)
    assert small_table.p2.shape == (40,)


def test_hermiticity(small_table):
    for f in ("x", "x2"):
        R = small_table.rows(f, slice(None))
        assert np.allclose(R, R.T, atol=1e-15)
    p = operator_block(small_table, "p")
    assert np.allclose(p, p.conj().T, atol=1e-15)


def _assert_tables_bitwise(n_min, n_max, sys):
    """Every row block the table serves, in the fold's blocks and in uneven
    ones, all rows at once (the dense form the chunk path writes in spans)
    and the diagonals, against the plain N x N formulas, bit for bit."""
    table = build_matrix_elements(n_min, n_max, sys)
    x, x2, p, p2 = dense_matrix_elements(n_min, n_max, sys.width_L, sys.hbar)
    assert not np.any(p.real)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    N = n_max - n_min + 1
    cuts = fold_rows(N, 0) + fold_rows(N, 37 * N) + [
        slice(a, b) for a, b in ((0, N), (0, 1), (N // 3, N // 3 + 1), (N // 2, N), (N - 1, N))
    ] + [slice(None)]
    for name, want in (("x", x), ("x2", x2), ("p", p.imag)):
        for s in cuts:
            got = table.rows(name, s)
            assert got.dtype == np.float64 and got.shape == want[s].shape
            assert np.array_equal(bits(got), bits(want[s])), (name, s, n_min, n_max, sys)
        assert np.array_equal(bits(table.diagonal(name)), bits(np.diagonal(want)))
    assert np.array_equal(bits(table.p2), bits(np.diagonal(p2)))
    assert np.array_equal(bits(table.diagonal("p2")), bits(table.p2))


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


def _traced(fn):
    """fn's result, and the bytes it leaves held and its peak under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, held, peak
    finally:
        tracemalloc.stop()


def test_table_build_holds_order_n_bytes():
    # the six kernels of length 2N - 1, the three diagonals and p_n^2: 16 N
    # doubles, and no N x N array, held or built; measured 17.0 N doubles
    # held (with the objects) and a peak of 19.8 at N = 509
    for n_min, n_max in ((3742, 4250), (36000, 41000)):
        N = n_max - n_min + 1
        table, held, peak = _traced(lambda: build_matrix_elements(n_min, n_max))
        arrays = table.kernels.nbytes + table.diagonals.nbytes + table.p2.nbytes
        assert arrays == 8 * (6 * (2 * N - 1) + 3 * N + N)
        assert held <= 8 * 17.5 * N and peak <= 8 * 21 * N


def _fold_bound(N, rows, q, T):
    # one of the fold's row blocks in flight, the last one dropped before
    # the next is built (residues, 2 conj(a_m) a_n and one form's complex
    # weights of the pairs m < n: 5 N rows doubles and ufunc's cast buffer
    # of at most 128 KiB; beside the rest of this bound the peak at
    # N = 5093 measures 3.10 N rows doubles, and 3.92 when a block held the
    # three forms' weights at once; the N = 509 peak lies under the rest
    # alone), the three forms' rows of one span of blocks
    # (observables._SPAN_BYTES each, or one block), the bins of three forms
    # and their FFT (96 q bytes; _series drops the binning's length-q
    # partial before the transform) and the (3, T) output.  The full fold,
    # which binned every pair as complex weights, measured 5.3 and needed 10
    span = max(1, observables._SPAN_BYTES // (8 * N * rows)) * 8 * N * rows
    return 5 * 8 * N * rows + 3 * span + 96 * q + 48 * T


def test_table_and_fold_series_hold_order_n_rows_plus_q():
    # table_for and the four-series fold call over 7993 strobes at N = 509
    # peak at 1.88 MB (2.26 MB bound; 2.43 MB with the full fold), against
    # 4.25 N^2 doubles (8.8 MB) with dense tables
    spec = PacketSpec(n0=3996, x0=0.3, dx0=0.005)
    exp = build_gaussian_packet(spec)
    count = 7993
    rep = compute_timescales(exp.sys, spec)
    times = Theta.progression(np.arange(count) * rep.tau, rep.T_rev, 0, Fraction(1, 2 * spec.n0))
    N = exp.coefficients.size
    rows = fold_rows(N, times.den)[0].stop
    assert (N, rows) == (509, 16)
    _, _, peak = _traced(lambda: expectation_series(exp, ("x", "dx", "p", "dp"), times))
    assert peak <= _fold_bound(N, rows, times.den, count)


def test_fold_series_at_five_thousand_levels_holds_order_n_rows_plus_q():
    # n0 = 40000, dx0 = 0.0005 is N = 5093: three dense tables would hold
    # 0.62 GB; the fold's row blocks hold O(N rows + q), measured 11.66 MB
    # (12.9 MB bound; 13.10 MB with the full fold, 17.0 MB while two of
    # its blocks were alive at once)
    spec = PacketSpec(n0=40000, x0=0.3, dx0=0.0005)
    exp = build_gaussian_packet(spec)
    count = 20
    rep = compute_timescales(exp.sys, spec)
    times = Theta.progression(np.arange(count) * rep.tau, rep.T_rev, 0, Fraction(1, 2 * spec.n0))
    N = exp.coefficients.size
    rows = fold_rows(N, times.den)[0].stop
    assert (N, rows) == (5093, 16) and takes_fold(times, N * N)
    (x, dx, p, dp), _, peak = _traced(lambda: expectation_series(
        exp, ("x", "dx", "p", "dp"), times))
    assert peak <= _fold_bound(N, rows, times.den, count)
    # the launch values at t = 0, and Heisenberg's bound at every strobe
    p0 = spec.n0 * math.pi * exp.sys.hbar / exp.sys.width_L
    assert (x[0], p[0]) == (pytest.approx(0.3, abs=1e-9), pytest.approx(p0, rel=1e-9))
    assert (dx[0], dp[0]) == (pytest.approx(0.0005, rel=1e-6), pytest.approx(1000.0, rel=1e-6))
    assert np.all(dx * dp >= 0.5 * exp.sys.hbar * (1 - 1e-9))


@pytest.mark.parametrize("path", ["fold", "chunks"])
def test_moment_bits_do_not_depend_on_the_span_size(monkeypatch, path):
    # the walk groups row blocks into spans of _SPAN_BYTES a form: one block
    # a span, a few, or all of them in one.  The grouping may change the
    # number of calls, never a bit of the four series, on the fold (q = 600)
    # and on the chunks (three plain times)
    exp = build_gaussian_packet(PacketSpec(n0=2000, x0=0.3, dx0=0.008))
    T = revival_time(exp.sys)
    if path == "fold":
        times = Theta.progression(np.arange(601) * (T / 600), T, 0, Fraction(1, 600))
    else:
        times = np.array([0.0, 0.3 * T, 0.71 * T])
    N = exp.coefficients.size
    assert N == 319 and takes_fold(times, N * N) == (path == "fold")
    got = []
    for span_bytes in (1, 2**18, 2**40):
        monkeypatch.setattr(observables, "_SPAN_BYTES", span_bytes)
        got.append(b"".join(v.tobytes() for v in expectation_series(
            exp, ("x", "dx", "p", "dp"), times)))
    assert got[0] == got[1] == got[2]


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
    got = expectation_series(exp, "p2", [0.0])[0]
    assert abs(Fraction(got) - exact) <= math.ulp(float(exact)), (n0, dx0)


def test_block_alignment(default_exp):
    table = table_for(default_exp)
    # both readers refuse an unknown observable, and p2, a diagonal, has
    # no row blocks
    for call in (table.diagonal, lambda f: table.rows(f, slice(None))):
        with pytest.raises(ValueError, match="unknown observable"):
            call("energy")
    with pytest.raises(ValueError, match="p2 is diagonal"):
        table.rows("p2", slice(0, 2))


def test_initial_expectations(default_exp):
    assert expectation_series(default_exp, "x", [0.0])[0] == \
        pytest.approx(0.5, abs=1e-3)
    assert expectation_series(default_exp, "p", [0.0])[0] == \
        pytest.approx(P0, rel=1e-3)
    assert uncertainty_series(default_exp, "x", [0.0])[0] == \
        pytest.approx(0.05, rel=1e-3)
    assert uncertainty_series(default_exp, "p", [0.0])[0] == \
        pytest.approx(10.0, rel=1e-2)


def test_classical_turning_points(default_exp):
    # launched from the center: right wall at tau/4, left wall at 3tau/4
    td = np.linspace(0.0, TAU, 2001)
    xd = expectation_series(default_exp, "x", td)
    assert abs(td[np.argmax(xd)] - TAU / 4.0) < TAU / 20.0
    assert abs(td[np.argmin(xd)] - 3.0 * TAU / 4.0) < TAU / 20.0
    assert xd.max() > 0.9
    assert xd.min() < 0.1


def test_stroboscopic_mean_position(default_exp):
    ts = np.arange(0, 801) * TAU
    xs = expectation_series(default_exp, "x", ts)
    assert np.max(np.abs(xs - 0.5)) < 1e-6


def test_eighth_period_mean(default_exp):
    # halfway to the wall: <x> = 3L/4 at (n + 1/8) tau before dispersion
    for n in (0, 1, 2):
        x = expectation_series(default_exp, "x", [(n + 0.125) * TAU])[0]
        assert x == pytest.approx(0.75, abs=2e-3)


def test_free_gaussian_envelope(default_exp):
    t0 = 0.0025
    times = np.linspace(1e-6, 3 * t0, 2000)
    dx = uncertainty_series(default_exp, "x", times)
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


def test_revival_and_half_revival_moments(default_exp):
    assert uncertainty_series(default_exp, "x", [T_REV])[0] == \
        pytest.approx(0.05, rel=1e-6)
    assert expectation_series(default_exp, "p", [T_REV])[0] == \
        pytest.approx(P0, rel=1e-6)
    # half revival: mirrored packet, reversed momentum
    assert expectation_series(default_exp, "p", [T_REV / 2.0])[0] == \
        pytest.approx(-P0, rel=1e-9)
    assert expectation_series(default_exp, "x", [T_REV / 2.0])[0] == \
        pytest.approx(0.5, abs=1e-9)


def test_quarter_revival_width(default_exp):
    for frac in (0.25, 0.75):
        dx = uncertainty_series(default_exp, "x", [frac * T_REV])[0]
        assert dx == pytest.approx(0.05, rel=0.05)


def test_anti_revival_width(default_exp):
    ns = np.arange(90, 111)
    dx = uncertainty_series(default_exp, "x", ns * TAU)
    at100 = dx[ns == 100][0]
    assert at100 > np.median(dx)


def test_flat_phase_moments(default_exp):
    t = 124 * TAU
    assert uncertainty_series(default_exp, "x", [t])[0] == \
        pytest.approx(1.0 / math.sqrt(12.0), rel=0.05)
    assert expectation_series(default_exp, "x", [t])[0] == \
        pytest.approx(0.5, abs=1e-2)
    assert uncertainty_series(default_exp, "p", [t])[0] == \
        pytest.approx(P0, rel=0.05)


def test_grid_moment_cross_check(default_exp, sys0):
    xg = SpatialGrid.default(sys0, 4096)
    pg = MomentumGrid.default(sys0, 400, 1.5, 1.0)
    for t in (0.0, 124 * TAU):
        d = probability_density(position_wavefunction(default_exp, xg, t))
        x_grid = float(np.trapezoid(xg.points * d, xg.points))
        x2_grid = float(np.trapezoid(xg.points**2 * d, xg.points))
        x, x2, p = (expectation_series(default_exp, w, [t])[0]
                    for w in ("x", "x2", "p"))
        assert x_grid == pytest.approx(x, abs=1e-4)
        assert x2_grid == pytest.approx(x2, abs=1e-4)
        dm = probability_density(momentum_wavefunction(default_exp, pg, t))
        p_grid = float(np.trapezoid(pg.points * dm, pg.points))
        assert abs(p_grid - p) < 0.01 * P0


def test_uncertainty_product(default_exp, rng):
    ts = np.sort(rng.uniform(0.0, T_REV, 50))
    prod = uncertainty_series(default_exp, "x", ts) * \
        uncertainty_series(default_exp, "p", ts)
    assert np.all(prod >= 0.5 * default_exp.sys.hbar - 1e-9)


def test_sample_series(default_exp):
    ts = np.arange(0, 10) * TAU
    s = sample_series(default_exp, "dx", ts)
    assert s.observable == "dx"
    assert np.array_equal(s.times, ts)
    with pytest.raises(ValueError):
        sample_series(default_exp, "dx", [])
    with pytest.raises(ValueError):
        sample_series(default_exp, "energy", ts)


def test_p2_alone_is_the_constant_weighted_sum(default_exp):
    # <p^2> needs no evolved block; asked for on its own it must still work
    pn = default_exp.levels * math.pi * default_exp.sys.hbar / default_exp.sys.width_L
    want = float(np.sum(default_exp.weights * pn**2))
    ts = np.arange(0, 5) * 0.3 * TAU
    assert expectation_series(default_exp, "p2", [0.7 * TAU])[0] == \
        pytest.approx(want, rel=1e-14)
    assert np.allclose(expectation_series(default_exp, "p2", ts),
                       want, rtol=1e-14, atol=0.0)
    s = sample_series(default_exp, "p2", ts)
    assert s.observable == "p2"
    assert np.allclose(s.values, want, rtol=1e-14, atol=0.0)


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries("x", np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        TimeSeries("x", np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        TimeSeries("x", np.array([0.0, 1.0]), np.array([1.0]))


def test_table_validation():
    with pytest.raises(ValueError, match="need 1 <= n_min <= n_max"):
        build_matrix_elements(0, 5)
    table = build_matrix_elements(1, 5)
    with pytest.raises(ValueError, match="kernels must be a contiguous 6 x"):
        MatrixElementTable(1, 5, table.sys, np.zeros((6, 8)), table.diagonals, table.p2)
    with pytest.raises(ValueError, match="kernels must be a contiguous 6 x"):
        MatrixElementTable(1, 5, table.sys, np.asfortranarray(table.kernels),
                           table.diagonals, table.p2)


def test_uncertainty_rejects_nonquadratic(default_exp):
    with pytest.raises(ValueError):
        uncertainty_series(default_exp, "x2", [0.0])


def _serving(table, which, M):
    """A copy of ``table`` that serves the N x N array M as its form
    ``which`` through both of its readers: its row blocks, which the fold
    and the chunks both read, and its diagonal."""
    class Tampered(MatrixElementTable):
        def rows(self, w, s):
            return M[s].copy() if w == which else super().rows(w, s)

        def diagonal(self, w):
            return np.diagonal(M).copy() if w == which else super().diagonal(w)

    return Tampered(**{f.name: getattr(table, f.name)
                       for f in dataclasses.fields(table) if f.init})


def _serve(monkeypatch, table):
    """Have every series build ``table`` in place of its packet's own."""
    monkeypatch.setattr(observables, "table_for", lambda exp: table)


def _both_paths(exp, call):
    """call(times) on the chunks (the single time t = 0, and three plain
    times) and on the fold (41 strobes of an exact grid)."""
    n0 = exp.spec.n0
    rep = compute_timescales(exp.sys, exp.spec)
    times = Theta.progression(np.arange(41) * 0.3 * rep.tau, rep.T_rev, 0, Fraction(3, 20 * n0))
    assert takes_fold(times, exp.coefficients.size ** 2)
    for t in ([0.0], [0.0, times.t[1], times.t[7]], times):
        yield lambda: call(t)


def test_each_series_call_builds_its_packets_table_once(monkeypatch, default_exp):
    # the series build the table from the packet, once a call, on the
    # chunks and on the fold alike
    built = []
    monkeypatch.setattr(observables, "table_for",
                        lambda exp: built.append(exp) or table_for(exp))
    calls = (lambda t: expectation_series(default_exp, ("x", "dx", "p", "dp"), t),
             lambda t: uncertainty_series(default_exp, "p", t),
             lambda t: sample_series(default_exp, "x", t))
    for call in calls:
        for run in _both_paths(default_exp, call):
            built.clear()
            run()
            assert built == [default_exp]


def _non_hermitian(exp, table):
    """(form, table) pairs whose served form is no longer Hermitian at one
    entry near n0, not at the window edge where the coefficients are
    negligible: x scaled at (c, c+1), x2 scaled at (c, c+2), and p's sign
    flipped at (c, c+1), since i p stays Hermitian only while the real p
    is antisymmetric.  At x0 = L/2, conj(a_m) a_n is purely imaginary for
    odd m - n, so a probe of the coefficients at t = 0 alone misses the p
    and x2 entries there."""
    c = exp.spec.n0 - table.n_min
    for which, (i, j), factor in (("x", (c, c + 1), 1.5), ("x2", (c, c + 2), 1.5),
                                  ("p", (c, c + 1), -1.0)):
        M = table.rows(which, slice(None))
        M[i, j] *= factor
        yield which, _serving(table, which, M)


def test_inconsistent_table_detected(monkeypatch, default_exp):
    table = table_for(default_exp)
    forms = {f: table.rows(f, slice(None)) for f in ("x", "x2", "p")}
    # a tampered second-moment table drives the variance negative
    _serve(monkeypatch, _serving(table, "x2", forms["x2"] * 0.5))
    for run in _both_paths(default_exp, lambda t: uncertainty_series(default_exp, "x", t)):
        with pytest.raises(NumericalConsistencyError, match="negative variance for x"):
            run()
    # a non-Hermitian entry between well-populated levels leaves an
    # imaginary residue, on either path and at either launch point
    for exp in (default_exp, build_gaussian_packet(PacketSpec(n0=400, x0=0.3, dx0=0.05))):
        for which, bad in _non_hermitian(exp, table_for(exp)):
            _serve(monkeypatch, bad)
            for run in _both_paths(exp, lambda t: expectation_series(exp, which, t)):
                with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
                    run()
    # a scaled first-moment table pushes <x> outside the well
    _serve(monkeypatch, _serving(table, "x", forms["x"] * 3.0))
    with pytest.raises(NumericalConsistencyError):
        expectation_series(default_exp, "x", [0.0])
    for run in _both_paths(default_exp, lambda t: expectation_series(default_exp, "x", t)):
        with pytest.raises(NumericalConsistencyError, match="outside the well"):
            run()


def test_a_nan_entry_is_refused_on_both_paths(monkeypatch, default_exp):
    # the checks compared with > and <, which a NaN passes: a NaN entry in
    # the x rows once gave rows of nan with no refusal
    table = table_for(default_exp)
    M = table.rows("x", slice(None))
    c = default_exp.spec.n0 - table.n_min
    M[c, c + 1] = np.nan
    _serve(monkeypatch, _serving(table, "x", M))
    for run in _both_paths(default_exp, lambda t: expectation_series(default_exp, "x", t)):
        with pytest.raises(NumericalConsistencyError, match="imaginary residue nan"):
            run()
    # each check refuses a NaN of its own
    with pytest.raises(NumericalConsistencyError, match="negative variance for x"):
        observables._variance(np.array([0.5, np.nan]), np.array([0.3, 0.3]), "x")
    with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
        observables._check_residue("x", 0.0, np.nan)


@pytest.mark.parametrize("n0", [12, 40, 150, 400, 1500, 4000])
def test_fold_probe_keeps_its_margin_at_a_thousandth_of_the_tolerance(monkeypatch, n0):
    # the fold's Hermiticity probe on honest tables: at most 1.3e-16 of
    # its scale over n0 = 12 to 12000, dx0 = 0.002 to 0.2 (N <= 3000), so
    # a tolerance 1000 times tighter than _IMAG_TOL refuses none of them
    # here, while every non-Hermitian entry is still refused
    monkeypatch.setattr(observables, "_IMAG_TOL", 1e-15)
    times = Theta.progression(np.arange(9) / 97 * T_REV, T_REV, 0, Fraction(1, 97))
    for dx0 in (0.005, 0.02, 0.1):
        for x0 in (0.37, 0.5):
            exp = build_gaussian_packet(PacketSpec(n0=n0, x0=x0, dx0=dx0))
            assert takes_fold(times, exp.coefficients.size ** 2)
            expectation_series(exp, ("x", "x2", "p"), times)
    if n0 == 400:
        for x0 in (0.3, 0.5):
            exp = build_gaussian_packet(PacketSpec(n0=400, x0=x0, dx0=0.05))
            assert takes_fold(times, exp.coefficients.size ** 2)
            for which, bad in _non_hermitian(exp, table_for(exp)):
                _serve(monkeypatch, bad)
                with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
                    expectation_series(exp, which, times)


def test_negative_variance_floor_does_not_depend_on_the_unit_of_length(monkeypatch):
    # In a well of length 1e-3 the variance of x is ~2.5e-9 and <x^2> ~2.5e-7.
    # A table shifted to give a variance of -1e-14 at t = 0 is off by far
    # more than rounding and must be refused, not clamped to 0.
    sys_mm = WellSystem(width_L=1e-3)
    exp = build_gaussian_packet(PacketSpec(n0=400, x0=0.5e-3, dx0=0.05e-3), sys_mm)
    table = table_for(exp)
    shift = -(uncertainty_series(exp, "x", [0.0])[0] ** 2 + 1e-14)
    x2 = table.rows("x2", slice(None))
    _serve(monkeypatch, _serving(table, "x2", x2 + shift * np.eye(x2.shape[0])))
    with pytest.raises(NumericalConsistencyError, match="negative variance for x"):
        uncertainty_series(exp, "x", [0.0])
    T = revival_time(sys_mm)
    with pytest.raises(NumericalConsistencyError, match="negative variance for x"):
        uncertainty_series(exp, "x", Theta.of([0.0, T], T, [0, 1]))

