"""Densities and wavefunctions on grids: revivals, mirrors, norms, and the
row-block basis that serves every listed time at once."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import (MomentumGrid, PacketSpec, SpatialGrid, Theta, build_gaussian_packet,
                        compute_timescales, density_norm, momentum_wavefunction,
                        position_wavefunction, probability_density)
from wellpacket import evolution, packet
from wellpacket.cli import main

P0 = 400 * math.pi


@pytest.fixture(scope="module")
def xgrid(sys0):
    return SpatialGrid.default(sys0, 4096)


@pytest.fixture(scope="module")
def pgrid(sys0):
    return MomentumGrid.default(sys0, 400, 1.5, 1.0)


def test_grid_validation(sys0):
    with pytest.raises(ValueError):
        SpatialGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        MomentumGrid(np.array([-2.0, 0.0, 1.0]))  # not symmetric
    with pytest.raises(ValueError, match="strictly increasing"):
        MomentumGrid(np.array([1.0, 0.0, -1.0]))
    g = MomentumGrid.default(sys0, 400, 1.5, 1.0)
    assert g.points[0] == -g.points[-1]


def test_initial_density_shape(default_exp, xgrid):
    d = probability_density(position_wavefunction(default_exp, xgrid, 0.0))
    x = xgrid.points
    assert abs(x[np.argmax(d)] - 0.5) < 0.01
    norm = np.trapezoid(d, x)
    assert norm == pytest.approx(1.0, abs=1e-6)
    mean = np.trapezoid(x * d, x) / norm
    sigma = math.sqrt(np.trapezoid((x - mean) ** 2 * d, x) / norm)
    assert sigma == pytest.approx(0.05, rel=0.02)
    assert np.all(d >= 0.0)


def test_exact_revival_pointwise(default_exp, xgrid, default_report):
    f0 = position_wavefunction(default_exp, xgrid, 0.0)
    fT = position_wavefunction(default_exp, xgrid, default_report.T_rev)
    assert np.max(np.abs(fT.amplitudes - f0.amplitudes)) < 1e-9


def test_half_revival_mirror(default_exp, xgrid, default_report):
    d0 = probability_density(position_wavefunction(default_exp, xgrid, 0.0))
    dh = probability_density(
        position_wavefunction(default_exp, xgrid, default_report.T_rev / 2.0))
    # |psi(x, T/2)|^2 = |psi(L - x, 0)|^2; the grid is symmetric so the
    # mirrored samples are just the reversed array
    assert np.max(np.abs(dh - d0[::-1])) < 1e-9


def test_half_revival_momentum_flip(default_exp, pgrid, default_report):
    d0 = probability_density(momentum_wavefunction(default_exp, pgrid, 0.0))
    dh = probability_density(
        momentum_wavefunction(default_exp, pgrid, default_report.T_rev / 2.0))
    assert np.max(np.abs(dh - d0[::-1])) < 1e-9


def test_unitarity_random_times(default_exp, xgrid, default_report, rng):
    for t in rng.uniform(0.0, default_report.T_rev, 20):
        assert density_norm(position_wavefunction(default_exp, xgrid, t)) == \
            pytest.approx(1.0, abs=1e-6)


def test_parseval_cross_representation(default_exp, xgrid, pgrid, default_report):
    for t in (0.0, 124 * default_report.tau, 0.31 * default_report.T_rev):
        fx = position_wavefunction(default_exp, xgrid, t)
        fp = momentum_wavefunction(default_exp, pgrid, t)
        nx = density_norm(fx)
        np_ = density_norm(fp)
        assert np_ == pytest.approx(nx, abs=1e-3)


def test_initial_momentum_peak(default_exp, pgrid):
    d = probability_density(momentum_wavefunction(default_exp, pgrid, 0.0))
    peak = pgrid.points[np.argmax(d)]
    # moving toward the right wall: single peak at +p0, not -p0
    assert abs(peak - P0) < 3.0
    left = d[pgrid.points < -0.5 * P0]
    assert left.max() < 0.01 * d.max()


def test_collapsed_phase_two_momentum_peaks(default_exp, pgrid, default_report):
    d = probability_density(momentum_wavefunction(default_exp, pgrid,
                                                  124 * default_report.tau))
    p = pgrid.points
    pos, neg = p > 0.5 * P0, p < -0.5 * P0
    peak_r = p[pos][np.argmax(d[pos])]
    peak_l = p[neg][np.argmax(d[neg])]
    assert abs(peak_r - P0) < 0.02 * P0
    assert abs(peak_l + P0) < 0.02 * P0
    ratio = d[pos].max() / d[neg].max()
    assert 0.25 < ratio < 4.0


def test_collapsed_phase_position_flatness(default_exp, xgrid, default_report):
    # pointwise the collapsed density is speckle; flatness emerges after
    # coarse-graining over ~0.1 L
    win = 205
    kernel = np.ones(win) / win
    sel = (xgrid.points > 0.15) & (xgrid.points < 0.85)

    d = probability_density(position_wavefunction(default_exp, xgrid,
                                                  124 * default_report.tau))
    smooth = np.convolve(d, kernel, mode="same")
    assert np.max(np.abs(smooth[sel] - 1.0)) < 0.35

    d0 = probability_density(position_wavefunction(default_exp, xgrid, 0.0))
    smooth0 = np.convolve(d0, kernel, mode="same")
    assert np.max(np.abs(smooth0[sel] - 1.0)) > 2.0


def test_quarter_revival_reforms(default_exp, xgrid, default_report):
    # for x0 = L/2 the T/4 state is a sharply re-formed packet again,
    # nothing like the flat collapsed phase
    d0 = probability_density(position_wavefunction(default_exp, xgrid, 0.0))
    d = probability_density(position_wavefunction(default_exp, xgrid,
                                                  default_report.T_rev / 4.0))
    assert d.max() > 0.9 * d0.max()


def test_wavefield_validation(default_exp, xgrid):
    f = position_wavefunction(default_exp, xgrid, 0.0)
    assert f.time == 0.0
    assert len(f.amplitudes) == len(xgrid.points)
    with pytest.raises(ValueError):
        type(f)(grid=xgrid, amplitudes=f.amplitudes[:-1], time=0.0)
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        type(f)(grid=xgrid, amplitudes=np.full(len(xgrid.points), np.nan + 0j), time=0.0)


def test_momentum_grid_spacing_override(sys0, default_exp):
    g = MomentumGrid.default(sys0, 400, 1.2, spacing=2.0)
    assert np.all(np.diff(g.points) == 2.0)
    d = probability_density(momentum_wavefunction(default_exp, g, 0.0))
    assert np.trapezoid(d, g.points) == pytest.approx(1.0, abs=1e-3)


# times with and without an exact t / T: 0, T/4, 124 tau and an absolute time
THETAS = (Fraction(0), Fraction(1, 4), Fraction(124, 800), None)


def _times(report):
    return [0.0, report.T_rev / 4, 124 * report.tau, 0.0123]


def _values(report):
    """The times of _times, each a value of its own, exact where THETAS is."""
    return [Theta.of([t], report.T_rev, [theta]) for t, theta in zip(_times(report), THETAS)]


@pytest.mark.parametrize("wavefunction, grid", [(position_wavefunction, "xgrid"),
                                                (momentum_wavefunction, "pgrid")])
def test_time_sequence_gives_the_scalar_fields(default_exp, default_report, wavefunction,
                                               grid, request):
    grid = request.getfixturevalue(grid)
    times, T, values = _times(default_report), default_report.T_rev, _values(default_report)
    fields = wavefunction(default_exp, grid, values)
    assert [f.time for f in fields] == times
    for f, value in zip(fields, values):
        assert np.array_equal(f.amplitudes, wavefunction(default_exp, grid, value)[0].amplitudes)
    for f, t in zip(wavefunction(default_exp, grid, times), times):
        assert np.array_equal(f.amplitudes, wavefunction(default_exp, grid, t).amplitudes)
    # a Theta of several times gives a field per time, bit for bit the
    # time's own: a unit root depends on its fraction alone, not on the
    # times' common denominator
    for f, g in zip(wavefunction(default_exp, grid, Theta.of(times[:3], T, THETAS[:3])), fields):
        assert f.time == g.time and np.array_equal(f.amplitudes, g.amplitudes)
    with pytest.raises(ValueError, match="one value per time"):
        Theta.of(times, T, THETAS[:2])


@pytest.mark.parametrize("rows", [2, 3, 5, 7, 64, 100])
def test_smaller_basis_blocks_give_equal_fields(default_exp, default_report, xgrid, pgrid,
                                                rows, monkeypatch):
    # the basis blocks are the phase kernel's chunks: a budget of 2 to 100
    # rows splits 4096 positions and 3771 momenta into balanced blocks,
    # none of them a single row, and no field may move
    times = _values(default_report)
    whole = [position_wavefunction(default_exp, xgrid, times),
             momentum_wavefunction(default_exp, pgrid, times)]
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 16 * len(default_exp.levels) * rows)
    blocked = [position_wavefunction(default_exp, xgrid, times),
               momentum_wavefunction(default_exp, pgrid, times)]
    for a, b in zip(whole, blocked):
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.amplitudes, fb.amplitudes)


def test_evolve_builds_each_grid_basis_once(sys0, tmp_path, monkeypatch):
    rows = {}

    def counted(basis):
        def wrapper(levels, points, sys):
            rows[basis.__name__] = rows.get(basis.__name__, 0) + len(points)
            return basis(levels, points, sys)
        return wrapper

    for name in ("position_basis", "momentum_basis"):
        monkeypatch.setattr(evolution, name, counted(getattr(evolution, name)))
    ini = tmp_path / "run.ini"
    ini.write_text("[packet]\nn0 = 40\ndx0 = 0.1\n[grids]\nx_points = 200\n"
                   "p_spacing = 2.0\n[evolve]\ntimes = 0, 0.5tau, 0.25T, 0.5T\n"
                   "representation = both\n")
    assert main(["evolve", "--config", str(ini), "--out", str(tmp_path / "o")]) == 0
    p_points = len(MomentumGrid.default(sys0, 40, 1.5, 2.0).points)
    assert rows == {"position_basis": 200, "momentum_basis": p_points}


def test_field_memory_stays_below_one_basis(sys0):
    # P = 7541 momenta and N = 85 levels: the whole basis is 10.3 MB
    spec = PacketSpec(n0=800, x0=0.5, dx0=0.03)
    exp = build_gaussian_packet(spec, sys0)
    report = compute_timescales(sys0, spec)
    grid = MomentumGrid.default(sys0, 800, 1.5, 1.0)
    basis_bytes = 16 * len(grid.points) * len(exp.levels)
    times = [0.0, report.T_rev / 4, report.T_rev / 2, 100.5 * report.tau]
    tracemalloc.start()
    try:
        fields = momentum_wavefunction(exp, grid, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fields) == 4
    assert peak < basis_bytes, (peak, basis_bytes)
