"""Eigenbasis building blocks against independent quadrature oracles."""

import math

import numpy as np
import pytest

from wellpacket import (ClassicalState, WellSystem, classical_trajectory,
                        eigenenergy, eigenstate_momentum, eigenstate_position,
                        level_momentum)

from wellpacket.system import position_basis

from oracles import (basis_x, gl_integrate, momentum_amplitude_quad,
                     overlap_quad)


def test_eigenenergy_values(sys0):
    assert eigenenergy(1, sys0) == pytest.approx(math.pi**2, rel=1e-15)
    assert eigenenergy(3, sys0) == pytest.approx(9 * math.pi**2, rel=1e-15)
    # scales as n^2, exactly in floating point for integer ratios
    assert eigenenergy(100, sys0) / eigenenergy(50, sys0) == pytest.approx(4.0, abs=1e-13)


def test_eigenenergy_rejects_bad_level(sys0):
    with pytest.raises(ValueError):
        eigenenergy(0, sys0)
    with pytest.raises(ValueError):
        eigenenergy(-3, sys0)
    with pytest.raises(ValueError):
        eigenenergy(np.arange(0, 5), sys0)


def test_eigenenergy_array_is_the_scalar_form_bitwise(sys0):
    # a packet takes all its energies in one call; each must be the scalar
    # value bit for bit, or every phase and output digit downstream would move
    ns = np.arange(1, 200001)
    for sys in (sys0, WellSystem(mass=1.3, hbar=0.7, width_L=2.9), WellSystem(width_L=1e-3)):
        got = eigenenergy(ns, sys)
        want = np.array([eigenenergy(n, sys) for n in ns.tolist()])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), sys
    # the square is Python's float power: numpy's square rounds otherwise
    # for some levels, so an all-numpy form would not pass the check above
    pn = level_momentum(ns, sys0)
    assert np.any(np.square(pn) / (2.0 * sys0.mass) != eigenenergy(ns, sys0))


def test_level_momentum(sys0):
    assert level_momentum(1, sys0) == pytest.approx(math.pi, rel=1e-15)
    assert level_momentum(400, sys0) == pytest.approx(400 * math.pi, rel=1e-15)
    # callers pass whole windows of levels; each element must be the scalar
    # value bit for bit, or the packet and p^2 table digits would move
    for sys in (sys0, WellSystem(mass=1.3, hbar=0.7, width_L=2.9)):
        ns = np.arange(1, 5001)
        assert np.array_equal(level_momentum(ns, sys),
                              [level_momentum(int(n), sys) for n in ns])
    for bad in (np.array([3, 0, 2]), np.array([1.0, 2.0]), [2, -1]):
        with pytest.raises(ValueError):
            level_momentum(bad, sys0)


def test_position_basis_matches_eigenstate_position():
    sys = WellSystem(width_L=2.5)
    levels = np.array([1, 2, 7, 40, 401])
    xs = np.linspace(0.0, sys.width_L, 37)
    table = position_basis(levels, xs, sys)
    assert table.shape == (xs.size, levels.size)
    want = [[eigenstate_position(int(n), x, sys) for n in levels] for x in xs]
    np.testing.assert_allclose(table, want, rtol=0, atol=1e-15)


def test_position_eigenstate_values(sys0):
    L = sys0.width_L
    assert eigenstate_position(1, L / 2, sys0) == pytest.approx(math.sqrt(2 / L), rel=1e-14)
    assert eigenstate_position(2, L / 4, sys0) == pytest.approx(math.sqrt(2 / L), rel=1e-14)
    assert eigenstate_position(2, L / 2, sys0) == pytest.approx(0.0, abs=1e-14)
    assert eigenstate_position(7, 0.0, sys0) == 0.0
    assert eigenstate_position(7, L, sys0) == pytest.approx(0.0, abs=1e-13)
    # hard walls: the state vanishes identically outside the well
    assert eigenstate_position(3, -0.2, sys0) == 0.0
    assert eigenstate_position(3, 1.2, sys0) == 0.0


def test_orthonormality_quadrature(sys0, rng):
    # the oracle machinery itself must resolve the basis before it is
    # trusted against anything else
    for n in (1, 7, 100, 500):
        assert overlap_quad(n, n, sys0.width_L) == pytest.approx(1.0, abs=1e-12)
    pairs = set()
    while len(pairs) < 20:
        m, n = rng.integers(1, 101, size=2)
        if m != n:
            pairs.add((int(m), int(n)))
    for m, n in pairs:
        assert abs(overlap_quad(m, n, sys0.width_L)) < 1e-10


def test_momentum_eigenstate_against_fourier_quadrature(sys0, rng):
    L, hbar = sys0.width_L, sys0.hbar
    for _ in range(50):
        n = int(rng.integers(1, 61))
        p = float(rng.uniform(-1.3, 1.3) * n * math.pi * hbar / L)
        got = eigenstate_momentum(n, p, sys0)
        want = momentum_amplitude_quad(n, p, L, hbar)
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 9, 40])
@pytest.mark.parametrize("side,off", [(1, 0.0), (-1, 0.0), (1, 1e-8), (-1, -1e-8)])
def test_momentum_eigenstate_near_singular_points(sys0, n, side, off):
    # p = +-p_n is a removable singularity of the closed form; the series
    # patch must agree with direct quadrature there and just next to it
    pn = level_momentum(n, sys0)
    p = side * pn + off
    got = eigenstate_momentum(n, p, sys0)
    want = momentum_amplitude_quad(n, p, sys0.width_L, sys0.hbar)
    assert got == pytest.approx(want, abs=1e-9)


def test_momentum_eigenstate_at_zero(sys0):
    # phi_1(0) = 2 sqrt(hbar / (pi L)) / p_1; even n vanish at p = 0
    want = 2.0 * math.sqrt(sys0.hbar / (math.pi * sys0.width_L)) / level_momentum(1, sys0)
    assert eigenstate_momentum(1, 0.0, sys0) == pytest.approx(want, rel=1e-12)
    assert abs(eigenstate_momentum(2, 0.0, sys0)) < 1e-14


def test_momentum_eigenstate_norm(sys0):
    # |phi_5|^2 integrates to 1; 1/p^4 tails converge slowly, hence the
    # wide range and the loose tolerance
    n = 5
    pn = level_momentum(n, sys0)
    f = np.vectorize(lambda p: abs(eigenstate_momentum(n, p, sys0)) ** 2)
    total = gl_integrate(f, -40 * pn, 40 * pn, panels=1600, order=8)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_classical_trajectory_examples(sys0):
    st = classical_trajectory(0.0, 0.25, -3.0, sys0)
    assert st == ClassicalState(0.25, -3.0)
    # reach the right wall and come back
    st = classical_trajectory(0.8, 0.25, 1.0, sys0)
    assert st.position == pytest.approx(0.95, rel=1e-12)
    assert st.velocity == -1.0
    # reflection off the left wall for a left-mover
    st = classical_trajectory(0.5, 0.25, -1.0, sys0)
    assert st.position == pytest.approx(0.25, rel=1e-12)
    assert st.velocity == 1.0


def test_classical_trajectory_periodicity(sys0):
    v0, x0 = 2.0, 0.3
    period = 2.0 * sys0.width_L / v0
    for t in (0.123, 0.456, 0.789):
        a = classical_trajectory(t, x0, v0, sys0)
        b = classical_trajectory(t + 3 * period, x0, v0, sys0)
        assert a.position == pytest.approx(b.position, abs=1e-12)
        assert a.velocity == b.velocity


def test_classical_trajectory_stays_inside(sys0, rng):
    for _ in range(200):
        t = float(rng.uniform(0, 50))
        st = classical_trajectory(t, 0.7, 13.0, sys0)
        assert 0.0 <= st.position <= sys0.width_L


def test_classical_trajectory_over_an_array_is_the_scalar_fold(sys0, rng):
    # reference: the fold of x0 + v0 t with math.fmod, one time at a time
    L = sys0.width_L
    t = np.concatenate([rng.uniform(-5.0, 50.0, 300), [0.0, 0.375, 1.0]])
    for x0, v0 in ((0.7, 13.0), (0.25, -3.0), (0.4, 0.0)):
        st = classical_trajectory(t, x0, v0, sys0)
        for ti, x, v in zip(t, st.position, st.velocity):
            y = math.fmod(x0 + v0 * ti, 2.0 * L) if v0 else x0
            y += 2.0 * L if y < 0.0 else 0.0
            want = (y, v0) if y <= L else (2.0 * L - y, -v0)
            assert (x, v) == want


def test_system_validation():
    with pytest.raises(ValueError):
        WellSystem(mass=-1.0)
    with pytest.raises(ValueError):
        WellSystem(width_L=0.0)
    for x0 in (-0.5, 1.5):
        with pytest.raises(ValueError, match=r"x0 must lie in \[0, 1.0\]"):
            classical_trajectory(np.array([0.0]), x0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["mass", "hbar", "width_L"])
def test_system_refuses_non_finite_values(name, value):
    # nan passed every "must be positive" check; inf ended in a division by zero
    with pytest.raises(ValueError, match=f"^{name}: must be finite$"):
        WellSystem(**{name: value})


def test_oracle_basis_matches_package(sys0):
    # spot check that the oracle's basis function is the package's
    xs = np.array([0.1, 0.37, 0.62, 0.93])
    for n in (1, 4, 11):
        mine = np.array([eigenstate_position(n, x, sys0) for x in xs])
        assert np.allclose(mine, basis_x(n, xs, sys0.width_L), atol=1e-14)
