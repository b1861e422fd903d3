"""Construction of the quasi-Gaussian eigenbasis expansion."""

import math

import numpy as np
import pytest

from wellpacket import (EigenExpansion, PacketSpec, WellSystem,
                        build_gaussian_packet, eigenenergy)


def test_spec_requires_exactly_one_width():
    with pytest.raises(ValueError):
        PacketSpec(n0=400, x0=0.5)
    with pytest.raises(ValueError):
        PacketSpec(n0=400, x0=0.5, alpha=0.07, dx0=0.05)


def test_spec_width_round_trip(sys0):
    a = PacketSpec(n0=400, x0=0.5, dx0=0.05)
    b = PacketSpec(n0=400, x0=0.5, alpha=a.alpha_value(sys0))
    assert b.dx0_value(sys0) == pytest.approx(0.05, rel=1e-15)
    # minimum-uncertainty pair by construction, dp0 = dn pi hbar / L
    dp0 = b.dn_value(sys0) * math.pi * sys0.hbar / sys0.width_L
    assert b.dx0_value(sys0) * dp0 == pytest.approx(sys0.hbar / 2.0, rel=1e-15)
    assert dp0 == pytest.approx(10.0, rel=1e-15)


def test_spec_level_width(default_spec, sys0):
    # dn = dp L / (pi hbar) = 10 / pi for the default packet
    assert default_spec.dn_value(sys0) == pytest.approx(10.0 / math.pi, rel=1e-14)


def test_window_extent(default_exp):
    assert default_exp.n_min == 375
    assert default_exp.n_max == 425
    assert len(default_exp.coefficients) == 51


def test_weights_normalized(default_exp):
    assert np.sum(default_exp.weights) == pytest.approx(1.0, abs=1e-14)


def test_weights_peak_and_symmetry(default_exp):
    w = default_exp.weights
    levels = default_exp.levels
    assert levels[np.argmax(w)] == 400
    # |a_{n0+k}| = |a_{n0-k}|: the Gaussian is centered on an integer
    k = levels - 400
    for kk in range(1, 26):
        lo = w[k == -kk][0]
        hi = w[k == kk][0]
        assert hi == pytest.approx(lo, rel=1e-12)


def test_coefficient_phases(default_exp, sys0):
    # a_n carries exp(-i p_n x0 / hbar) on top of a positive Gaussian
    n = default_exp.levels
    pn = n * math.pi * sys0.hbar / sys0.width_L
    expected = np.exp(-1j * pn * 0.5 / sys0.hbar)
    ratio = default_exp.coefficients / (np.abs(default_exp.coefficients) * expected)
    assert np.allclose(ratio, 1.0, atol=1e-12)


def test_build_deterministic(default_spec, sys0):
    a = build_gaussian_packet(default_spec, sys0)
    b = build_gaussian_packet(default_spec, sys0)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(a.energies, b.energies)


def test_window_convergence(default_spec, sys0):
    # widening the window beyond 8 sigma changes shared coefficients by
    # at most the discarded tail weight, which is ~1e-15
    wide = PacketSpec(n0=400, x0=0.5, dx0=0.05, window_sigmas=12.0)
    a = build_gaussian_packet(default_spec, sys0)
    b = build_gaussian_packet(wide, sys0)
    sel = slice(a.n_min - b.n_min, a.n_min - b.n_min + len(a.coefficients))
    assert np.max(np.abs(b.coefficients[sel] - a.coefficients)) < 1e-10


def test_truncation_flag(sys0):
    assert not build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.05),
                                     sys0).truncated_at_floor
    # a slow packet pressed against n = 1 loses real weight
    low = build_gaussian_packet(PacketSpec(n0=5, x0=0.5, dx0=0.05), sys0)
    assert low.truncated_at_floor
    assert low.n_min == 1
    assert np.sum(low.weights) == pytest.approx(1.0, abs=1e-14)


def test_x0_validation(sys0):
    with pytest.raises(ValueError):
        build_gaussian_packet(PacketSpec(n0=400, x0=1.5, dx0=0.05), sys0)
    with pytest.raises(ValueError):
        build_gaussian_packet(PacketSpec(n0=400, x0=0.0, dx0=0.05), sys0)


def test_energies_match_levels(default_exp, sys0):
    ns = default_exp.levels
    want = (ns * math.pi * sys0.hbar / sys0.width_L) ** 2 / (2.0 * sys0.mass)
    assert np.allclose(default_exp.energies, want, rtol=1e-14)


def test_energies_are_derived_from_the_window(default_exp, sys0):
    # the spectrum is the box's, never passed in, so the float phases and
    # the exact ones cannot see two spectra
    assert np.array_equal(default_exp.energies, eigenenergy(default_exp.levels, sys0))
    with pytest.raises(TypeError):
        EigenExpansion(n_min=1, coefficients=np.array([1.0 + 0.0j]),
                       energies=np.array([0.0]), sys=sys0)


def test_phases_at(default_exp):
    assert np.array_equal(default_exp.phases_at(0.0), default_exp.coefficients)
    t = 0.001
    ph = default_exp.phases_at(t)
    assert np.allclose(np.abs(ph), np.abs(default_exp.coefficients), atol=1e-15)


def test_off_center_packet(sys0):
    exp = build_gaussian_packet(PacketSpec(n0=400, x0=0.3, dx0=0.05), sys0)
    assert np.sum(exp.weights) == pytest.approx(1.0, abs=1e-14)
    assert exp.levels[np.argmax(exp.weights)] == 400
