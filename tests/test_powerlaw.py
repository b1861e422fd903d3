"""WKB spectra of power-law wells against quadrature and limit oracles."""

import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from wellpacket import (CollapseFitError, PowerLawWell,
                        classical_period_powerlaw, collapse_time_powerlaw,
                        fit_powerlaw_collapse, fit_stroboscopic, gaussian_weights,
                        powerlaw, powerlaw_autocorrelation, revival_time_powerlaw,
                        wkb_energy, wkb_spectrum)
from wellpacket.cli import main
from wellpacket.config import RunConfig, parse_config


def test_spectrum_of_no_levels_is_empty():
    spectrum = wkb_spectrum(PowerLawWell(k=4.0), np.array([], np.int64))
    assert [v.shape for v in spectrum] == [(0,)] * 3


def test_well_validation():
    with pytest.raises(ValueError):
        PowerLawWell(k=0.0)
    with pytest.raises(ValueError):
        PowerLawWell(k=2.0, V0=-1.0)
    with pytest.raises(ValueError):
        wkb_energy(PowerLawWell(k=2.0), -1)
    with pytest.raises(ValueError):
        wkb_energy(PowerLawWell(k=2.0), 1.5)


@pytest.mark.parametrize("v0", [2.0, 0.5])
def test_wells_whose_v0_root_leaves_the_doubles_are_refused(tmp_path, capsys, v0):
    # at k = 1e-4, V0 ** (1/k) = 2 ** 1e4 overflows and 0.5 ** 1e4 flushes to
    # 0: the first once ended in an OverflowError traceback after a
    # header-only powerlaw.csv, the second wrote E = 0 and tau = T_rev = inf
    with pytest.raises(ValueError, match=r"^k: V0 \*\* \(1/k\) is not a normal double"):
        PowerLawWell(k=1e-4, V0=v0)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[powerlaw]\nk = 1, 0.0001\nv0 = {v0}\n")
    out = tmp_path / "o"
    assert main(["powerlaw", "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: [powerlaw] k: V0 ** (1/k)")
    assert not out.exists() or os.listdir(out) == []
    # 1.07 ** 1e4 = 5e293 is a normal double, and the spectrum is finite
    E, tau, T_rev = wkb_spectrum(PowerLawWell(k=1e-4, V0=1.07), np.arange(0, 200))
    assert np.all(np.isfinite(E) & (E > 0)) and np.all(np.isfinite(T_rev))


# (INI lines past k, the well, the largest level the run uses, the level
# named).  Before the energy rule the first warned "overflow encountered in
# multiply" and wrote E = inf, tau = 0 with exit 0; the second and the box
# limit ended in an OverflowError traceback after a header-only
# powerlaw.csv; the third wrote E = 0 and tau = T_rev = inf with exit 0.
# In the fourth only the fit window's top (124 at fit_n0 = 100, fit_dn = 3)
# leaves the doubles, and in the last only the lowest levels do: E_n grows
# with n, and E_2 rounds to 0 where E at 5e9 + 24 is 9e-313
ENERGIES_OUT_OF_DOUBLES = [
    ("0.0001\nv0 = 1.0735\nn_max = 3", dict(k=1e-4, V0=1.0735), 3, 3),
    ("4\na = 1e-300\nn_max = 2", dict(k=4.0, a=1e-300), 2, 2),
    ("4\na = 1e300\nn_max = 2", dict(k=4.0, a=1e300), 2, 2),
    ("infinity\na = 1e-300\nn_max = 2", dict(k=math.inf, a=1e-300), 2, 2),
    ("4\na = 1e-229\nn_max = 2\nfit = true\nfit_n0 = 100", dict(k=4.0, a=1e-229), 124, 124),
    ("4\na = 1e244\nn_max = 2\nfit = true\nfit_n0 = 5000000000", dict(k=4.0, a=1e244),
     5000000024, 0),
]


@pytest.mark.parametrize("ini, well, top, level", ENERGIES_OUT_OF_DOUBLES,
                         ids=["overflow", "power-overflow", "underflow", "box", "fit-top",
                              "bottom"])
def test_wells_whose_energies_leave_the_doubles_are_refused(tmp_path, capsys, ini, well,
                                                            top, level):
    # one rule: the energies at the lowest and the largest level a run uses
    # are finite, positive doubles.  wkb_energy refuses any other with a
    # ValueError that names k and the level, and no warning (the suite turns
    # warnings into errors); the config refuses it through wkb_energy before
    # any file is written
    well = PowerLawWell(**well)
    with pytest.raises(ValueError, match=rf"^k: the WKB energy at n = {level} is not a "
                                         rf"finite positive double at k = {well.k!r}"):
        wkb_energy(well, np.array([0, top]))
    if top < 100:
        with pytest.raises(ValueError, match=rf"^k: the WKB energy at n = {top} "):
            wkb_energy(well, top)
    path = tmp_path / "run.ini"
    path.write_text(f"[powerlaw]\nn_min = 0\nk = {ini}\n")
    out = tmp_path / "o"
    assert main(["powerlaw", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [powerlaw] k: the WKB energy at n = {level} ")
    assert not out.exists()


def test_array_energies_overflow_only_where_their_power_does():
    # E_n overflows from n = 270 on: an array keeps the 270 lower levels
    # finite and bit for bit their scalar values, with inf only above them,
    # and the checked spectrum still refuses at the largest level
    well = PowerLawWell(k=8.0, hbar=1e190)
    levels = np.arange(0, 401)
    with np.errstate(all="ignore"):
        E = powerlaw._energy(well, levels)
    below = np.array([powerlaw._energy(well, n) for n in range(270)])
    assert E[:270].tobytes() == below.tobytes() and np.isfinite(below).all()
    assert np.isposinf(E[270:]).all()
    with pytest.raises(ValueError, match=r"^k: the WKB energy at n = 400 is not a finite "
                                         r"positive double at k = 8\.0, V0 = 1\.0, a = 1\.0$"):
        wkb_spectrum(well, levels)


# (INI, the well, the largest level the run uses, the value and the level
# refused; each run's lowest level is 0).  E is a positive double at every level of each,
# so the energy rule alone passed them.  In the first, E_0 = 8.7e-309 and
# tau = inf at n = 0 and 1: it warned "overflow encountered in divide",
# wrote tau = inf and T_rev = inf and exited 0.  In the other two only the
# fit window's top (124 at fit_n0 = 100, fit_dn = 3) leaves the doubles,
# through tau and through T_rev; both wrote a failed fit and exited 0, the
# first after an overflow warning
TIMES_OUT_OF_DOUBLES = [
    ("[powerlaw]\nk = 4\na = 1e231\nn_min = 0\nn_max = 2\n", dict(k=4.0, a=1e231), 2,
     "classical period", 0),
    ("[system]\nhbar = 1e200\n[powerlaw]\nk = 1\na = 1e200\nv0 = 3.4e-161\nn_min = 0\n"
     "n_max = 0\nfit = true\nfit_n0 = 100\nfit_dn = 3\n",
     dict(k=1.0, a=1e200, V0=3.4e-161, hbar=1e200), 124, "classical period", 124),
    ("[system]\nhbar = 1e200\n[powerlaw]\nk = 1\na = 1e200\nv0 = 1e-159\nn_min = 0\n"
     "n_max = 2\nfit = true\nfit_n0 = 100\nfit_dn = 3\n",
     dict(k=1.0, a=1e200, V0=1e-159, hbar=1e200), 124, "revival time", 124),
]


@pytest.mark.parametrize("ini, well, top, name, level", TIMES_OUT_OF_DOUBLES,
                         ids=["tau-bottom", "tau-fit-top", "T_rev-fit-top"])
def test_wells_whose_times_leave_the_doubles_are_refused(tmp_path, capsys, ini, well, top,
                                                         name, level):
    # the rule covers tau and T_rev as well as E, at the lowest and the
    # largest level the run uses: the powerlaw command refuses before any
    # file, and wkb_spectrum over those two levels names the same value
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    assert main(["powerlaw", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [powerlaw] k: the {name} at n = {level} ")
    assert not out.exists()
    well = PowerLawWell(**well)
    with pytest.raises(ValueError, match=rf"^k: the {name} at n = {level} is not a finite "
                                         rf"positive double at k = {well.k!r}"):
        wkb_spectrum(well, np.array([0, top]))


def test_config_parsing_does_no_powerlaw_work(monkeypatch):
    # a section without keys is its shared default, so a config that leaves
    # [powerlaw] out builds no well and evaluates no energy, in any module
    # that holds them
    def refuse(*args, **kwargs):
        raise AssertionError("power-law work during parsing")
    for module in [m for key, m in sys.modules.items() if key.startswith("wellpacket.")]:
        for name in ("PowerLawWell", "wkb_energy", "_energy"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    box = parse_config("[packet]\nn0 = 300\nx0 = 0.4\ndx0 = 0.04\n[schedule]\nn_stop = 20\n")
    assert box.powerlaw is parse_config("").powerlaw is RunConfig().powerlaw
    assert box.packet.n0 == 300


@pytest.mark.parametrize("section", ["k = 1, 0.0001\nv0 = 2", "k = 4\na = 1e300\nn_max = 2"],
                         ids=["root", "energy"])
def test_only_the_powerlaw_command_refuses_wells_past_the_doubles(tmp_path, capsys, section):
    # the other commands build no well, so they run whatever [powerlaw] says
    path = tmp_path / "run.ini"
    path.write_text(f"[schedule]\nn_stop = 4\n[powerlaw]\nn_min = 0\n{section}\n")
    out = tmp_path / "o"
    assert main(["observables", "--config", str(path), "--out", str(out)]) == 0
    assert os.listdir(out) == ["observables.csv"]
    refused = tmp_path / "refused"
    assert main(["powerlaw", "--config", str(path), "--out", str(refused)]) == 1
    assert capsys.readouterr().err.startswith("config error: [powerlaw] k: ")
    assert not refused.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["V0", "a", "mass", "hbar"])
def test_well_refuses_non_finite_values(name, value):
    # nan gave spectra of nan, a = inf one of zeros; k alone may be infinite
    with pytest.raises(ValueError, match=f"^{name}: must be finite$"):
        PowerLawWell(k=1.5, **{name: value})
    assert PowerLawWell(k=math.inf).maslov_mu == 1.0


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


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 2.05, 3.0, 8.0, 1e4, math.inf])
def test_array_spectrum_equals_the_scalar_functions_bitwise(k, half):
    # the array form's power is np.float_power, the C pow of Python's float
    # power; np.power (its SIMD loop, finite k) and np.square (box) differ
    # from it in the last bit for some levels, so neither may replace it;
    # the ladder reaches n = 1300, beyond the bench's levels
    levels = np.arange(0, 1301)
    for V0, a in [(1.0, 1.0), (3.7, 0.6), (0.05, 12.0)]:
        well = PowerLawWell(k=k, V0=V0, a=a, half=half)
        E, tau, trev = wkb_spectrum(well, levels)
        assert E.tobytes() == np.array([wkb_energy(well, n) for n in range(1301)]).tobytes()
        assert tau.tobytes() == np.array(
            [classical_period_powerlaw(well, n) for n in range(1301)]).tobytes()
        scalar = [revival_time_powerlaw(well, n) for n in range(1, 1301)]
        if k == 2.0:
            assert trev is None and set(scalar) == {None}
        else:
            assert trev[1:].tobytes() == np.array(scalar).tobytes()


def test_array_levels_are_checked_like_scalar_levels():
    well = PowerLawWell(k=3.0)
    for bad in ([0, 1, -1], [0.0, 1.5], [1.0, 2.0]):
        with pytest.raises(ValueError):
            wkb_energy(well, np.array(bad))
        with pytest.raises(ValueError):
            wkb_spectrum(well, np.array(bad))
    with pytest.raises(ValueError):
        wkb_energy(well, -1)
    with pytest.raises(ValueError):
        wkb_energy(well, 1.5)


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


def test_gaussian_weights_refuse_a_window_below_level_0():
    # the window -100 +- 24 lies wholly below the clip at n = 0: empty, and
    # refused, not an empty array of weights
    with pytest.raises(ValueError, match=r"^the level window -100 \+- 24\.0 clipped at "
                                         r"n = 0 is empty$"):
        gaussian_weights(-100, 3.0, 8.0)


def test_powerlaw_autocorrelation_basics():
    well = PowerLawWell(k=4.0)
    levels, w = gaussian_weights(200, 3.0, 8.0)
    tau = classical_period_powerlaw(well, 200)
    C = powerlaw_autocorrelation(well, levels, w, np.array([0.0, tau]))
    assert C.shape == (2,)
    assert C[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert abs(C[1]) < 1.0
    with pytest.raises(ValueError):
        powerlaw_autocorrelation(well, levels, 2.0 * w, np.array([0.0]))


def test_quartic_collapse_fit():
    well = PowerLawWell(k=4.0)
    fit = fit_powerlaw_collapse(well, 200, 3.0)
    closed = collapse_time_powerlaw(well, 200, 3.0)
    assert fit.points_used >= 3
    assert fit.T_C_estimate == pytest.approx(closed, rel=0.15)


@pytest.mark.parametrize("k", [1.5, 3.0, 8.0])
def test_collapse_fit_takes_one_spectrum(k, monkeypatch):
    # the fit samples |C(n tau)| over one WKB spectrum, not one per block
    # of periods, and finds what powerlaw_autocorrelation block by block does
    well = PowerLawWell(k=k)
    levels, w = gaussian_weights(400, 2.5, 8.0)
    tau = classical_period_powerlaw(well, 400)
    want = fit_stroboscopic(
        lambda ns: np.abs(powerlaw_autocorrelation(well, levels, w, ns * tau)), tau)
    sizes, energy = [], powerlaw.wkb_energy
    monkeypatch.setattr(powerlaw, "wkb_energy",
                        lambda well, n: sizes.append(np.size(n)) or energy(well, n))
    assert fit_powerlaw_collapse(well, 400, 2.5) == want
    assert sizes == [1, levels.size]        # the period's level, then the spectrum


def test_near_harmonic_no_collapse():
    # k = 2.05: revivals are ~81x slower than dephasing at k = 3 would
    # suggest; stroboscopically the packet holds |C| > 0.99 for 200 periods
    well = PowerLawWell(k=2.05)
    levels, w = gaussian_weights(400, 2.0, 8.0)
    tau = classical_period_powerlaw(well, 400)
    mags = np.abs(powerlaw_autocorrelation(well, levels, w, np.arange(1, 201) * tau))
    assert mags.min() > 0.99


def test_oscillator_never_collapses():
    # uniform level spacing: every strobe lands on |C| = 1, the sampler
    # exhausts its budget without crossing threshold and must say so
    with pytest.raises(CollapseFitError):
        fit_powerlaw_collapse(PowerLawWell(k=2.0), 400, 2.0)


def test_wells_whose_lowest_base_is_subnormal_are_refused(tmp_path, capsys):
    # (n + mu) pref V0 ** (1/k) gamma is 1.2e-320 at n = 0 though the root is
    # normal: E_0 = 5.18e-214 was written 1.4e-4 off the 40-digit value.
    # From n = 10**12 the base is normal, and the same well is accepted
    well = PowerLawWell(k=1, a=1e300, V0=1e-20)
    with pytest.raises(ValueError, match=r"^k: the base of the WKB energy at n = 0 is not a "
                                         r"normal double at k = 1, V0 = 1e-20, a = 1e\+300$"):
        wkb_energy(well, 0)
    assert 0.0 < wkb_energy(well, 10**12) < math.inf
    path = tmp_path / "run.ini"
    out = tmp_path / "o"
    path.write_text("[powerlaw]\nk = 1\na = 1e300\nv0 = 1e-20\nn_min = 0\n")
    assert main(["powerlaw", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: [powerlaw] k: the base of the WKB energy at n = 0 is not a normal double")
    assert not out.exists()
    path.write_text("[powerlaw]\nk = 1\na = 1e300\nv0 = 1e-20\n"
                    "n_min = 1000000000000\nn_max = 1000000000002\n")
    assert main(["powerlaw", "--config", str(path), "--out", str(out)]) == 0
    assert os.listdir(out) == ["powerlaw.csv"]


def test_time_functions_refuse_values_past_the_doubles():
    # wkb_spectrum refuses this well; E_0 = 8.7e-309 and E_1 are positive
    # doubles, but tau = ... / E overflowed, and the scalar functions
    # returned inf, and the fit sampled 10000 NaN periods
    well = PowerLawWell(k=4, a=1e231)
    at = r" is not a finite positive double at k = 4, V0 = 1.0, a = 1e\+231$"
    with pytest.raises(ValueError, match=r"^k: the classical period at n = 0" + at):
        classical_period_powerlaw(well, 0)
    with pytest.raises(ValueError, match=r"^k: the revival time at n = 1" + at):
        revival_time_powerlaw(well, 1)
    with pytest.raises(ValueError, match=r"^k: the revival time at n = 1" + at):
        collapse_time_powerlaw(well, 1, 0.5)
    with pytest.raises(ValueError, match=r"^k: the classical period at n = 1" + at):
        fit_powerlaw_collapse(well, 1, 0.3)
    # T_rev is finite here, but T_rev / (2 pi dn^2) overflows
    with pytest.raises(ValueError, match=r"^k: the collapse time at n = 100 is not a finite"):
        collapse_time_powerlaw(PowerLawWell(k=4), 100, 1e-160)


@pytest.mark.parametrize("fit_dn", ["1e-200", "1e-160", "1e200"])
def test_collapse_times_past_the_doubles_are_config_errors(tmp_path, capsys, fit_dn):
    # T_rev / (2 pi fit_dn^2) divided by a dn^2 flushed to 0, overflowed to
    # inf, or overflowed in dn^2: a ZeroDivisionError or OverflowError
    # traceback, or an inf T_C_closed_form
    path = tmp_path / "run.ini"
    path.write_text(f"[powerlaw]\nk = 4\nfit = true\nfit_dn = {fit_dn}\n")
    out = tmp_path / "o"
    assert main(["powerlaw", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: [powerlaw] k: the collapse time at n = 200 is not a finite positive double")
    assert not out.exists()
