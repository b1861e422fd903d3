"""The residue fold: accuracy against the 40-digit oracle, agreement with
the chunked kernel, the cost rule's choice of path, and memory that does
not grow with the number of samples beyond the output."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import (PacketSpec, Theta, autocorrelation_series,
                        build_gaussian_packet, compute_timescales,
                        expectation_series, parse_config, revival_scan,
                        table_for, uncertainty_series)
from wellpacket import correlation, observables, packet

from oracles import mp_moments, operator_block

EPS = np.finfo(float).eps


def _scale(exp, table, which):
    mags = np.abs(exp.coefficients)
    return float(mags @ np.abs(operator_block(table, which)) @ mags)


def _period_schedule(exp, count):
    """The dense 0..1T schedule of ``count`` samples and its exact grid."""
    T = compute_timescales(exp.sys, exp.spec).T_rev
    return np.linspace(0.0, T, count), Theta.progression(0, Fraction(1, count - 1), count)


@pytest.fixture
def paths(monkeypatch):
    """Counts of fold and chunk calls made by the kernels."""
    calls = {"fold": 0, "chunks": 0}
    fold, chunks = packet.EigenExpansion.fold, packet.EigenExpansion.map_chunks

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(packet.EigenExpansion, "fold", counted("fold", fold))
    monkeypatch.setattr(packet.EigenExpansion, "map_chunks", counted("chunks", chunks))
    return calls


def _force(monkeypatch, fold: bool):
    """Send every exact-time moment and correlation down one path."""
    rule = lambda *args: fold
    monkeypatch.setattr(observables, "takes_fold", rule)
    monkeypatch.setattr(correlation, "takes_fold", rule)


# (n0, x0, dx0, samples of the dense 0..1T grid, indices checked against
# the oracle).  The oracle costs about 5 s a sample at N = 283 and 17 s at
# N = 509, so the large rungs check one sample away from 0 and T/2.  At
# n0 = 3996, x0 = 0.37 one bincount over all pairs errs by 5.3 eps of scale
# in the constant bin of <x^2>.
ORACLE_LADDER = [
    (40, 0.3, 0.1, 301, [0, 1, 75, 100, 150, 299, 300]),
    (400, 0.3, 0.05, 2001, [0, 7, 667, 1000]),
    (1500, 0.3, 0.009, 3001, [1001]),
    (3996, 0.37, 0.005, 3001, [1001]),
]


@pytest.mark.parametrize("n0, x0, dx0, count, at", ORACLE_LADDER,
                         ids=[f"n{c[0]}" for c in ORACLE_LADDER])
def test_fold_is_within_two_eps_of_its_scale(sys0, paths, n0, x0, dx0, count, at):
    # the bound of test_real_assembly_is_within_two_eps_of_its_scale;
    # measured at most 0.76 eps on these rungs (x2 at n0 = 3996; 0.65 when
    # the fold binned every pair)
    exp = build_gaussian_packet(PacketSpec(n0=n0, x0=x0, dx0=dx0), sys0)
    table = table_for(exp)
    times, theta = _period_schedule(exp, count)
    got = expectation_series(exp, table, ("x", "x2", "p"), times, theta=theta)
    assert paths == {"fold": 1, "chunks": 0}
    ref = [mp_moments(exp, Fraction(j, count - 1)) for j in at]
    for which, values in zip(("x", "x2", "p"), got):
        err = np.max(np.abs(values[at] - [r[which] for r in ref]))
        assert err <= 2 * EPS * _scale(exp, table, which), which


def _grids():
    # (n0, dx0, theta numerators, denominator): dense and stroboscopic
    # grids, fifty revivals on one small denominator, and q = 2 and 1
    return [
        (40, 0.1, np.arange(301), 8000),
        (400, 0.05, np.arange(0, 801, 3), 800),
        (400, 0.05, np.arange(40000), 800),
        (1500, 0.009, np.arange(1201), 1200),
        (400, 0.05, np.arange(40), 2),
        (400, 0.05, np.arange(30), 1),
    ]


@pytest.mark.parametrize("n0, dx0, num, q", _grids(),
                         ids=["dense", "strobe", "revivals", "n1500", "q2", "q1"])
def test_fold_matches_the_chunked_kernel(sys0, monkeypatch, n0, dx0, num, q):
    exp = build_gaussian_packet(PacketSpec(n0=n0, x0=0.3, dx0=dx0), sys0)
    table = table_for(exp)
    theta = Theta(num % q, q)
    times = num / q * compute_timescales(sys0, exp.spec).T_rev
    ids = ("x", "x2", "p")

    def both():
        return (expectation_series(exp, table, ids, times, theta=theta),
                autocorrelation_series(exp, times, theta, mirror=True))

    _force(monkeypatch, True)
    fold, fold_C = both()
    _force(monkeypatch, False)
    chunks, chunks_C = both()
    for which, a, b in zip(ids, fold, chunks):
        # each path lies within about eps of its scale from the exact value
        assert np.max(np.abs(a - b)) <= 4 * EPS * _scale(exp, table, which), which
    for a, b in zip(fold_C, chunks_C):
        assert np.max(np.abs(a - b)) <= 4 * EPS


def test_cost_rule_picks_the_path(sys0, paths):
    # fold when pairs + q log2 q < T pairs for moments, and when
    # N + q log2 q < T N for correlations
    spec = PacketSpec(n0=400, x0=0.5, dx0=0.05)
    exp = build_gaussian_packet(spec, sys0)
    rep = compute_timescales(sys0, spec)
    table = table_for(exp)

    def path(run):
        paths.update(fold=0, chunks=0)
        run()
        return "fold" if paths["fold"] else "chunks"

    def schedule(text):
        return parse_config(text).schedule.resolve(rep.tau, rep.T_rev, spec.n0)

    def moments(times, theta):
        return lambda: expectation_series(exp, table, ("x", "dx", "p", "dp"), times,
                                          theta=theta)

    dense = schedule("[schedule]\nmode = dense\nstart = 0\nstop = 1T\ncount = 3000\n")
    strobe = schedule("[schedule]\nn_start = 0\nn_stop = 800\nn_step = 3\n")
    assert (dense[1].den, strobe[1].den) == (2999, 800)
    assert path(moments(*dense)) == "fold"
    assert path(moments(*strobe)) == "fold"
    # a full scan at 0.5 tau: q = 1600 for 1601 samples
    assert path(lambda: revival_scan(exp, (0.0, rep.T_rev), rep.tau / 2, 0.3,
                                     theta=(0, Fraction(1, 1600)))) == "fold"
    # a window scan about T/2 at 0.03125 tau: q = 64 n0 = 25600 for 401 samples
    start, res = Fraction(400) - 200 * Fraction(1, 32), Fraction(1, 32)
    window = (float(start) * rep.tau, float(start + 400 * res) * rep.tau)
    assert path(lambda: revival_scan(exp, window, float(res) * rep.tau, 0.3,
                                     theta=(start / 800, res / 800))) == "chunks"
    # a single time, exact or not, and plain-number times
    one = Theta.of([Fraction(1, 3)])
    assert path(moments(np.array([rep.T_rev / 3]), one)) == "chunks"
    assert path(lambda: autocorrelation_series(exp, [rep.T_rev / 3], one,
                                               mirror=True)) == "chunks"
    assert path(moments(dense[0], None)) == "chunks"
    # the rule itself, at its edge: T = 2 at q = 4 folds 4 pairs (4 + 8 < 8
    # fails) and 16 pairs (16 + 8 < 32)
    grid = Theta.progression(0, Fraction(1, 4), 2)
    assert not packet.takes_fold([0.0, 1.0], grid, 4)
    assert packet.takes_fold([0.0, 1.0], grid, 16)
    with pytest.raises(ValueError, match="one value per time"):
        packet.takes_fold([0.0, 1.0, 2.0], grid, 16)


def test_uncertainty_series_takes_theta(sys0, paths):
    # an exact grid handed to uncertainty_series folds, as it does through
    # expectation_series, and gives the same bits
    exp = build_gaussian_packet(PacketSpec(n0=400, x0=0.3, dx0=0.05), sys0)
    table = table_for(exp)
    times, theta = _period_schedule(exp, 2001)
    for which in ("x", "p"):
        paths.update(fold=0, chunks=0)
        got = uncertainty_series(exp, table, which, times, theta=theta)
        assert paths == {"fold": 1, "chunks": 0}
        want = expectation_series(exp, table, "d" + which, times, theta=theta)
        assert np.array_equal(got, want)


def test_fold_memory_does_not_grow_with_samples(sys0):
    # many revivals on one denominator (theta = j / 800): the fold's bins
    # are the same at every T, so 40000 samples may hold more than 4000 only
    # by what each sample keeps: the complex output of the three forms (48
    # B), the four returned series (32 B) and two float temporaries of the
    # variances (16 B); measured exactly that
    exp = build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.05), sys0)
    table = table_for(exp)
    T = compute_timescales(sys0, exp.spec).T_rev
    peaks = {}
    for count in (4000, 40000):
        theta = Theta.progression(0, Fraction(1, 800), count)
        times = np.arange(count) * (T / 800)
        assert packet.takes_fold(times, theta, len(exp.coefficients) ** 2)
        tracemalloc.start()
        try:
            expectation_series(exp, table, ("x", "dx", "p", "dp"), times, theta=theta)
            _, peaks[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    per_sample = 3 * 16 + 4 * 8 + 2 * 8
    assert peaks[40000] <= peaks[4000] + 36000 * per_sample + 64 * 2**10
    # the chunked kernel would hold a 40000 x 51 phase block of 32.6 MB
    assert peaks[40000] < 0.2 * 40000 * len(exp.coefficients) * 16
