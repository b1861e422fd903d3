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

from oracles import ld_moments, mp_moments

EPS = np.finfo(float).eps


def _scale(exp, table, which):
    # Sum |a_m||a_n||O_mn| over row blocks of the real form R, |O_mn| = |R_mn|:
    # no N x N array at N = 5093
    mags = np.abs(exp.coefficients)
    return float(sum(mags[k:k + 64] @ np.abs(table.rows(which, slice(k, k + 64))) @ mags
                     for k in range(0, mags.size, 64)))


def _period_schedule(exp, count):
    """The dense 0..1T schedule of ``count`` samples, exact."""
    T = compute_timescales(exp.sys, exp.spec).T_rev
    return Theta.progression(np.linspace(0.0, T, count), T, 0, Fraction(1, count - 1))


@pytest.fixture
def paths(monkeypatch):
    """Counts of fold, split and chunk calls made by the kernels."""
    calls = {"fold": 0, "split": 0, "chunks": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name, method in (("fold", "fold"), ("split", "split"), ("chunks", "map_chunks")):
        monkeypatch.setattr(packet.EigenExpansion, method,
                            counted(name, getattr(packet.EigenExpansion, method)))
    return calls


def _force(monkeypatch, fold: bool):
    """Send every exact-time moment and correlation down one path."""
    rule = lambda *args: fold
    monkeypatch.setattr(observables, "takes_fold", rule)
    monkeypatch.setattr(correlation, "takes_fold", rule)


# (n0, x0, dx0, samples of the dense 0..1T grid, indices checked against
# the oracle).  The small rungs take the 40-digit mp_moments; the large
# ones the long-double ld_moments, about 0.06 s a sample at N = 509 and
# 5.4 s at N = 5093, where mp_moments would take 17 s at N = 509.  At
# n0 = 3996, x0 = 0.37 one sum over all pairs per bin errs by 5.3 eps of scale
# in the constant bin of <x^2>.
LARGE_RUNG_SAMPLES = [0, 1, 7, 750, 1001, 1500, 2250, 2999]
ORACLE_LADDER = [
    (40, 0.3, 0.1, 301, [0, 1, 75, 100, 150, 299, 300]),
    (400, 0.3, 0.05, 2001, [0, 7, 667, 1000]),
    (1500, 0.3, 0.009, 3001, LARGE_RUNG_SAMPLES),
    (3996, 0.37, 0.005, 3001, LARGE_RUNG_SAMPLES),
    (40000, 0.3, 0.0005, 3001, [1001]),
]


@pytest.mark.parametrize("n0, x0, dx0, count, at", ORACLE_LADDER,
                         ids=[f"n{c[0]}" for c in ORACLE_LADDER])
def test_fold_is_within_two_eps_of_its_scale(sys0, paths, n0, x0, dx0, count, at):
    # the bound of test_real_assembly_is_within_two_eps_of_its_scale;
    # measured at most 0.81 eps on these rungs (x2 at n0 = 3996, over its
    # eight samples), and 0.42 eps at N = 5093
    exp = build_gaussian_packet(PacketSpec(n0=n0, x0=x0, dx0=dx0), sys0)
    table = table_for(exp)
    times = _period_schedule(exp, count)
    got = expectation_series(exp, ("x", "x2", "p"), times)
    assert paths == {"fold": 1, "split": 0, "chunks": 0}
    oracle = mp_moments if n0 <= 400 else ld_moments
    ref = [oracle(exp, Fraction(j, count - 1)) for j in at]
    for which, values in zip(("x", "x2", "p"), got):
        want = np.array([r[which] for r in ref], dtype=np.longdouble)
        err = float(np.max(np.abs(values[at] - want)))
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
    T = compute_timescales(sys0, exp.spec).T_rev
    times = Theta.progression(num / q * T, T, Fraction(int(num[0]), q),
                              Fraction(int(num[1] - num[0]), q))
    ids = ("x", "x2", "p")

    def both():
        return (expectation_series(exp, ids, times),
                autocorrelation_series(exp, times, mirror=True))

    _force(monkeypatch, True)
    fold, fold_C = both()
    # off the fold, the correlations on these progressions take the split
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

    def path(run):
        paths.update(fold=0, split=0, chunks=0)
        run()
        taken, = (name for name, calls in paths.items() if calls)
        return taken

    def schedule(text):
        return parse_config(text).schedule.resolve(rep.tau, rep.T_rev, spec.n0)

    def moments(times):
        return lambda: expectation_series(exp, ("x", "dx", "p", "dp"), times)

    dense = schedule("[schedule]\nmode = dense\nstart = 0\nstop = 1T\ncount = 3000\n")
    strobe = schedule("[schedule]\nn_start = 0\nn_stop = 800\nn_step = 3\n")
    assert (dense.den, strobe.den) == (2999, 800)
    assert path(moments(dense)) == "fold"
    assert path(moments(strobe)) == "fold"
    # a full scan at 0.5 tau: q = 1600 for 1601 samples
    assert path(lambda: revival_scan(exp, (0.0, rep.T_rev), rep.tau / 2, 0.3,
                                     theta=(0, Fraction(1, 1600)))) == "fold"
    # a window scan about T/2 at 0.03125 tau: q = 64 n0 = 25600 for 401
    # samples, a progression, takes the split
    start, res = Fraction(400) - 200 * Fraction(1, 32), Fraction(1, 32)
    window = (float(start) * rep.tau, float(start + 400 * res) * rep.tau)
    assert path(lambda: revival_scan(exp, window, float(res) * rep.tau, 0.3,
                                     theta=(start / 800, res / 800))) == "split"
    # exact times that are not a progression, a single time, exact or not,
    # and plain-number times
    squares = [Fraction(k * k, 12345) for k in range(6)]
    squares = Theta.of([float(k) * rep.T_rev for k in squares], rep.T_rev, squares)
    assert path(lambda: autocorrelation_series(exp, squares, mirror=True)) == "chunks"
    one = Theta.of([rep.T_rev / 3], rep.T_rev, [Fraction(1, 3)])
    assert path(moments(one)) == "chunks"
    assert path(lambda: autocorrelation_series(exp, one, mirror=True)) == "chunks"
    assert path(moments(np.asarray(dense))) == "chunks"
    # the rule itself, at its edge: T = 2 at q = 4 folds 4 pairs (4 + 8 < 8
    # fails) and 16 pairs (16 + 8 < 32); float times take the chunks
    grid = Theta.progression([0.0, rep.T_rev / 4], rep.T_rev, 0, Fraction(1, 4))
    assert not packet.takes_fold(grid, 4)
    assert packet.takes_fold(grid, 16)
    assert not packet.takes_fold(np.asarray(grid), 16)
    with pytest.raises(ValueError, match="one value per time"):
        Theta.of([0.0, 1.0, 2.0], rep.T_rev, [0, Fraction(1, 4)])


def test_uncertainty_series_takes_theta(sys0, paths):
    # an exact grid handed to uncertainty_series folds, as it does through
    # expectation_series, and gives the same bits
    exp = build_gaussian_packet(PacketSpec(n0=400, x0=0.3, dx0=0.05), sys0)
    times = _period_schedule(exp, 2001)
    for which in ("x", "p"):
        paths.update(fold=0, split=0, chunks=0)
        got = uncertainty_series(exp, which, times)
        assert paths == {"fold": 1, "split": 0, "chunks": 0}
        want = expectation_series(exp, "d" + which, times)
        assert np.array_equal(got, want)


def test_fold_memory_does_not_grow_with_samples(sys0):
    # many revivals on one denominator (theta = j / 800): the fold's bins
    # are the same at every T, so 40000 samples may hold more than 4000 only
    # by what each sample keeps: the complex output of the three forms (48
    # B), the four returned series (32 B) and two float temporaries of the
    # variances (16 B); measured exactly that
    exp = build_gaussian_packet(PacketSpec(n0=400, x0=0.5, dx0=0.05), sys0)
    T = compute_timescales(sys0, exp.spec).T_rev
    peaks = {}
    for count in (4000, 40000):
        times = Theta.progression(np.arange(count) * (T / 800), T, 0, Fraction(1, 800))
        assert packet.takes_fold(times, len(exp.coefficients) ** 2)
        tracemalloc.start()
        try:
            expectation_series(exp, ("x", "dx", "p", "dp"), times)
            _, peaks[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    per_sample = 3 * 16 + 4 * 8 + 2 * 8
    assert peaks[40000] <= peaks[4000] + 36000 * per_sample + 64 * 2**10
    # the chunked kernel would hold a 40000 x 51 phase block of 32.6 MB
    assert peaks[40000] < 0.2 * 40000 * len(exp.coefficients) * 16



class _AddSpy:
    """np.add that records, for every np.add.at, the dtypes of the bins and
    of the weights added into them."""

    def __init__(self, seen: list):
        self.seen = seen

    def __call__(self, *args, **kwargs):
        return _ADD(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(_ADD, name)

    def at(self, bins, indices, weights):
        self.seen.append((bins.dtype, np.asarray(weights).dtype))
        return _ADD.at(bins, indices, weights)


_ADD = np.add


def test_fold_weights_reach_it_complex_with_no_bincount(sys0, monkeypatch):
    # every moment block and every correlation adds complex128 weights into
    # complex128 bins, one np.add.at per form and block: real weights into
    # complex bins would take ufunc.at's slow loop, about 20 times slower.
    # np.bincount, which the fold no longer calls, fails the test if
    # anything calls it
    def no_bincount(*args, **kwargs):
        raise AssertionError("np.bincount is called")

    seen = []
    monkeypatch.setattr(np, "bincount", no_bincount)
    monkeypatch.setattr(np, "add", _AddSpy(seen))
    exp = build_gaussian_packet(PacketSpec(n0=1500, x0=0.3, dx0=0.009), sys0)
    times = _period_schedule(exp, 601)
    T = times.t[-1]
    blocks = len(packet.fold_rows(exp.coefficients.size, times.den))
    assert blocks > 1
    calls = [(lambda: expectation_series(exp, "x", times), 1, blocks),
             (lambda: expectation_series(exp, ("x", "dx", "p", "dp"), times), 3, blocks),
             (lambda: autocorrelation_series(exp, times), 1, 1),
             (lambda: revival_scan(exp, (0.0, T), T / 600, 0.3,
                                   theta=(0, Fraction(1, 600))), 2, 1)]
    complex128 = np.dtype(np.complex128)
    for call, forms, count in calls:
        seen.clear()
        call()
        assert seen == [(complex128, complex128)] * (forms * count)


def test_fold_transforms_bins_into_their_phase_sums(sys0, rng):
    # fold(bins, times)[k, j] = Sum_r bins[k, r] exp(2 pi i r num_j / q), one
    # FFT per form with the constant bin r = 0 kept out of it and added to
    # every sample afterwards, bit for bit
    exp = build_gaussian_packet(PacketSpec(n0=40, x0=0.3, dx0=0.1), sys0)
    q, count = 37, 50
    T = compute_timescales(sys0, exp.spec).T_rev
    times = Theta.progression(np.arange(count) * (T / q), T, 0, Fraction(1, q))
    bins = rng.standard_normal((2, q)) + 1j * rng.standard_normal((2, q))
    bins[1, 0] = 1e3
    want = bins @ np.exp(2j * np.pi * (np.outer(np.arange(q), times.num) % q) / q)
    got = exp.fold(bins.copy(), times)
    assert got.shape == (2, count)
    for k in range(2):
        assert np.max(np.abs(got[k] - want[k])) <= 8 * EPS * np.abs(bins[k]).sum()
    apart = bins.copy()
    apart[:, 0] = 0.0
    fft = np.fft.fft(apart, axis=1)[:, -times.num]
    assert np.array_equal(got, fft + bins[:, :1])
    # the constant bin inside the FFT would round otherwise
    assert not np.array_equal(got, np.fft.fft(bins, axis=1)[:, -times.num])
    other = Theta.progression(times.t, 2 * T, 0, Fraction(1, 2 * q))
    with pytest.raises(ValueError, match="not this well's T"):
        exp.fold(bins.copy(), other)
