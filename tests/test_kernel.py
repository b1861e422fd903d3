"""The chunked phase kernel: chunk layout, agreement with the direct
per-form and per-level sums over a packet ladder, exact phases at exact
times against a 40-digit oracle, and bounded memory."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import (OBSERVABLES, PacketSpec, Theta, autocorrelation_series,
                        build_gaussian_packet, compute_timescales,
                        expectation_series, mirror_correlation_series,
                        revival_scan, table_for)
from wellpacket import packet
from wellpacket.packet import takes_fold

from oracles import dense_expectation, direct_correlation, mp_moments, operator_block

# Rows per chunk in the ladder runs: every schedule below spans several
# chunks and none is a multiple of it, so the chunk lengths differ.
ROWS = 7


def _rows_budget(monkeypatch, exp, rows: int):
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 16 * len(exp.coefficients) * rows)


def test_phase_chunks_cover_times_within_budget(monkeypatch, default_exp):
    times = np.linspace(0.0, 0.01, 45)
    _rows_budget(monkeypatch, default_exp, ROWS)
    blocks = []

    def keep(P):
        blocks.append(P.copy())
        return P.T

    out = np.empty((len(default_exp.energies), times.size), dtype=complex)
    default_exp.map_chunks(keep, times, out)
    # seven chunks are needed; 45 rows over seven is three of 7 and four of 6
    assert [len(P) for P in blocks] == [6, 6, 7, 6, 7, 6, 7]
    assert all(P.nbytes <= packet.PHASE_CHUNK_BYTES for P in blocks)
    full = np.exp(-1j * np.outer(times, default_exp.energies) / default_exp.sys.hbar)
    assert np.array_equal(np.concatenate(blocks), full)
    assert np.array_equal(out, full.T)
    assert np.array_equal(default_exp.phases_at(times[9]),
                          default_exp.coefficients * full[9])
    # a budget below one row still makes progress, two or three rows a
    # chunk, never the one-row product that BLAS sums in another order
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 1)
    blocks.clear()
    default_exp.map_chunks(keep, times[:5], out[:, :5])
    assert [len(P) for P in blocks] == [2, 3]
    assert np.array_equal(out[:, :5], full[:5].T)


def test_chunks_balance_the_budget_without_single_rows(monkeypatch):
    # a budget of 3 rows at N = 85: as few chunks as the budget allows, of
    # lengths differing by at most one, so 7 rows split 2, 2, 3 and never
    # 3, 3, 1, whose single row BLAS would sum in another order
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 16 * 85 * 3)
    assert [s.stop - s.start for s in packet._time_chunks(7, 85)] == [2, 2, 3]
    for n_times in (*range(31), 300):
        chunks = packet._time_chunks(n_times, 85)
        lengths = [s.stop - s.start for s in chunks]
        assert sum(lengths) == n_times
        assert chunks == [] or chunks[0].start == 0
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        assert len(chunks) == -(-n_times // 3)
        assert max(lengths, default=0) - min(lengths, default=0) <= 1
        if n_times > 1:
            assert min(lengths) >= 2, n_times


def test_chunks_hold_two_rows_while_two_rows_fit():
    # at the 1 MiB budget, 21845 levels leave 3 rows a chunk, 21846 and 32768
    # leave 2, and past 32768 two rows exceed it; no slice of a longer block
    # holds a single row, and the budget holds while it fits three rows:
    # below that, the slices hold two or three rows
    assert packet.PHASE_CHUNK_BYTES == 2**20
    for n_levels, rows in ((85, 771), (21845, 3), (21846, 2), (32768, 2), (32769, 1),
                           (40000, 1)):
        assert rows == max(1, packet.PHASE_CHUNK_BYTES // (16 * n_levels))
        for n_times in (*range(1, 40), 1000, 1001):
            lengths = [s.stop - s.start for s in packet._time_chunks(n_times, n_levels)]
            assert sum(lengths) == n_times
            assert max(lengths) - min(lengths) <= 1
            assert min(lengths) >= 2 or n_times == 1, (n_levels, n_times)
            if rows >= 3:
                # as few chunks as the budget allows
                assert len(lengths) == -(-n_times // rows) and max(lengths) <= rows
            else:
                assert max(lengths) <= 3, (n_levels, n_times)


@pytest.mark.parametrize("budget", [2**10, 2**20, 2**26])
def test_residue_tables_switch_at_16_mib_whatever_the_chunk_budget(monkeypatch, default_exp,
                                                                  budget):
    # the fold's bins and the unit-root table hold 16 q bytes each: both are
    # taken up to q = 2^20 and not past it, however large a chunk may be,
    # so the chunk budget never decides which path a job takes
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", budget)
    assert packet.RESIDUE_TABLE_BYTES == 16 * 2**20
    # 21000 times at N = 51 are more phase terms than 2^20 + 1 residues, so
    # only the size cap can refuse the gather
    n_times = 21000
    times = np.zeros(n_times)
    assert n_times * len(default_exp.energies) > 2**20 + 1
    for q, taken in ((2**20, True), (2**20 + 1, False)):
        theta = Theta(np.zeros(n_times, dtype=np.int64), q)
        assert packet.takes_fold(times, theta, 509**2) == taken, q
        # the gather builds its table of q unit roots when the block function is made
        peak_bytes = _traced_peak(lambda: default_exp._phase_rows(times, theta))
        assert (peak_bytes >= 16 * q) == taken, (q, peak_bytes)


def test_chunk_split_does_not_change_values(monkeypatch, default_exp, default_table):
    # 300 samples at N = 51 are one chunk of the default budget and eight
    # of a 40-row budget; no value may move between the two splits
    times = np.linspace(0.0, 60 * 2.0 / (800 * math.pi), 300)
    ids = ("x", "dx", "p", "dp")
    assert len(packet._time_chunks(times.size, len(default_exp.energies))) == 1
    one = expectation_series(default_exp, default_table, ids, times)
    _rows_budget(monkeypatch, default_exp, 40)
    assert len(packet._time_chunks(times.size, len(default_exp.energies))) == 8
    eight = expectation_series(default_exp, default_table, ids, times)
    assert all(np.array_equal(a, b) for a, b in zip(one, eight))


def _ladder():
    # (n0, dx0, schedule in units of tau): dense schedules on two rungs,
    # a few stroboscopic samples (including T/2 and T) at n0 = 12000
    return [
        (400, 0.05, np.linspace(0.0, 800.0, 1000)),
        (4000, 0.005, np.linspace(0.0, 8000.0, 300)),
        (12000, 0.0015, np.array([0.0, 1.0, 37.0, 1000.0, 12000.0, 20011.0, 24000.0])),
    ]


@pytest.mark.parametrize("n0, dx0, strobes", _ladder(), ids=["n400", "n4000", "n12000"])
def test_kernel_matches_direct_sums(monkeypatch, sys0, n0, dx0, strobes):
    spec = PacketSpec(n0=n0, x0=0.3, dx0=dx0)
    exp = build_gaussian_packet(spec, sys0)
    table = table_for(exp)
    times = strobes * compute_timescales(sys0, spec).tau
    rows = 2 if times.size < 2 * ROWS else ROWS
    assert times.size % rows and times.size > 2 * rows
    _rows_budget(monkeypatch, exp, rows)

    mags = np.abs(exp.coefficients)
    for which, got in zip(OBSERVABLES, expectation_series(exp, table, OBSERVABLES, times)):
        Mk = operator_block(table, which)
        scale = float(mags @ np.abs(Mk) @ mags)
        want = dense_expectation(exp, Mk, times)
        assert np.max(np.abs(want.imag)) <= 1e-12 * scale
        assert np.max(np.abs(got - want.real)) <= 1e-12 * scale, which

    # correlations: sums of |a_n|^2 = 1 in magnitude, so the scale is 1
    C = autocorrelation_series(exp, times)
    assert np.max(np.abs(C - direct_correlation(exp, times))) <= 1e-12
    Cbar = mirror_correlation_series(exp, times)
    assert np.max(np.abs(Cbar - direct_correlation(exp, times, mirror=True))) <= 1e-12

    # the scan's two-column sums, on a window around the half revival
    rep = compute_timescales(sys0, spec)
    window = (rep.T_rev / 2 - 3 * rep.tau, rep.T_rev / 2 + 3 * rep.tau)
    peaks = revival_scan(exp, window, rep.tau / 8, 0.3)
    assert any(p.fraction == (1, 2) and p.channel == "Cbar" for p in peaks)
    at = np.array([p.time for p in peaks])
    direct = np.maximum(np.abs(direct_correlation(exp, at)),
                        np.abs(direct_correlation(exp, at, mirror=True)))
    assert np.max(np.abs([p.height for p in peaks] - direct)) <= 1e-12


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_revival_scan_memory_is_bounded(sys0):
    # [0, T] at tau/2 for N = 283 levels is a 6001 x 283 phase matrix
    # (27 MB complex); the scan holds one 1 MiB chunk of it at a time
    spec = PacketSpec(n0=1500, x0=0.5, dx0=0.009)
    exp = build_gaussian_packet(spec, sys0)
    rep = compute_timescales(sys0, spec)
    assert len(exp.coefficients) == 283 and packet.PHASE_CHUNK_BYTES == 2**20
    peaks = []
    peak_bytes = _traced_peak(lambda: peaks.extend(
        revival_scan(exp, (0.0, rep.T_rev), rep.tau / 2, 0.3)))
    assert any(p.fraction == (1, 1) for p in peaks)
    # float times: the chunk, its real phases and the complex temporaries
    # of exp; measured 1.87 MiB, bound 20% above
    assert peak_bytes < 2.25 * 2**20
    assert math.isclose(rep.T_rev / (rep.tau / 2), 6000.0, rel_tol=1e-12)
    # the exact grid of 6000 residues takes the fold: two columns of 6000
    # bins, their FFT and the curves; measured 0.81 MiB, bound 23% above
    exact = []
    peak_bytes = _traced_peak(lambda: exact.extend(
        revival_scan(exp, (0.0, rep.T_rev), rep.tau / 2, 0.3, theta=(0, Fraction(1, 6000)))))
    assert [p.time for p in exact] == [p.time for p in peaks]
    assert peak_bytes < 2**20
    # a window scan whose grid is finer than its 2001 samples (q = 96000 at
    # T/2 +- 1000 steps) takes the chunks: the 1.5 MB table of q unit roots,
    # and an int64 residue block beside each chunk; measured 1.57 chunks
    # beside the table (a 16 MiB chunk held 9.1 MB of phases and 4.5 MB of
    # residues here)
    q = 96000
    step, start = Fraction(1, q), Fraction(1, 2) - Fraction(1000, q)
    window = (float(start) * rep.T_rev, float(start + 2000 * step) * rep.T_rev)
    res = float(step) * rep.T_rev
    grid = Theta.progression(start, step, 2001)
    assert not takes_fold(np.zeros(2001), grid, 283) and 16 * q <= packet.RESIDUE_TABLE_BYTES
    found = []
    peak_bytes = _traced_peak(lambda: found.extend(
        revival_scan(exp, window, res, 0.3, theta=(start, step))))
    assert any(p.fraction == (1, 2) for p in found)
    assert peak_bytes <= 16 * q + 1.8 * packet.PHASE_CHUNK_BYTES


def test_series_memory_is_about_two_chunks(sys0):
    # 20000 samples over [0, T] at N = 85 are 26 chunks of 769 or 770 rows
    # (1 MiB of complex phases each); the call writes the three dense forms
    # (8 N^2 bytes each, 0.17 chunk together) and keeps them through the
    # chunks, and the assembly keeps the chunk, its real and imaginary
    # halves and no chunk-sized product besides, next to the (3, 20000)
    # complex output
    spec = PacketSpec(n0=800, x0=0.5, dx0=0.03)
    exp = build_gaussian_packet(spec, sys0)
    times = np.linspace(0.0, compute_timescales(sys0, spec).T_rev, 20000)
    chunks = packet._time_chunks(times.size, len(exp.coefficients))
    assert len(exp.coefficients) == 85 and len(chunks) == 26
    chunk_bytes = 16 * len(exp.coefficients) * max(s.stop - s.start for s in chunks)
    table = table_for(exp)
    peak_bytes = _traced_peak(
        lambda: expectation_series(exp, table, ("x", "dx", "p", "dp"), times))
    # measured 2.26 chunks besides the output, the forms included; a
    # product per table beside b and b.conj() was 3.1
    assert peak_bytes <= 2.4 * chunk_bytes + 3 * 16 * times.size


def test_chunk_path_keeps_nothing_on_the_table(sys0):
    # the chunk path writes its dense forms into arrays of the call's own,
    # so after the call the table still holds its 16 N doubles and no form
    # of 8 N^2 bytes; measured 17.04 N doubles with the table's objects and
    # the call's results at N = 283 (866 while the table kept its forms)
    exp = build_gaussian_packet(PacketSpec(n0=1500, x0=0.5, dx0=0.009), sys0)
    N = len(exp.coefficients)
    assert N == 283 and not takes_fold([0.1], None, N * N)
    expectation_series(exp, table_for(exp), ("x", "x2", "p"), [0.2])
    tracemalloc.start()
    try:
        table = table_for(exp)
        values = expectation_series(exp, table, ("x", "x2", "p"), [0.1])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(values) == 3 and held <= 8 * 17.5 * N


# Exact times: k / (2 n0) are whole bounce periods, the rest fractional
# revivals and late times, up to 100 T.
def _exact_times(n0):
    return [Fraction(0), Fraction(1, 2 * n0), Fraction(37, 2 * n0), Fraction(1, 3),
            Fraction(1, 2), Fraction(7, 4), Fraction(123457, 2 * n0), Fraction(1001, 10)]


@pytest.mark.parametrize("n0", [400, 4000])
def test_exact_phases_match_the_mpmath_oracle(sys0, n0):
    exp = build_gaussian_packet(PacketSpec(n0=n0, x0=0.3, dx0=0.05), sys0)
    thetas = _exact_times(n0)
    times = np.array([float(th) for th in thetas]) * compute_timescales(sys0, exp.spec).T_rev
    ref = [mp_moments(exp, th) for th in thetas]
    p0 = n0 * math.pi * sys0.hbar / sys0.width_L

    def errors(theta):
        x, p = expectation_series(exp, table_for(exp), ("x", "p"), times, theta=theta)
        C = np.abs(autocorrelation_series(exp, times, theta))
        Cbar = np.abs(mirror_correlation_series(exp, times, theta))
        return [np.max(np.abs(got - [r[key] for r in ref])) / scale
                for got, key, scale in ((x, "x", sys0.width_L), (p, "p", p0),
                                        (C, "absC", 1.0), (Cbar, "absCbar", 1.0))]

    # measured at most 2.9e-16 of scale, rounding of the sums themselves
    assert max(errors(Theta.of(thetas))) <= 2e-15
    # the float fallback loses eps * E_n t / hbar: 1e-8 rad at n0 = 400 and
    # 1e-6 rad at n0 = 4000, by t = 100 T; measured 6.5e-10 of scale or more
    assert min(errors(None)) > 1e-11


@pytest.mark.parametrize("n0, dx0", [(40, 0.1), (400, 0.05)])
def test_real_assembly_is_within_two_eps_of_its_scale(sys0, n0, dx0):
    # the real-GEMM assembly rounds each form to about eps of its scale
    # Sum |a_m||a_n||O_mn|; measured at most 0.79 eps here, and at most 1.04
    # eps at n0 = 1500 and 3996
    exp = build_gaussian_packet(PacketSpec(n0=n0, x0=0.3, dx0=dx0), sys0)
    table = table_for(exp)
    thetas = _exact_times(n0)
    times = np.array([float(th) for th in thetas]) * compute_timescales(sys0, exp.spec).T_rev
    ref = [mp_moments(exp, th) for th in thetas]
    mags = np.abs(exp.coefficients)
    got = expectation_series(exp, table, ("x", "x2", "p"), times, theta=Theta.of(thetas))
    for which, values in zip(("x", "x2", "p"), got):
        scale = float(mags @ np.abs(operator_block(table, which)) @ mags)
        err = np.max(np.abs(values - [r[which] for r in ref]))
        assert err <= 2 * np.finfo(float).eps * scale, which


def test_exact_phase_paths_agree(monkeypatch, default_exp):
    # the unit-root table and the exp of the reduced residue give the same
    # phases, and both match exp(-2 pi i n^2 theta) reduced in Python ints
    n0 = default_exp.spec.n0
    thetas = [Fraction(k, 2 * n0) for k in range(0, 1601, 37)] + [Fraction(1001, 10)]
    theta = Theta.of(thetas)
    times = np.array([float(th) for th in thetas]) * 2.0 / math.pi
    direct = np.array([[np.exp(-2j * math.pi * float(n * n * th % 1))
                        for n in default_exp.levels.tolist()] for th in thetas])

    def block():
        out = np.empty((len(default_exp.energies), times.size), dtype=complex)
        return default_exp.map_chunks(lambda P: P.T, times, out, theta=theta).T

    table = block()
    assert theta.den <= times.size * len(default_exp.energies)
    monkeypatch.setattr(packet, "RESIDUE_TABLE_BYTES", 16 * theta.den - 1)
    reduced = block()
    assert np.max(np.abs(table - direct)) <= 1e-15
    assert np.max(np.abs(reduced - direct)) <= 1e-15
    assert np.array_equal(default_exp.phases_at(times[3], thetas[3]),
                          default_exp.coefficients * reduced[3])


def test_theta_grids_and_their_limits():
    th = Theta.progression(Fraction(-1, 3), Fraction(1, 4), 5)
    assert th.den == 12
    assert th.num.tolist() == [8, 11, 2, 5, 8]        # -1/3 + j/4 mod 1, in twelfths
    th = Theta.of([0, Fraction(5, 2), Fraction(-7, 6)])
    assert (th.num.tolist(), th.den) == ([0, 3, 5], 6)
    # one inexact value, or a denominator past the int64 range, is the float path
    assert Theta.of([Fraction(1, 2), None]) is None
    assert Theta.of([Fraction(1, 3_000_000_019)]) is None
    assert Theta.progression(0, Fraction(1, 3_000_000_019), 3) is None
    exp = build_gaussian_packet(PacketSpec(n0=40, x0=0.5, dx0=0.1))
    with pytest.raises(ValueError, match="one value per time"):
        autocorrelation_series(exp, [0.0, 1.0], Theta.of([0]))
