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

from oracles import dense_expectation, direct_correlation, mp_moments

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
    # a budget below one row still makes progress, one row per chunk
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 1)
    blocks.clear()
    default_exp.map_chunks(keep, times[:5], out[:, :5])
    assert [len(P) for P in blocks] == [1] * 5


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
        Mk = table.block(which, exp)
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


def test_revival_scan_memory_is_bounded(monkeypatch, sys0):
    # [0, T] at tau/2 for N = 283 levels is a 6001 x 283 phase matrix
    # (27 MB complex); with a 1 MiB budget the scan holds one chunk of it
    spec = PacketSpec(n0=1500, x0=0.5, dx0=0.009)
    exp = build_gaussian_packet(spec, sys0)
    rep = compute_timescales(sys0, spec)
    assert len(exp.coefficients) == 283
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 2**20)
    tracemalloc.start()
    try:
        peaks = revival_scan(exp, (0.0, rep.T_rev), rep.tau / 2, 0.3)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any(p.fraction == (1, 1) for p in peaks)
    assert peak_bytes < 4 * 2**20
    assert math.isclose(rep.T_rev / (rep.tau / 2), 6000.0, rel_tol=1e-12)
    # the exact path: a 96 kB table of 6000 unit roots, and an int64 residue
    # block beside each chunk
    tracemalloc.start()
    try:
        exact = revival_scan(exp, (0.0, rep.T_rev), rep.tau / 2, 0.3,
                             theta=(0, Fraction(1, 6000)))
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [p.time for p in exact] == [p.time for p in peaks]
    assert peak_bytes < 4 * 2**20


def test_series_memory_is_about_two_chunks(sys0):
    # 20000 samples over [0, T] at N = 85 are two chunks of 10000 rows
    # (13.6 MB of complex phases each); the assembly keeps the chunk, its
    # real and imaginary halves and no chunk-sized product besides
    spec = PacketSpec(n0=800, x0=0.5, dx0=0.03)
    exp = build_gaussian_packet(spec, sys0)
    times = np.linspace(0.0, compute_timescales(sys0, spec).T_rev, 20000)
    chunks = packet._time_chunks(times.size, len(exp.coefficients))
    assert len(exp.coefficients) == 85 and len(chunks) == 2
    chunk_bytes = 16 * len(exp.coefficients) * (chunks[0].stop - chunks[0].start)
    table = table_for(exp)
    tracemalloc.start()
    try:
        expectation_series(exp, table, ("x", "dx", "p", "dp"), times)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 2.2 chunks; a product per table beside b and b.conj() was 3.1
    assert peak_bytes <= 2.8 * chunk_bytes


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
        scale = float(mags @ np.abs(table.block(which, exp)) @ mags)
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
    monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 16 * theta.den - 1)
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
