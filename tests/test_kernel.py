"""The chunked phase kernel: chunk layout, agreement with the direct
per-form and per-level sums over a packet ladder, and bounded memory."""

import math
import tracemalloc

import numpy as np
import pytest

from wellpacket import (OBSERVABLES, PacketSpec, autocorrelation_series,
                        build_gaussian_packet, compute_timescales,
                        expectation_series, mirror_correlation_series,
                        revival_scan, table_for)
from wellpacket import packet

from oracles import dense_expectation, direct_correlation

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


def test_chunks_split_for_threads_without_single_rows():
    # 12336 rows fit the default budget at N = 85
    for n_times in (0, 1, 2, 3, 5, 7, 300, 12337):
        for parts in (1, 2, 3):
            chunks = packet._time_chunks(n_times, 85, parts)
            lengths = [s.stop - s.start for s in chunks]
            assert sum(lengths) == n_times
            assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
            assert max(lengths, default=0) <= 12336
            assert max(lengths, default=0) - min(lengths, default=0) <= 1
            assert len(chunks) >= min(parts, n_times // 2)
            if n_times > 1:
                assert min(lengths) >= 2, (n_times, parts)


def test_threads_split_one_chunk_without_changing_values(default_exp, default_table):
    # 300 samples at N = 51 are one chunk of the default budget; three
    # threads cut them into three chunks, and no value may move
    times = np.linspace(0.0, 60 * 2.0 / (800 * math.pi), 300)
    assert len(packet._time_chunks(times.size, len(default_exp.energies))) == 1
    ids = ("x", "dx", "p", "dp")
    one = expectation_series(default_exp, default_table, ids, times)
    three = expectation_series(default_exp, default_table, ids, times, threads=3)
    assert all(np.array_equal(a, b) for a, b in zip(one, three))


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
    peaks = revival_scan(exp, window, rep.tau / 8)
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
        peaks = revival_scan(exp, (0.0, rep.T_rev), rep.tau / 2)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any(p.fraction == (1, 1) for p in peaks)
    assert peak_bytes < 4 * 2**20
    assert math.isclose(rep.T_rev / (rep.tau / 2), 6000.0, rel_tol=1e-12)
