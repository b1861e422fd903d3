"""The two-level split of correlation sums over an exact progression:
agreement with the 40-digit oracle, values independent of the giant-step
blocks, and memory without the q-long table of unit roots."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wellpacket import PacketSpec, Theta, build_gaussian_packet, compute_timescales, revival_scan
from wellpacket import packet
from wellpacket.correlation import _both_weights, _phase_sum
from wellpacket.system import WellSystem, revival_time

from oracles import mp_correlation

EPS = np.finfo(float).eps


def _window(n0: int, res: int, half: int, frac=Fraction(1, 2)):
    """The exact grid of a scan about frac T at tau / res, half steps a side:
    theta_j = frac - (half - j) / (2 n0 res), for 2 half + 1 samples."""
    step = Fraction(1, 2 * n0 * res)
    return _progression(frac - half * step, step, 2 * half + 1)


def _progression(start, step, count):
    """theta_j = start + j step in the box of every test here, at the times
    (theta_j mod 1) T."""
    T = revival_time(WellSystem())
    times = [float((start + j * step) % 1) * T for j in range(count)]
    return Theta.progression(times, T, start, step)


def _split_sums(exp, theta):
    w = _both_weights(exp)
    assert not packet.takes_fold(theta, len(w)) and theta.step() is not None
    return _phase_sum(exp, w, theta), w


def _oracle_errors(exp, theta, sums, w, at):
    """|split - mp_correlation| of C and C-bar at the samples ``at``, in eps
    of their scale Sum |w_n| = 1."""
    return [abs(sums[k, j] - mp_correlation(w[:, k], exp.levels,
                                            Fraction(int(theta.num[j]), theta.den))) / EPS
            for j in at for k in range(2)]


# (n0, dx0, x0, tau / resolution, steps a side, fraction of T): window scans
# of the revival_large benchmark, N = 283, 363 and 509, q up to 255744
WINDOWS = [
    (1500, 0.009, 0.3, 32, 300, Fraction(1, 2)),
    (3000, 0.007, 0.37, 16, 200, Fraction(1, 3)),
    (3996, 0.005, 0.5, 32, 600, Fraction(1, 2)),
]


@pytest.mark.parametrize("n0, dx0, x0, res, half, frac", WINDOWS,
                         ids=[f"n{w[0]}" for w in WINDOWS])
def test_window_scans_are_within_four_eps_of_the_oracle(sys0, n0, dx0, x0, res, half, frac):
    # the bound of the golden fit points (test_fits.py); over every sample
    # of five such windows (T up to 1201) a long-double sum measured at most
    # 1.96 eps
    exp = build_gaussian_packet(PacketSpec(n0=n0, x0=x0, dx0=dx0), sys0)
    theta = _window(n0, res, half, frac)
    sums, w = _split_sums(exp, theta)
    # samples across the baby and giant steps, the window's ends and its centre
    J = int(np.ceil(np.sqrt(theta.num.size)))
    at = sorted({*range(0, theta.num.size, 37), J - 1, J, half, theta.num.size - 1})
    assert max(_oracle_errors(exp, theta, sums, w, at)) <= 4


def test_random_progressions_are_within_four_eps_of_the_oracle(sys0, rng):
    # small windows on random grids, every sample checked, and the edges: a
    # zero step, a step that wraps, T = 2 and 3 (a small q takes the fold)
    cases = [(int(rng.integers(20, 200)), int(rng.integers(1000, 10**6)),
              *rng.integers(0, 10**6, 2), int(rng.integers(4, 80))) for _ in range(8)]
    cases += [(100, 997, 5, 0, 4), (100, 997, 3, 996, 2), (100, 997, 3, 996, 3)]
    for n0, q, a, b, count in cases:
        exp = build_gaussian_packet(PacketSpec(n0=n0, x0=float(rng.uniform(0.1, 0.9)),
                                               dx0=float(rng.uniform(0.1, 0.3))), sys0)
        theta = _progression(Fraction(int(a), q), Fraction(int(b), q), count)
        sums, w = _split_sums(exp, theta)
        assert max(_oracle_errors(exp, theta, sums, w, range(count))) <= 4, (n0, q, count)


def test_giant_step_blocks_do_not_change_values(monkeypatch, sys0):
    # the correlate-window golden's scan, N = 255 levels, and a dense
    # progression at N = 51: a budget of a few rows splits the giant steps
    # into several blocks, the rows of one GEMM each, and no bit moves.  Both
    # stay within 256 levels: past that, OpenBLAS sums a threaded GEMM in
    # another order than an unthreaded one, whatever the blocks
    for spec, theta in ((PacketSpec(n0=400, x0=0.5, dx0=0.01), _window(400, 32, 64)),
                        (PacketSpec(n0=400, x0=0.3, dx0=0.05),
                         _progression(Fraction(1, 7), Fraction(1, 12345), 5000))):
        exp = build_gaussian_packet(spec, sys0)
        whole, _ = _split_sums(exp, theta)
        N = len(exp.coefficients)
        for rows in (2, 3, 5):
            monkeypatch.setattr(packet, "PHASE_CHUNK_BYTES", 16 * N * rows)
            giants = -(-theta.num.size // int(np.ceil(np.sqrt(theta.num.size))))
            assert len(packet._time_chunks(giants, N)) > 2
            blocked, _ = _split_sums(exp, theta)
            assert np.array_equal(blocked, whole), (N, rows)
        monkeypatch.undo()


def test_window_scan_holds_no_table_of_unit_roots(monkeypatch, sys0):
    # N = 509, T = 1201 samples about T/2 at tau/32: q = 255744.  The chunks
    # held the 4.1 MB table of q unit roots (8.27 MB peak); the split holds
    # its weighted baby steps, one block of giant steps and their int64
    # residues, each root made from a residue block far shorter than q;
    # measured 1.18 MB
    spec = PacketSpec(n0=3996, x0=0.5, dx0=0.005)
    exp = build_gaussian_packet(spec, sys0)
    rep = compute_timescales(sys0, spec)
    theta = _window(3996, 32, 600)
    assert (len(exp.coefficients), theta.num.size, theta.den) == (509, 1201, 255744)
    start, step = Fraction(int(theta.num[0]), theta.den), Fraction(1, theta.den)
    window = (float(start) * rep.T_rev, float(start + 1200 * step) * rep.T_rev)
    sizes = []
    roots = packet.unit_roots

    def recorded(r, q):
        sizes.append(r.size)
        return roots(r, q)

    monkeypatch.setattr(packet, "unit_roots", recorded)
    tracemalloc.start()
    try:
        peaks = revival_scan(exp, window, float(step) * rep.T_rev, 0.9, theta=(start, step))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.fraction for p in peaks] == [(1, 2)]
    assert peak_bytes <= 2 * packet.PHASE_CHUNK_BYTES
    assert sizes and max(sizes) < theta.den

