"""The writer's float kernel against Python's own formatting.

Every cell float_cells lays out must read as `"%.{p}g" % v` (and in JSON
as json_scalar(v, "%.{p}g")), whichever of its paths wrote it: the numpy
digits or the cell-by-cell fallback.  The values are seeded draws plus the
cases that decide between the paths: decimal ties, neighbours of powers of
ten, the switch between fixed and exponent notation, mantissa carry, zero,
subnormals, the largest float, nan, infinities and integral values.
"""

import sys

import numpy as np
import pytest

from wellpacket.writer import KERNEL_MIN, json_scalar, table_text

COUNT = 200_000          # values per precision


def _texts(values, precision: int, json: bool = False) -> list[str]:
    table = [[np.asarray(values, np.float64)]]
    text = b"".join(table_text(table, f"%.{precision}g", json, b"", b"", b"\n"))
    return text.decode().split("\n")[:-1]


def _adversarial(precision: int) -> np.ndarray:
    p = precision
    powers = np.array([float(10 ** k) for k in range(-30, 31)] + [10.0 ** -k for k in range(31)])
    nines = [float(f"{'9' * p}5e{k}") for k in range(-12, 12)]
    values = [
        # exact binary ties of the decimal rounding
        [0.5, 2.5, 1.25, 0.125, 0.375, 999999999999.5, 4503599627370495.5],
        np.arange(-2000, 2000) + 0.5,
        powers, -powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),
        # the switch between exponent and fixed notation, with and without carry
        [9.9995e-5, 9.99995e-5, 0.0001, 9.5e-5, 0.00009999, 1e-5, 0.000099999999999999],
        np.nextafter(9.9995e-5, [np.inf, -np.inf]),
        # mantissas of p nines and a 5: the carry to the next power of ten
        nines, np.nextafter(nines, np.inf), np.nextafter(nines, -np.inf),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         1e-310, sys.float_info.max, -sys.float_info.max, np.nan, np.inf, -np.inf],
        # integral floats, below and past 2**53
        np.arange(-300, 300, dtype=float), [1e15, 9.5e15, 1e16, 123456789012.0, 2.0 ** 60],
    ]
    return np.concatenate([np.asarray(v, np.float64) for v in values])


def _draws(rng, count: int) -> np.ndarray:
    k = count // 5
    mags = 10.0 ** rng.uniform(-30, 40, k) * rng.choice([-1, 1], k)
    ints = np.floor(rng.uniform(-1e17, 1e17, k) / 10.0 ** rng.integers(0, 17, k))
    dyadic = rng.integers(1, 10 ** 7, k) / 2.0 ** rng.integers(1, 30, k)
    near = rng.uniform(0.0, 1.0, k)                 # the observables' usual range
    bits = rng.integers(0, 2 ** 63, count - 4 * k, dtype=np.int64).view(np.float64)
    return np.concatenate([mags, ints, dyadic, near, -bits])


@pytest.mark.parametrize("precision", range(1, 18))
def test_kernel_matches_percent_g(precision):
    rng = np.random.default_rng(1000 + precision)
    values = np.concatenate([_adversarial(precision), _draws(rng, COUNT)])
    num = f"%.{precision}g"
    want = [num % v for v in values.tolist()]
    got = _texts(values, precision)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@pytest.mark.parametrize("precision", range(1, 18))
def test_kernel_matches_json_scalar(precision):
    rng = np.random.default_rng(2000 + precision)
    values = np.concatenate([_adversarial(precision), _draws(rng, COUNT // 10)])
    num = f"%.{precision}g"
    want = [json_scalar(v, num) for v in values.tolist()]
    got = _texts(values, precision, json=True)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_short_columns_and_all_fallback_blocks():
    # below KERNEL_MIN every cell is written by itself; a block with no
    # cell the numpy digits can take is written whole by the fallback
    for values in ([0.1] * (KERNEL_MIN - 1), [0.0] * (2 * KERNEL_MIN),
                   [np.nan, np.inf, 5e-324] * KERNEL_MIN, [2.5] * KERNEL_MIN):
        assert _texts(values, 1) == ["%.1g" % v for v in values]
