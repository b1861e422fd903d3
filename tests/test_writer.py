"""The writer's float kernel against Python's own formatting.

Every cell float_cells lays out must read as `"%.{p}g" % v` (and in JSON
as json_scalar(v, "%.{p}g")), whichever of its paths wrote it: the numpy
digits or the cell-by-cell fallback.  The values are seeded draws plus the
cases that decide between the paths: decimal ties, neighbours of powers of
ten, the switch between fixed and exponent notation, mantissa carry, zero,
subnormals, the largest float, nan, infinities and integral values.  Past
a scale of 10**22 the kernel scales in two steps; those values have tests
of their own at every precision the kernel takes.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from wellpacket import writer
from wellpacket.cli import main
from wellpacket.writer import (KERNEL_MIN, TABLE_CELLS, float_cells, json_chunks, json_scalar,
                               table_text)

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


@pytest.mark.parametrize("value", [np.int64(3), object()], ids=["int64", "object"])
def test_json_scalar_refuses_other_types(value):
    with pytest.raises(TypeError, match=f"^cannot write {type(value).__name__} to JSON$"):
        json_scalar(value, "%.12g")


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


def _far_scales(rng, precision: int, count: int) -> np.ndarray:
    """Values whose scale to a p-digit mantissa passes 10**22, up to and a
    little past 10**44: draws from 1e-45 to 1e-22 and 1e22 to 1e45 (to the
    ends of the scale range at this p), powers of ten and their neighbours,
    the floats nearest decimal ties, exact ties and mantissas of p nines."""
    p = precision
    k = count // 2
    mags = np.concatenate([10.0 ** rng.uniform(min(p - 46, -45), -22, k),
                           10.0 ** rng.uniform(22, max(p + 45, 45), k)])
    exps = [j for j in range(p - 48, p + 47) if abs(j) >= 21]
    powers = np.array([float(f"1e{j}") for j in exps])
    mantissas = rng.integers(10 ** (p - 1), 10 ** p, len(exps))
    near_ties = np.array([float(f"{m}5e{j - p}") for m, j in zip(mantissas.tolist(), exps)])
    nines = np.array([float(f"{'9' * p}5e{j - p}") for j in exps])
    # (m + 1/2) 10**j exactly, where the float holds it
    ties = [(2 * m + 1) * 10 ** j // 2 for m in mantissas.tolist() for j in range(22, 46)]
    ties = np.array([float(v) for v in ties if int(float(v)) == v])
    values = [mags * rng.choice([-1, 1], mags.size), ties]
    for v in (powers, near_ties, nines):
        values += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf), -v]
    return np.concatenate(values)


@pytest.mark.parametrize("json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("precision", range(1, 15))
def test_kernel_matches_past_ten_to_the_22(precision, json):
    # the kernel scales these by two powers of ten, 10**22 and 10**(scale - 22)
    rng = np.random.default_rng(3000 + precision + 100 * json)
    values = _far_scales(rng, precision, 20_000)
    num = f"%.{precision}g"
    one = (lambda v: json_scalar(v, num)) if json else num.__mod__
    want = [one(v) for v in values.tolist()]
    got = _texts(values, precision, json)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@pytest.fixture()
def one_by_one(monkeypatch):
    """The texts written cell by cell (through _text_cells) while a test runs."""
    texts, text_cells = [], writer._text_cells

    def counted(cells, width=0):
        cells = list(cells)
        texts.extend(cells)
        return text_cells(cells, width)

    monkeypatch.setattr(writer, "_text_cells", counted)
    return texts


@pytest.mark.parametrize("json", [False, True], ids=["csv", "json"])
def test_density_tails_stay_in_the_kernel(json, one_by_one):
    # 4096 density tails near 1e-30 at the default precision, their
    # mantissas a quarter away from a tie: not one is written by itself
    mantissas = np.random.default_rng(4096).integers(10 ** 11, 10 ** 12, TABLE_CELLS)
    values = np.array([float(f"{m}.25e-41") for m in mantissas.tolist()])
    out = float_cells(values, "%.12g", json)
    assert one_by_one == []
    one = (lambda v: json_scalar(v, "%.12g")) if json else "%.12g".__mod__
    got = [c.tobytes().translate(None, bytes([writer.PAD])).decode() for c in out.T]
    assert got == [one(v) for v in values.tolist()]


def _integral(rng, precision: int, count: int) -> np.ndarray:
    """Values whose text at this precision is integral fixed notation,
    "%g" 12 where float.__repr__ writes 12.0: integers of 1 to p digits,
    p-digit integers with a fraction the rounding drops, and integers times
    powers of ten below 10**p; each also negated."""
    p = precision
    k = count // 3
    digits = rng.integers(1, p + 1, k)
    ints = np.floor(10.0 ** (digits - 1 + rng.uniform(0, 1, k)))
    fractions = rng.integers(10 ** (p - 1), 10 ** p, k) + rng.choice([0.125, 0.25, 0.375], k)
    scaled = rng.integers(1, 10, k) * 10.0 ** rng.integers(0, p, k)
    values = np.concatenate([ints, fractions, scaled, [1.0, 9.0, 10.0 ** (p - 1)]])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("precision", range(1, 15))
def test_json_integral_values_stay_in_the_kernel(precision, one_by_one):
    values = _integral(np.random.default_rng(5000 + precision), precision, 6000)
    num = f"%.{precision}g"
    want = [json_scalar(v, num) for v in values.tolist()]
    assert all(w.endswith(".0") and "e" not in w for w in want)
    got = _texts(values, precision, json=True)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]
    assert one_by_one == []


def test_integral_momenta_stay_in_the_kernel(one_by_one):
    # an evolve momentum axis in JSON, multiples of a unit spacing: only
    # its zero is written by itself
    values = np.arange(-TABLE_CELLS // 2, TABLE_CELLS // 2, dtype=float)
    out = float_cells(values, "%.12g", True)
    assert one_by_one == ["0.0"]
    got = [c.tobytes().translate(None, bytes([writer.PAD])).decode() for c in out.T]
    assert got == [json_scalar(v, "%.12g") for v in values.tolist()]


@pytest.mark.parametrize("json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("precision", range(1, 15))
def test_kernel_cells_do_not_depend_on_their_neighbours(precision, json):
    # the layout blends whole rows by masks, over row ranges set by the
    # column's extremes: a shuffled column lays out the same cells,
    # shuffled, the fallback's cells and the rows that no cell uses included
    rng = np.random.default_rng(6000 + precision + 100 * json)
    values = np.concatenate([_adversarial(precision), _draws(rng, 4000)])
    values = values[rng.permutation(values.size)]
    perm = rng.permutation(values.size)
    num = f"%.{precision}g"
    shuffled = float_cells(values[perm], num, json)
    assert np.array_equal(shuffled, float_cells(values, num, json)[:, perm])


def _interleaved(precision: int) -> tuple:
    """A column whose neighbouring cells differ in sign, in exponent (so in
    point row, leading zeros and notation) and in digit count (so in
    width): exact decimals of 1 to p digits, the last nonzero, for each
    exponent from -7 to p + 2, four times over; and their exponents."""
    p = precision
    rng = np.random.default_rng(7000 + p)
    values, exps = [], []
    for d in [*range(1, p + 1)] * 4:
        for e in range(-7, p + 3):
            mantissa = int(rng.integers(10 ** (d - 1), 10 ** d)) // 10 * 10
            mantissa += int(rng.integers(1, 10))
            values.append((-1) ** len(values) * float(f"{mantissa}e{e - d + 1}"))
            exps.append(e)
    return np.array(values), exps


@pytest.mark.parametrize("json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("precision", [1, 2, 5, 9, 12, 14])
def test_interleaved_cells_stay_in_the_kernel(precision, json, one_by_one):
    # neighbours differ in sign, point row (0 to p - 1), leading zeros
    # (0 to 4), notation and width; each cell reads as `%` and json_scalar
    # write it, and only JSON's exponents p to 15 go one by one
    values, exps = _interleaved(precision)
    num = f"%.{precision}g"
    one = (lambda v: json_scalar(v, num)) if json else num.__mod__
    out = float_cells(values, num, json)
    got = [c.tobytes().translate(None, bytes([writer.PAD])).decode() for c in out.T]
    assert got == [one(v) for v in values.tolist()]
    assert one_by_one == [one(v) for v, e in zip(values.tolist(), exps)
                          if json and precision <= e <= 15]


@pytest.mark.parametrize("json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("column, kind", [
    ([0.5] * 3, "list"), (np.arange(3), "int64"), (np.array(["a", 1, None], object), "object"),
], ids=["list", "int64", "object"])
def test_table_columns_of_other_kinds_are_refused(column, kind, json):
    # a column is a float64 or a bytes array; an int64 array would
    # otherwise reach the bytes layout and be written as raw bytes
    blocks = [[np.zeros(3), column]]
    with pytest.raises(TypeError, match=f"not {kind}$"):
        if json:
            b"".join(json_chunks({"rows": iter(blocks)}, "%.12g"))
        else:
            b"".join(table_text(blocks, "%.12g", False, b"", b",", b"\n"))


POWERLAW = "[powerlaw]\nk = 1.5, 2, 2.05, infinity\nn_min = 0\nn_max = 300\n"


def _powerlaw_rows(out, fmt: str) -> list:
    """The spectrum rows of a powerlaw run, each cell as the file spells it."""
    if fmt == "json":
        rows = json.loads((out / "powerlaw.json").read_text())["rows"]
        return [[v if isinstance(v, str) else repr(v) for v in r] for r in rows]
    lines = (out / "powerlaw.csv").read_text().splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")][1:]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_powerlaw_text_columns_stay_in_the_kernel(fmt, tmp_path, one_by_one, monkeypatch):
    # k, n and T_rev ("periodic" for the oscillator, blank at n = 0) are
    # bytes arrays laid out whole, and the float cells of all four wells,
    # each well's one-row n = 0 block included, go through one float_cells
    # call: the cells written by themselves are the ones that call sends
    # one by one, none for being in a short block
    calls, kernel = [], writer.float_cells

    def spy(values, num, json):
        calls.append(values.copy())
        return kernel(values, num, json)

    monkeypatch.setattr(writer, "float_cells", spy)
    ini = tmp_path / "run.ini"
    ini.write_text(POWERLAW)
    assert main(["powerlaw", "--config", str(ini), "--out", str(tmp_path), "--format", fmt]) == 0
    rows = _powerlaw_rows(tmp_path, fmt)
    assert len(rows) == 4 * 301 and {r[4] for r in rows if r[1] == "0"} == {""}
    assert [r[4] for r in rows if r[0] == "2" and r[1] != "0"] == ["periodic"] * 300
    assert [r[0] for r in rows[::301]] == ["1.5", "2", "2.05", "infinity"]
    floats = [cell for r in rows for cell in r[2:5] if cell not in ("", "periodic")]
    assert len(calls) == 1 and calls[0].size == len(floats)
    alone = list(one_by_one)
    one_by_one.clear()
    kernel(calls[0], "%.12g", fmt == "json")
    assert alone == one_by_one


def _mixed_blocks(width: int) -> list:
    """Blocks of 1, KERNEL_MIN - 1 and about TABLE_CELLS // width rows:
    column 0 is float64 in every block (negative in one), column 1 float64,
    a float broadcast, bytes or a bytes broadcast by turns, the rest bytes
    (in one block with a byte JSON escapes)."""
    rng = np.random.default_rng(31)
    step = TABLE_CELLS // width
    blocks = []
    for i, n in enumerate([1, KERNEL_MIN - 1, step - 1, 1, step, step + 1, KERNEL_MIN - 1, 2, 1]):
        values = rng.uniform(-5, 5, n) * 10.0 ** rng.integers(-8, 8, n)
        values[::7] = [0.0, np.nan, 2.5, 1e22][i % 4]
        second = [values * 3, np.broadcast_to(0.125 * i, (n,)),
                  rng.integers(0, 10 ** (i + 1), n).astype("S"),
                  np.broadcast_to(np.array(b"periodic"), (n,))][i % 4]
        text = np.arange(i * 1000, i * 1000 + n).astype("S")
        if i == 5:
            text[::3] = b'q"x'
        first = -np.abs(values) if i == 2 else values
        blocks.append([first, second] + [text] * (width - 2))
    return blocks


@pytest.mark.parametrize("json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("width", [3, 5])
def test_slices_that_span_blocks_write_what_each_block_writes(width, json, monkeypatch):
    # a slice takes its rows from as many blocks as fit, up to TABLE_CELLS
    # cells, and formats their float columns in one kernel call (a
    # broadcast's one cell apart); its text is the blocks' own, written one
    # at a time and joined
    blocks = _mixed_blocks(width)
    seps = (b",\n  [", b",", b"]") if json else (b"", b",", b"\n")
    calls, kernel = [], writer.float_cells

    def spy(values, num, json):
        calls.append(values.strides != (0,))
        return kernel(values, num, json)

    monkeypatch.setattr(writer, "float_cells", spy)
    slices = list(table_text(iter(blocks), "%.9g", json, *seps))
    rows = sum(len(b[0]) for b in blocks)
    assert len(slices) == sum(calls) == -(-rows // (TABLE_CELLS // width))
    alone = [b"".join(table_text(iter([b]), "%.9g", json, *seps)) for b in blocks]
    assert b"".join(slices) == b"".join(alone)
    one = (lambda v: json_scalar(v, "%.9g")) if json else "%.9g".__mod__

    def cell(c):
        if isinstance(c, float):
            return one(c).encode()
        return json_scalar(c.decode(), "").encode() if json else c
    want = [seps[0] + seps[1].join(cell(c) for c in row) + seps[2]
            for b in blocks for row in zip(*(c.tolist() for c in b))]
    assert b"".join(slices) == b"".join(want)


def test_powerlaw_run_imports_no_string_module(tmp_path):
    # numpy.char and numpy.strings page in about 0.4 MB; the bytes columns
    # are laid out without them
    ini = tmp_path / "run.ini"
    ini.write_text(POWERLAW)
    code = ("import sys\nfrom wellpacket.cli import main\n"
            "for fmt in ('csv', 'json'):\n"
            f"    assert main(['powerlaw', '--config', {str(ini)!r}, '--out', {str(tmp_path)!r},"
            " '--format', fmt]) == 0\n"
            "print(sorted(m for m in ('numpy.char', 'numpy.strings') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert sorted(os.listdir(tmp_path)) == ["powerlaw.csv", "powerlaw.json", "run.ini"]
