"""Invariants over randomly drawn packets and matrix-element windows."""

import json
import math
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellpacket import (PacketSpec, Theta, WellSystem, autocorrelation,
                        build_gaussian_packet, build_matrix_elements,
                        compute_timescales, eigenenergy, expectation_series,
                        mirror_correlation_series, parse_config, run_correlate)
from wellpacket.runs import _Output
from wellpacket.writer import KERNEL_MIN, TABLE_CELLS, json_chunks

from oracles import operator_block

SYS = WellSystem()
EPS = np.finfo(float).eps

# Examples are drawn from a fixed seed so that the suite gives the same
# verdict on every run.  dx0 down to 0.01 L keeps windows at or below
# ~250 levels, so each example takes milliseconds.
packets = st.builds(
    PacketSpec,
    n0=st.integers(1, 3000),
    x0=st.floats(0.05, 0.95),
    dx0=st.floats(0.01, 0.2),
)


def _packet(spec):
    return build_gaussian_packet(spec, SYS), compute_timescales(SYS, spec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(packets)
def test_norm_and_full_and_half_revivals(spec):
    exp, rep = _packet(spec)
    assert abs(float(np.sum(np.abs(exp.coefficients) ** 2)) - 1.0) < 1e-13
    assert abs(abs(autocorrelation(exp, rep.T_rev)) - 1.0) < 1e-12
    assert abs(abs(mirror_correlation_series(exp, [rep.T_rev / 2.0])[0]) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 40000), st.floats(0.01, 0.2), st.integers(1, 100))
@example(n0=40000, dx0=0.01, k=100)
def test_late_revivals_are_exact_through_the_config(n0, dx0, k):
    # |C(kT)| = |C-bar((k + 1/2) T)| = 1 for every k.  Times written in T
    # are exact fractions, so neither may drift as n0^2 k grows; float
    # phases were off by up to 3.4e-9 at n0 = 40000, k = 100.
    cfg = parse_config(f"[packet]\nn0 = {n0}\nx0 = 0.5\ndx0 = {dx0!r}\n"
                       f"[schedule]\nmode = explicit\ntimes = {k}T, {k}.5T\n"
                       "[output]\nprecision = 17\n")
    with tempfile.TemporaryDirectory() as out:
        (path,) = run_correlate(cfg, out)
        rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=3, ndmin=2)
    assert abs(rows[0, 1] - 1.0) <= 1e-12
    assert abs(rows[1, 2] - 1.0) <= 1e-12


fractions = st.fractions(-10, 10, max_denominator=10 ** 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fractions, fractions, st.integers(2, 40))
@example(Fraction(1, 6), Fraction(1, 3), 2)
@example(Fraction(3, 4), Fraction(2), 5)
def test_progression_denominator_is_the_least(start, step, count):
    # Fractions are reduced, so the denominator lcm(den start, den step) is
    # already the least q with every theta_j q an integer: from two terms
    # on, q must make theta_0 = start and theta_1 - theta_0 = step integers
    # T = 1, so that each time is its own theta
    times = [float(start + j * step) for j in range(count)]
    grid = Theta.progression(times, 1.0, start, step)
    assert grid.den == math.lcm(*((start + j * step).denominator for j in range(count)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(packets, st.floats(0.0, 1.0))
def test_mean_position_stays_in_the_well(spec, start):
    exp, rep = _packet(spec)
    times = (start + np.linspace(0.0, 1.0, 257)) * rep.T_rev
    x = expectation_series(exp, "x", times)
    L = SYS.width_L
    assert np.all(x >= -1e-12 * L) and np.all(x <= L * (1.0 + 1e-12))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3000), st.integers(2, 150))
def test_momentum_table_is_the_position_commutator(n_min, size):
    # p_mn = i (M/hbar) (E_m - E_n) x_mn holds exactly for the closed forms;
    # the rounding of the x bracket grows with the level index, measured
    # at about eps * n_max relative to max |p_mn|.
    n_max = n_min + size - 1
    table = build_matrix_elements(n_min, n_max, SYS)
    E = np.array([eigenenergy(n, SYS) for n in range(n_min, n_max + 1)])
    commutator = 1j * (SYS.mass / SYS.hbar) * (E[:, None] - E[None, :]) * table.rows("x", slice(None))
    p = operator_block(table, "p")
    scale = float(np.max(np.abs(p)))
    assert np.max(np.abs(p - commutator)) <= 4.0 * EPS * n_max * scale


def _rounded(obj, precision):
    """The reference rounding: each float to `precision` significant digits,
    tuples to lists, for json.dumps."""
    if isinstance(obj, float):
        return float(f"{obj:.{precision}g}")
    if isinstance(obj, dict):
        return {k: _rounded(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, precision) for v in obj]
    return obj


json_strings = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"x"', "\x00", "\n\t\x1f\x7f", "é", "漢字", "\U0001f600",
                     "a\u2028b"]))
json_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    # 1.7e308 rounds past DBL_MAX at one digit, and -DBL_MAX at up to 16;
    # 1e15, 9.5e15 and 123456789012.0 are written in exponent form by %g
    # but fixed by repr; subnormals keep fewer digits than %g prints
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 0.1, 123456.5,
                     1.7e308, -1.7976931348623157e308, 1e15, 9.5e15, 123456789012.0,
                     5e-324, 1.2345678901234e-310]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))
json_cells = st.one_of(st.none(), st.booleans(), st.integers(), json_floats, json_strings)
json_payloads = st.recursive(
    json_cells,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(inner, max_size=6).map(tuple),
                            st.dictionaries(json_strings, inner, max_size=6)),
    max_leaves=20)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(json_payloads, st.integers(1, 17))
@example([1.7e308], 1)
def test_json_writer_matches_json_dumps_of_rounded_values(payload, precision):
    chunks = list(json_chunks(payload, f"%.{precision}g"))
    assert all(isinstance(c, (bytes, memoryview)) for c in chunks)
    assert b"".join(chunks).decode() == json.dumps(
        _rounded(payload, precision), indent=2, sort_keys=True)


class TextColumn(list):
    """The values of a str column that _table hands as a numpy bytes array."""


# A bytes column's cells: empty ones, and quotes, backslashes, control
# bytes, DEL and non-ASCII, which JSON writes through the escaping fallback.
# numpy's S dtype drops trailing NULs, so the writer's contract is cells
# without NUL, and these draws hold none.
byte_texts = st.one_of(
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
    st.sampled_from(["", "periodic", "\\", '"', "\x1f", "\x7f", "é"]),
    json_strings).filter(lambda s: "\x00" not in s)
# the fast layout with cells of several lengths; and single-row blocks, one
# escaped byte per column
text_examples = [([TextColumn(["", "periodic", "1.5"]), TextColumn(["x"])], 2 * KERNEL_MIN + 3,
                  40, 3),
                 ([TextColumn(["\\"]), TextColumn(['"']), TextColumn(["\x1f"]),
                   TextColumn(["\x7f", "é", ""])], 7, 1, 3)]
text_columns = st.lists(byte_texts, min_size=1, max_size=6).map(TextColumn)


class FloatConstant(list):
    """The one value of a float column that _table hands as a broadcast_to
    view, which the writer formats once for the whole column."""


# constants of every kind, among them the values the kernel writes one by
# one: zeros, nan and infinities (drawn by json_floats) and decimal ties
# (2.5 at one digit, 0.125 at two, 1.125 at three)
float_constants = st.one_of(json_floats, st.sampled_from([2.5, 0.125, 1.125])).map(
    lambda v: FloatConstant([v]))
# One column of a table, of one of the writer's two kinds: a few floats or
# texts, repeated down the rows, or one float broadcast.  A table has at
# least one column: its blocks carry their row count in their columns.
table_columns = st.one_of(st.lists(json_floats, min_size=1, max_size=6), text_columns,
                          float_constants)
# Row counts below, at and past the shortest float column the kernel takes.
table_rows = st.sampled_from([0, 1, 7, KERNEL_MIN - 1, KERNEL_MIN, 2 * KERNEL_MIN + 3])
# broadcast float columns beside float columns the kernel takes (each
# table's rows in one block) and text columns, at one row, just below and
# at the kernel's shortest column, and over two blocks of TABLE_CELLS
const_examples = [
    ([FloatConstant([0.125]), [0.125, -1.5e-7, 3.0], FloatConstant([-0.0])], 1, 1, 2),
    ([FloatConstant([math.nan]), [1.0, 2.5, -0.1], FloatConstant([math.inf])],
     KERNEL_MIN - 1, KERNEL_MIN - 1, 1),
    ([FloatConstant([2.5]), [0.1, 123456.5, 1e16], FloatConstant([0.0]), TextColumn(["x"])],
     KERNEL_MIN, KERNEL_MIN, 1),
    ([[0.1, -2.0, 1e-5, 7.25], FloatConstant([1.125]), FloatConstant([-math.inf]),
      TextColumn(["a", "bc"]), FloatConstant([0.05500000000000001])],
     2 * TABLE_CELLS + 3, 2 * TABLE_CELLS + 3, 3),
]


def _table(columns, n_rows, block_rows):
    """The rows, and the same table as blocks of `block_rows` rows of
    columns, as the run drivers hand them: float columns as float64 arrays,
    each FloatConstant as a broadcast_to view of its value, and each
    TextColumn as a UTF-8 bytes array, a broadcast_to view if it holds one
    value."""
    full = [[col[i % len(col)] for i in range(n_rows)] for col in columns]
    rows = [tuple(c[i] for c in full) for i in range(n_rows)]
    for k, col in enumerate(columns):
        if isinstance(col, FloatConstant):
            full[k] = np.broadcast_to(np.float64(col[0]), n_rows)
        elif not isinstance(col, TextColumn):
            full[k] = np.array(full[k], np.float64)
        elif len(col) == 1:
            full[k] = np.broadcast_to(np.array(col[0].encode()), n_rows)
        else:
            full[k] = np.array([v.encode() for v in full[k]], "S")
    blocks = [[c[i:i + block_rows] for c in full] for i in range(0, n_rows, block_rows)]
    return rows, blocks


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(table_columns, min_size=1, max_size=5), table_rows, st.integers(1, 40),
       st.integers(1, 17))
@example(*text_examples[0])
@example(*text_examples[1])
@example(*const_examples[0])
@example(*const_examples[1])
@example(*const_examples[2])
@example(*const_examples[3])
def test_json_row_stream_matches_json_dumps_of_rounded_rows(columns, n_rows, block_rows,
                                                            precision):
    rows, blocks = _table(columns, n_rows, block_rows)
    rows = [tuple(float(v) if isinstance(v, np.floating) else v for v in r) for r in rows]
    # compared line by line, so that a failing table of 32771 rows reports
    # its first differing line rather than a text diff that takes minutes
    text = b"".join(json_chunks({"rows": iter(blocks)}, f"%.{precision}g")).decode()
    assert text.split("\n") == json.dumps(
        _rounded({"rows": rows}, precision), indent=2, sort_keys=True).split("\n")


def _csv_reference(names, rows, precision: int) -> bytes:
    """The CSV table as the row-template writer wrote it: one '%'-template
    per row, "%s" for a str cell and "%.{p}g" for any other."""
    num = f"%.{precision}g"
    lines = [",".join(names) + "\n"]
    for row in rows:
        template = ",".join("%s" if isinstance(v, str) else num for v in row) + "\n"
        lines.append(template % row)
    return "".join(lines).encode()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(table_columns, min_size=1, max_size=5), table_rows, st.integers(1, 40),
       st.integers(1, 17))
@example(*text_examples[0])
@example(*text_examples[1])
@example(*const_examples[0])
@example(*const_examples[1])
@example(*const_examples[2])
@example(*const_examples[3])
def test_csv_table_matches_the_row_template_writer(columns, n_rows, block_rows, precision):
    rows, blocks = _table(columns, n_rows, block_rows)
    names = [f"c{i}" for i in range(len(columns))]
    cfg = parse_config(f"[output]\nprecision = {precision}\n")
    with tempfile.TemporaryDirectory() as out:
        with open(_Output(cfg, "test", out).emit("table", names, blocks, {}), "rb") as fh:
            text = fh.read()
    # line by line, as in the JSON test above
    assert text.split(b"\n")[2:] == _csv_reference(names, rows, precision).split(b"\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_longer_than_a_block_are_written_whole(fmt, tmp_path):
    # one block of columns longer than TABLE_CELLS is written in slices
    n = 2 * TABLE_CELLS + 3
    t = np.arange(n) * 0.125 - 7.0
    labels = [f"s{i % 7}" for i in range(n)]
    cfg = parse_config(f"[output]\nformat = {fmt}\n")
    column = np.array([s.encode() for s in labels], "S")
    _Output(cfg, "test", tmp_path).emit("table", ["t", "s"], [(t, column)], {})
    text = (tmp_path / f"table.{fmt}").read_bytes()
    rows = list(zip(t.tolist(), labels))
    if fmt == "json":
        assert json.loads(text)["rows"] == [list(r) for r in rows]
    else:
        assert text.split(b"\n", 2)[2] == _csv_reference(["t", "s"], rows, 12)


def test_json_row_stream_refuses_ragged_rows():
    # columns of one block differ in length, or a later block in width
    for blocks in ([[np.zeros(KERNEL_MIN + 1), np.ones(KERNEL_MIN)]],
                   [[np.zeros(3), np.ones(3)], [np.zeros(2)]]):
        with pytest.raises(ValueError, match="equal length"):
            b"".join(json_chunks({"rows": iter(blocks)}, "%.12g"))
