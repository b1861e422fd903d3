"""The bytes of the CSV tables and JSON documents the run drivers write.

A table is an iterator of blocks of rows: each block a sequence of
equal-length columns.  A column is of one of two kinds: a float64 array,
or a numpy bytes array (dtype S) of UTF-8 text cells; any other column
raises TypeError.  Its text is laid out in numpy as uint8, one row per
character position and one column per cell, so that every operation runs
along the cells.  Each cell is padded to its column's width with PAD, a
byte that UTF-8 text never holds, and bytes.translate strips the padding.
Floats go through one kernel, float_cells, which writes exactly
`"%.{p}g" % v`; bytes columns are laid out whole by _bytes_cells; and a
column of stride 0 (a broadcast_to view) has its one cell laid out once
and broadcast.  A table is written in slices of at most TABLE_CELLS
cells, a slice taking its rows from as many consecutive blocks as fit:
the float columns of all its blocks go through one float_cells call, its
rows fill one buffer cut from a row template of the constant bytes, and
one bytes.translate strips it.  float_cells makes about 150 numpy calls
whatever its input's size, its byte rows blended by uint8 arithmetic, not
masked copies, so that their cost does not depend on the values; a table
of many short blocks costs about what one long block does, and a larger
slice costs less per cell, while the writer's peak memory grows with it,
about 130 bytes a cell.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["Unrounded", "float_cells", "json_chunks", "json_scalar", "table_text"]

PAD = 0xFF
TABLE_CELLS = 16384     # cells formatted at once; the writer's peak is ~130 B a cell
KERNEL_MIN = 32         # fewer float cells than this are formatted one by one

# json.dump's spellings of the float values that have no JSON number
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}
# the bytes a JSON string holds as they are (encode_basestring_ascii
# escapes controls, '"', '\\', DEL and every non-ASCII byte), and NUL, a
# bytes column's padding
_PLAIN = bytes([0, *range(32, 127)]).translate(None, b'"\\')


class Unrounded(float):
    """A float that json_scalar writes as float.__repr__ spells it, not
    rounded by the template: a label, such as a well's exponent k, not a
    measurement."""


def json_scalar(value, num: str) -> str:
    """One JSON scalar as json.dump writes it, a float first rounded by the
    `num` template (a float subclass such as np.float64 included) unless
    it is Unrounded."""
    if isinstance(value, float):
        text = float.__repr__(value if type(value) is Unrounded else float(num % value))
        return _NONFINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} to JSON")


_TABLES = []      # filled on first use, in one step


def _tables():
    """Lookup tables, built on first use: the exponent suffixes "e-99" to
    "e+99", one column apiece, and the powers of ten up to 10**22 as
    floats."""
    if _TABLES:
        return _TABLES
    suffixes = "".join(f"e{k:+03d}" for k in range(-99, 100)).encode()
    suffixes = np.frombuffer(suffixes, np.uint8).reshape(-1, 4).T.copy()
    pow10 = np.array([float(10 ** k) for k in range(23)])     # exact up to 10**22
    _TABLES[:] = suffixes, pow10
    return _TABLES


def _text_cells(texts, width: int = 0):
    """The UTF-8 bytes of each str of `texts`, PAD-padded to at least
    `width`, one row per byte position."""
    data = [t.encode() for t in texts]
    width = max(width, max(map(len, data), default=0))
    pad = bytes([PAD])
    cells = b"".join(d.ljust(width, pad) for d in data)
    return np.frombuffer(cells, np.uint8).reshape(len(data), width).T


def float_cells(values, num: str, json: bool):
    """The text of `num % v` ("%.{p}g") for each v of the float64 array
    `values`, or with `json` of json_scalar(v, num), as _text_cells lays
    it out: a sign row, the body (digits, point, the zeros of "0.000"),
    and four rows of exponent suffix, the sign and suffix rows only if a
    cell uses them.

    |v| is scaled by one exact power of ten, or two past 10**22, to a
    p-digit integer mantissa and rounded (float64); its exponent, point
    row and width kept as int16 and uint8; the mantissa, shifted by the
    leading zeros, cut into 8-digit uint32 chunks and 4-digit uint16
    quads, and the digits of every quad divided out at once; the rows
    laid out by uint8 blends.  These cells are written one by one instead:
    zero, subnormal and non-finite values; those whose scale passes
    10**44; those within 4 ulp (of 10**p) of a rounding tie, which the
    scaling's rounding may send either way; those just below a power of
    ten whose log10 rounds up to it; in JSON those in exponent form for
    exponents p to 15, which float.__repr__ spells in fixed notation
    (integral fixed text takes its ".0" here); and every cell of fewer
    than KERNEL_MIN, or at p >= 15, where 4 ulp reach the tie.
    """
    p = int(num[2:-1])
    one = (lambda v: json_scalar(v, num)) if json else num.__mod__
    n = values.size
    if n < KERNEL_MIN or p > 14:
        return _text_cells(map(one, values.tolist()))
    a = np.abs(values)
    ok = a >= sys.float_info.min
    ok &= a <= sys.float_info.max
    a[np.flatnonzero(~ok)] = 1.0
    # y = |v| * 10**scale in one correctly rounded operation (two past
    # 10**22).  Just past a power of ten, log10 may land below the integer;
    # y then rounds to 10**p and the carry gives the same text.  Just below
    # one it may land on the integer, and y < 10**(p-1) has a digit too few
    # (at p = 14 and |e| >= 32 that changes the text): those go one by one.
    suffixes, pow10 = _tables()
    e = np.floor(np.log10(a))
    scale = ((p - 1) - e).astype(np.intp)
    size = np.abs(scale)
    ok &= size <= 44
    y = a * pow10.take(scale, mode="clip")
    down = np.flatnonzero(scale < 0)
    y[down] = a[down] / pow10.take(-scale[down], mode="clip")
    far = np.flatnonzero(size > 22)
    if far.size:
        # 22 < |scale| <= 44: a second exact power of ten, 10**(|scale| - 22);
        # the two roundings stay within about 2 ulp of 10**p, inside the
        # 4-ulp tie margin below
        step = pow10.take(size[far] - 22, mode="clip")
        y[far] = np.where(scale[far] > 0, y[far] * step, y[far] / step)
    lo, hi = pow10[p - 1], pow10[p]
    m = np.rint(y)
    ok &= np.abs(y - m) < 0.5 - 4 * math.ulp(hi)
    ok &= y >= lo
    carry = np.flatnonzero(m >= hi)
    m[carry] = lo
    e[carry] += 1
    bad = np.flatnonzero(~ok)
    m[bad] = 0.0
    e[bad] = 0.0
    del a, y, scale, size     # the kernel holds as little as it can at a time

    # fixed notation for -4 <= e < p: z zeros ("0.000" at most) before the
    # digits, the point after digit pe (0 in exponent form), and at least
    # the digits up to the point
    e = e.astype(np.int16)
    fixed = (e >= -4) & (e < p)
    ef = e * fixed
    z = np.maximum(-ef, 0).astype(np.uint8)
    pe = np.maximum(ef, 0).astype(np.uint8)

    # seq: the z zeros, the p digits, then zeros, as the p + 4 digit field
    # of the integer m * 10**(4 - z) (below 2**63 for p <= 14), by chunks
    # and quads; shown: the digits up to the last nonzero one, or up to
    # the point, found in one pass over the rows
    chunks = (p + 11) // 8
    quads = np.empty((2 * chunks, n), np.uint16)
    mi = m.astype(np.int64) * np.array([10000, 1000, 100, 10, 1]).take(z)
    for c in range(chunks - 1, -1, -1):
        r = mi
        if c:
            mi = r // 10 ** 8
            r = r - mi * 10 ** 8
        r = r.astype(np.uint32)
        quads[2 * c] = h = r // 10000
        quads[2 * c + 1] = r - h * 10000
    digits = np.empty((2 * chunks, 4, n), np.uint8)
    for j in (3, 2, 1):
        q = quads // 10
        digits[:, j] = quads - q * 10
        quads = q
    digits[:, 0] = quads
    digits += 48
    seq = digits.reshape(8 * chunks, n)[8 * chunks - p - 4:]
    last = ((seq != 48) * np.arange(1, p + 5, dtype=np.uint8)[:, None]).max(axis=0)
    shown = np.maximum(last, z + pe + 1)
    point = shown > pe + 1
    del m, mi, r, h, q, quads, last, z
    whole = False
    if json:
        # float.__repr__ spells integral fixed text "12" as "12.0": the
        # point, and after it the next digit of seq, a zero
        whole = fixed & (e >= 0) & ~point
        ok &= ~((e >= p) & (e <= 15))
        bad = np.flatnonzero(~ok)
    if bad.size == n:
        return _text_cells(map(one, values.tolist()))
    width = (shown + (point | whole) + whole) * ok

    # the layout blends bytes by uint8 arithmetic, b + (a - b) * mask (exact
    # mod 256), where a masked copy would branch on every byte; body: seq
    # with a point after digit pe, in every cell, then PAD from its width
    # on (a cell with no point has width pe + 1)
    S = int(width.max())
    neg = ok & (values < 0)
    expo = ok & ~fixed
    sign, tail = int(neg.any()), 4 * int(expo.any())
    out = np.empty((sign + S + tail, n), np.uint8)
    if sign:
        out[0] = PAD - neg * np.uint8(PAD - 45)
    if tail:
        out[-4:] = PAD
        cells = np.flatnonzero(expo)
        out[-4:, cells] = suffixes.take(e[cells] + 99, axis=1)
    body = out[sign:sign + S]
    i, j = int(pe.min()) + 1, min(int(pe.max()) + 2, S)
    body[:i] = seq[:i]
    body[j:] = seq[j - 1:S - 1]
    k = np.arange(i, j, dtype=np.uint8)[:, None]
    rows = seq[i - 1:j - 1] + (seq[i:j] - seq[i - 1:j - 1]) * (k <= pe)
    body[i:j] = rows + (46 - rows) * (k == pe + 1)
    low = int(np.min(width, where=ok, initial=S))
    body[low:] += (PAD - body[low:]) * (np.arange(low, S, dtype=np.uint8)[:, None] >= width)

    if bad.size:
        texts = _text_cells(map(one, values[bad].tolist()), len(out))
        if len(texts) > len(out):
            out = np.vstack([out, np.full((len(texts) - len(out), n), PAD, np.uint8)])
        out[:, bad] = texts
    return out


def _bytes_cells(col, json: bool):
    """The laid-out text of the numpy bytes array `col` (dtype S) of UTF-8
    cells: each cell's bytes as they are, in JSON as a string.  numpy's S
    dtype drops trailing NULs, so a cell must hold no NUL byte; NUL is the
    padding.

    The fixed-width cells are viewed as an (n, itemsize) uint8 block, a
    broadcast constant at stride 0, and copied whole into the (position,
    cell) layout, NUL turned into PAD, one row per byte of the itemsize.
    JSON adds a quote row on each side; the padding between a cell and its
    closing quote is stripped with the rest.  A JSON column with any byte
    that needs an escape is written cell by cell instead."""
    if json and col.tobytes().translate(None, _PLAIN):
        return _text_cells(encode_basestring_ascii(c.decode()) for c in col.tolist())
    block = col[:, None].view(np.uint8).T
    q = int(json)
    out = np.empty((len(block) + 2 * q, col.size), np.uint8)
    out[q:q + len(block)] = block + (block == 0) * np.uint8(PAD)
    if json:
        out[0] = out[-1] = 34
    return out


def _block_cells(pieces, num: str, json: bool) -> list:
    """The laid-out text of a slice of a table, the rows of `pieces` (each
    a list of equal-length columns, the rows of one block or a part of
    one) one after another: for each column position, a list of runs
    (row, cells), `cells` laid out for the rows from `row` on.

    A column of stride 0 (a broadcast_to view) is a run of its own: its
    one cell is formatted and broadcast.  The other columns of a position
    make one run per stretch of consecutive pieces of one dtype.  Bytes
    runs go through _bytes_cells; the float64 runs of every position go
    through one float_cells call, and each position keeps a view of its
    rows from the first to the last where one of its cells has a byte."""
    runs, floats, sizes = [], [], []
    for position in zip(*pieces):
        col, row, size = [], 0, 0
        for c in position:
            n = len(c)
            kind = "" if c.strides == (0,) else c.dtype.kind
            if kind == "f":
                floats.append(c)
                size += n
            if kind and col and col[-1][1] == kind:
                col[-1][2].append(c)
                col[-1][3] += n
            else:
                col.append([row, kind, [c], n])
            row += n
        runs.append(col)
        sizes.append(size)
    if floats:
        text = float_cells(np.concatenate(floats), num, json)
        starts = list(accumulate((size for size in sizes if size), initial=0))
        used = np.logical_or.reduceat(text != PAD, starts[:-1], axis=1)
        first = used.argmax(axis=0).tolist()
        stop = (len(text) - used[::-1].argmax(axis=0)).tolist()
    j, out = 0, []
    for col, size in zip(runs, sizes):
        if size:
            column = text[first[j]:stop[j], starts[j]:starts[j + 1]]
            at, j = 0, j + 1
        cells = []
        for row, kind, cols, n in col:
            if kind == "f":
                cells.append((row, column[:, at:at + n]))
                at += n
            elif kind:
                c = cols[0] if len(cols) == 1 else np.concatenate(cols)
                cells.append((row, _bytes_cells(c, json)))
            else:
                c = cols[0][:1]
                one = float_cells(c, num, json) if c.dtype == np.float64 else _bytes_cells(c, json)
                cells.append((row, np.broadcast_to(one, (len(one), n))))
        out.append(cells)
    return out


def _slice_text(pieces, num: str, json: bool, head: bytes, sep: bytes, tail: bytes):
    """The text of the rows of `pieces` (see _block_cells), PAD stripped."""
    runs = _block_cells(pieces, num, json)
    heights = [max(len(cells) for _, cells in col) for col in runs]
    # the constant bytes of a row written once, into a template that
    # fills the buffer; each column's runs copied into their rows
    template = head + sep.join(bytes([PAD]) * h for h in heights) + tail
    rows = sum(len(piece[0]) for piece in pieces)
    text = bytearray(template) * rows
    lines = np.frombuffer(text, np.uint8).reshape(rows, len(template))
    at = len(head)
    for h, col in zip(heights, runs):
        for row, cells in col:
            lines[row:row + cells.shape[1], at:at + len(cells)] = cells.T
        at += h + len(sep)
    del runs, col, cells, lines      # each laid-out column dropped before the strip
    return text.translate(None, bytes([PAD]))


def table_text(blocks, num: str, json: bool, head: bytes, sep: bytes, tail: bytes):
    """Yield the text of the table `blocks` as bytes, one slice of at most
    TABLE_CELLS cells at a time, a slice taking its rows from as many
    consecutive blocks as fit: each row is `head`, its cells joined by
    `sep`, then `tail`."""
    width, pieces, rows = None, [], 0
    for block in blocks:
        columns = list(block)
        for c in columns:
            if not isinstance(c, np.ndarray) or c.dtype != np.float64 and c.dtype.kind != "S":
                kind = c.dtype if isinstance(c, np.ndarray) else type(c).__name__
                raise TypeError(f"a table column must be a float64 or bytes array, not {kind}")
        if width is None:
            width = len(columns)
            step = max(1, TABLE_CELLS // max(width, 1))
        lengths = set(map(len, columns))
        if len(columns) != width or len(lengths) > 1:
            raise ValueError("rows of a table must have equal length")
        n, i = lengths.pop() if lengths else 0, 0
        while i < n:
            take = min(step - rows, n - i)
            pieces.append(columns if take == n else [c[i:i + take] for c in columns])
            rows, i = rows + take, i + take
            if rows == step:
                yield _slice_text(pieces, num, json, head, sep, tail)
                pieces, rows = [], 0
    if pieces:
        yield _slice_text(pieces, num, json, head, sep, tail)


def _json_list(blocks, num: str, close: bytes, head: bytes, sep: bytes, tail: bytes):
    """Yield a JSON array, one element per row of the table `blocks`, closed after `close`."""
    start = b"["
    for text in table_text(blocks, num, True, head, sep, tail):
        yield start
        yield memoryview(text)[1:]      # each row starts with ","
        start = b","
        del text        # not held while the next slice is built
    yield b"[]" if start == b"[" else close + b"]"


def json_chunks(obj, num: str, depth: int = 0):
    """Yield the bytes json.dump(obj, indent=2, sort_keys=True) writes, all
    ASCII, with every float rounded by the `num` template.  Dict keys must
    be strings.  A float64 or bytes array is a list.  An iterator is a
    table (see above), written as a list of rows, slice by slice, without
    holding the table: each slice a memoryview of its text."""
    inner = b"\n" + b"  " * (depth + 1)
    close = inner[:-2]
    if isinstance(obj, dict):
        sep = b"{"
        for key in sorted(obj):
            yield sep + inner + encode_basestring_ascii(key).encode() + b": "
            yield from json_chunks(obj[key], num, depth + 1)
            sep = b","
        yield b"{}" if sep == b"{" else close + b"}"
    elif isinstance(obj, np.ndarray):
        yield from _json_list([[obj]], num, close, b"," + inner, b"", b"")
    elif isinstance(obj, (list, tuple)):
        sep = b"["
        for v in obj:
            yield sep + inner
            yield from json_chunks(v, num, depth + 1)
            sep = b","
        yield b"[]" if sep == b"[" else close + b"]"
    elif hasattr(obj, "__next__"):
        # a table; isinstance(obj, Iterator) would add each type it meets to
        # the ABC's cache, long-lived objects made in the middle of a write
        cell = inner + b"  "
        yield from _json_list(obj, num, close, b"," + inner + b"[" + cell, b"," + cell,
                              inner + b"]")
    else:
        yield json_scalar(obj, num).encode()
