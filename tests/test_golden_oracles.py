"""Golden cells of the closed forms checked against 40-digit oracles.

test_golden.py proves that the bytes of each output did not change; this
file checks that the closed-form ones are right.  It runs the
``timescales``, ``powerlaw`` and ``powerlaw-half`` golden configs as
test_golden.py's ``_run`` does and holds every E, tau and T_rev cell of the
power-law tables, and the five values of the time-scale report, against
mpmath evaluations of their closed forms at 40 digits (oracles.mp_wkb,
oracles.mp_timescales).  The collapse fits have no oracle and are left out.

A cell passes when it is the oracle value correctly rounded to the printed
digits, or when it lies within its quantity's floor (FLOOR_EPS) beyond that:
the printed double is the closed form evaluated in a few float operations,
so it lies within a few eps of the oracle, and when the oracle falls that
close to a rounding boundary the double may round to the other side.  The
worst cell of each file is printed as a multiple of half a unit in its
last printed digit, where 1 is the edge of correct rounding.
"""

import math
import os
import shutil
from decimal import Decimal, localcontext

import mpmath
import pytest
from oracles import mp_timescales, mp_wkb
from test_golden import COMMAND, CONFIGS

from wellpacket.cli import main

EPS = 2.0**-52
PRECISION = 12          # the golden configs print the default 12 digits

# How far past correct rounding a cell may lie, in eps of its value.  A
# power-law value takes the gamma ratio as exp of a sum of three lgamma
# values, each rounded, and E = base ** (2k / (k + 2)) scales the base's
# error by up to 2; tau and T_rev add three and five roundings.  The
# doubles were at most 11.5 eps from the oracle over k = 0.5 to 10 and
# n = 0 to 2000; the floor is about twice that.  The report's values take
# at most six operations, and were at most 1.2 eps off over four packets.
FLOOR_EPS = {"E": 24, "tau": 24, "T_rev": 24, "report": 4}


def _outputs(name: str, tmp_path) -> str:
    """The directory of the golden config ``name``'s CSV outputs."""
    ini = tmp_path / f"{name}.ini"
    ini.write_text(CONFIGS[name])
    out = tmp_path / f"{name}-csv"
    assert main([COMMAND.get(name, name), "--config", str(ini), "--out", str(out),
                 "--format", "csv"]) == 0
    return str(out)


def _table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _cells(name: str, columns, rows):
    """(label, quantity, printed text, 40-digit oracle) for every checked cell."""
    if name == "timescales":
        oracle = mp_timescales(n0=40, dx0=0.1)
        return [(col, "report", text, oracle[col]) for col, text in zip(columns, rows[0])]
    half = "half = true" in CONFIGS[name]
    cells = []
    for k_text, n_text, *values in rows:
        k = math.inf if k_text == "infinity" else float(k_text)
        n = int(n_text)
        for col, text, value in zip(("E", "tau", "T_rev"), values, mp_wkb(k, n, half=half)):
            if col == "T_rev" and (n == 0 or value is None):   # none below n = 1 or at k = 2
                assert text == ("" if n == 0 else "periodic")
                continue
            cells.append((f"{col} at k = {k_text}, n = {n}", col, text, value))
    return cells


def _check(name: str, path: str) -> tuple[list[str], str]:
    """The cells of the output at ``path`` outside their bound, and a report of
    its worst cell and of the cells that only the floor passes."""
    columns, rows = _table(path)
    failures, worst, floored = [], (-1.0, ""), 0
    with localcontext() as ctx:
        ctx.prec = 60
        cells = _cells(name, columns, rows)
        for label, quantity, text, value in cells:
            cell, exact = Decimal(text), Decimal(mpmath.nstr(value, 45))
            half_unit = Decimal(5).scaleb(cell.adjusted() - PRECISION)
            off = abs(cell - exact)
            ratio = float(off / half_unit)
            if off > half_unit + Decimal(FLOOR_EPS[quantity] * EPS) * abs(exact):
                failures.append(f"{label}: printed {text}, oracle {mpmath.nstr(value, 20)}")
            floored += off > half_unit
            if ratio > worst[0]:
                worst = (ratio, f"{label}, {ratio:.5f} of half a unit in its last digit "
                                f"({float(off / exact):.2g} relative)")
    return failures, (f"{os.path.basename(path)}: worst cell {worst[1]}; "
                      f"{floored} of {len(cells)} cells past correct rounding")


FILES = [("timescales", "timescales.csv"), ("powerlaw", "powerlaw.csv"),
         ("powerlaw-half", "powerlaw.csv")]


@pytest.mark.parametrize("name, file", FILES)
def test_closed_form_cells_match_the_40_digit_oracles(name, file, tmp_path, capsys):
    failures, worst = _check(name, os.path.join(_outputs(name, tmp_path), file))
    capsys.readouterr()         # the paths the command printed
    print(worst)
    assert not failures, "\n".join(failures)


def _tamper(text: str) -> str:
    """``text`` with the last digit of its mantissa moved by one."""
    mantissa, e, exponent = text.partition("e")
    digit = int(mantissa[-1])
    return f"{mantissa[:-1]}{digit - 1 if digit == 9 else digit + 1}{e}{exponent}"


@pytest.mark.parametrize("name, file", FILES)
def test_a_tampered_last_digit_fails(name, file, tmp_path):
    out = _outputs(name, tmp_path)
    copy = tmp_path / "tampered.csv"
    shutil.copy(os.path.join(out, file), copy)
    lines = copy.read_text().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    # E at the first level, or the report's t_flat
    col = lines[head].rstrip("\n").split(",").index("E" if name != "timescales" else "t_flat")
    cells = lines[head + 1].rstrip("\n").split(",")
    cells[col] = _tamper(cells[col])
    lines[head + 1] = ",".join(cells) + "\n"
    copy.write_text("".join(lines))
    failures, _ = _check(name, str(copy))
    assert len(failures) == 1
