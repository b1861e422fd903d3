"""The config ladder: every key a command reads, set alone to each value of
a ladder of extremes, through the command line in-process.

The keys come from the config schema (config._SECTIONS), so a key added
later is tested with no edit here.  Keys with choices, booleans among
them, are left out: each of their values is a case the other tests run.
Each row must end in exit 0, 1 or 2 with no exception leaving main and no
RuntimeWarning; a refusal leaves no directory, and a config error says
so in one line; a success writes no non-finite number.  One test runs a
key's whole ladder and lists every row that failed.

The ladder asks for arrays either small or past 2^47 bytes, which no
machine allocates, so a refusal is immediate and no resource limit is set.
"""

import contextlib
import dataclasses
import io
import json
import math
import typing
import warnings

import pytest

from wellpacket import config
from wellpacket.cli import main

INTS = [("0", "0"), ("-1", "-1"), ("1", "1"), ("3", "3"), ("10**15", str(10**15)),
        ("2**63-2", str(2**63 - 2)), ("10**400", str(10**400))]
FLOATS = [(v, v) for v in ("0", "-1", "5e-324", "1e-300", "1e-17", "1e15", "1e300", "1e308")]
TIMES = [(v, v) for v in ("0", "-1tau", "1e-300", "1e300", "1e15tau", "1e-300tau",
                          "1e-3000000tau", "1e308T")]

# The sections each command reads.
READS = {
    "evolve": ("system", "packet", "grids", "evolve", "output"),
    "observables": ("system", "packet", "schedule", "output"),
    "correlate": ("system", "packet", "schedule", "correlate", "output"),
    "powerlaw": ("system", "powerlaw", "output"),
    "scan-flatten": ("system", "packet", "flatten", "output"),
    "timescales": ("system", "packet", "output"),
}

# Keys set beside the one under test, so that the command reads it; the
# key under test overrides them.  Every evolve row lists a time and asks
# for both grids, and every powerlaw row fits; [correlate] keys run with
# the fit and the scan, and [schedule] keys in the mode that reads them.
COMMAND_KEYS = {
    "evolve": {"evolve": {"times": "1tau", "representation": "both"}},
    "powerlaw": {"powerlaw": {"k": "4", "fit": "true"}},
}
SECTION_KEYS = {"correlate": {"fit": "true", "scan": "true"}}
MODE = {"start": "dense", "stop": "dense", "count": "dense", "times": "explicit"}


def _ladder(hint, meta):
    """The ladder of a field's type; none for a choice or a boolean."""
    if "choices" in meta or hint is bool:
        return []
    if typing.get_origin(hint) is tuple:
        hint = typing.get_args(hint)[0]
    kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    return {int: INTS, float: FLOATS, str: TIMES}[kind]


def _keys():
    classes = typing.get_type_hints(config.RunConfig)
    for command, sections in READS.items():
        for section in sections:
            cls = classes[section]
            hints = typing.get_type_hints(cls)
            meta = {f.name: f.metadata for f in dataclasses.fields(cls)}
            for key, (attr, _) in config._SECTIONS[section].items():
                ladder = _ladder(hints[attr], meta[attr])
                if ladder:
                    yield pytest.param(command, section, key, ladder,
                                       id=f"{command}-{section}.{key}")


def _ini(command, section, key, value):
    given = {s: dict(keys) for s, keys in COMMAND_KEYS.get(command, {}).items()}
    given.setdefault(section, {}).update(SECTION_KEYS.get(section, {}))
    if section == "schedule" and key in MODE:
        given[section]["mode"] = MODE[key]
    given[section][key] = value
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for s, keys in given.items())


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return 0.0


def _nonfinite_cells(path):
    """The non-finite numbers of an output file: JSON's NaN and +-Infinity
    tokens, and CSV cells that parse as such floats.  Strings are text,
    not numbers: a fit's "decay rate inf" is no cell of its own."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        found = []
        json.loads(text, parse_constant=found.append)
        return found
    return [cell for line in text.splitlines() if not line.startswith("#")
            for cell in line.split(",") if not math.isfinite(_float(cell))]


def _problem(run_dir, command, section, key, value):
    """What is wrong with one row, None if nothing."""
    run_dir.mkdir()
    path, out, err = run_dir / "run.ini", run_dir / "o", io.StringIO()
    path.write_text(_ini(command, section, key, value))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(path), "--out", str(out)])
        except Exception as e:      # the row reports what left main
            return f"{type(e).__name__} left main: {e}"
    warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    err = err.getvalue()
    if code not in (0, 1, 2):
        return f"exit {code}: {err!r}"
    if warned:
        return f"exit {code} with RuntimeWarning {warned}"
    if code and out.exists():
        return f"exit {code} left its directory: {err!r}"
    if code == 1 and not (err.startswith("config error: ") and err.count("\n") == 1):
        return f"exit 1 without one config error line: {err!r}"
    if code == 0:
        bad = {file.name: cells for file in sorted(out.iterdir())
               if (cells := _nonfinite_cells(file))}
        if bad:
            return f"exit 0 with non-finite cells {bad}"
    return None


@pytest.mark.parametrize("command, section, key, ladder", list(_keys()))
def test_one_key_at_each_extreme_ends_cleanly(tmp_path, command, section, key, ladder):
    rows = [(label, _problem(tmp_path / str(i), command, section, key, value))
            for i, (label, value) in enumerate(ladder)]
    assert not [f"{key} = {label}: {problem}" for label, problem in rows if problem]
