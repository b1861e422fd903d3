"""Run configuration: the RunConfig schema, its INI parser and time literals.

Configs are INI-style text.  Each section is a field of RunConfig and each
key a field of that section's frozen dataclass, so a key's default lives
on its field and its bounds in the dataclass's __post_init__.  Field
metadata holds what the type does not say: "key" for a key named unlike
its field, "choices", and "item", the parser of one list item.  Anything
unrecognized is rejected with its location so typos cannot silently fall
back to defaults.  Times may be written in absolute units or as multiples
of the bounce period / revival time ("124tau", "0.5T").  The resolvers
return times as one value: a packet.Theta, the float times with their exact
fractions theta = t / T (tau = T / (2 n0)), where every time is a multiple
of tau or T or a zero, and the plain float times otherwise.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import typing
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .correlation import DEFAULT_FIT_THRESHOLD
from .packet import PacketSpec, Theta, held
from .system import WellSystem

if typing.TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "parse_time"]

# CLI-facing cap: beyond this, finite k is numerically indistinguishable
# from the box limit and must be requested as "infinity" instead.
_MAX_NUMERIC_K = 1e4


class ConfigError(Exception):
    """Invalid run configuration; message carries the [section] key location."""


def _literal(text: str, tau: float | None = None,
             T: float | None = None) -> tuple[float, Fraction | None, str | None]:
    """A time literal, a number bare or with a 'tau' / 'T' suffix, split and
    parsed once: its finite time in absolute units, the exact number it
    writes (None where Fraction cannot read it) and its unit, "tau", "T" or None."""
    # imported on first use, so that importing the package does not load
    # fractions and the decimal module it brings, a few ms of every start-up
    from fractions import Fraction

    s = text.strip()
    unit = next((u for u in ("tau", "T") if s.endswith(u)), None)
    number = s[:-len(unit)] if unit else s
    scale = tau if unit == "tau" else T
    if unit is not None and scale is None:
        raise ConfigError(f"time {s!r} uses {unit} units but no packet is configured")
    try:
        x = float(number)
    except ValueError:
        raise ConfigError(f"cannot parse time literal {s!r}") from None
    t = x if unit is None else x * scale
    if not math.isfinite(t):
        raise ConfigError(f"time {s!r} is not finite")
    # Fraction(number) builds 10**|e| for the exponent e.  It reads at most
    # 4300 digits each side of the point (Python's int limit), so a nonzero
    # literal it reads lies between 10**(e - 4300) and 10**(e + 4300): past
    # |e| = 4300 + 324 it is below 1e-324, which is the double 0, or above
    # 1e324, refused above.  Its exact value is then 0 or of no use
    mantissa, _, e = number.lower().partition("e")
    e = e.lstrip("+-").replace("_", "").lstrip("0")
    if len(e) > 4 or e and int(e) > 4624:
        return t, (Fraction(0) if float(mantissa) == 0 else None), unit
    try:        # float has checked the underscores, which Fraction reads from 3.11 on
        exact = Fraction(number.replace("_", ""))
    except ValueError:      # past the 4300-digit int limit: "1" + "0" * 4400 + "e-4400"
        exact = None
    return t, exact, unit


def parse_time(text: str, tau: float | None = None, T: float | None = None) -> float:
    """A time literal: plain number, or number with 'tau' / 'T' suffix.
    The time, in absolute units, must be finite."""
    return _literal(text, tau, T)[0]


def _time(section: str, key: str, literal: str, tau: float, T: float,
          n0: int) -> tuple[float, Fraction | None, Fraction | None]:
    """A literal's time, with the [section] key location on its error; its
    exact t / T, "x tau" being x / (2 n0) and "x T" x, while a plain number,
    which T relates to only through pi, has one only at zero; and the exact
    value of a plain number.  Each exact value is None where there is none."""
    try:
        t, x, unit = _literal(literal, tau, T)
    except ConfigError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None
    if unit is None:
        return t, (x if x == 0 else None), x
    return t, (x / (2 * n0) if unit == "tau" and x is not None else x), None


def _parse_k(item: str) -> float:
    if item.lower() in ("infinity", "inf"):
        return math.inf
    try:
        k = float(item)
    except ValueError:
        raise ValueError(f"expected a number or 'infinity', got {item!r}") from None
    if k > _MAX_NUMERIC_K:
        raise ValueError(f"k = {item} is too large for finite arithmetic; "
                         "write 'infinity' for the box limit")
    return k


@dataclass(frozen=True)
class GridSettings:
    # 4096 points give dx0 = 0.05 L ~200 points and the n0 = 400 oscillation
    # ~10 per cycle; a spacing of 1 is dp0/10 for the default packet
    x_points: int = 4096
    p_span: float = 1.5       # in units of p0
    p_spacing: float = 1.0

    def __post_init__(self):
        if self.x_points < 2:
            raise ValueError("x_points: need at least 2 points")
        if not self.p_span > 0:
            raise ValueError("p_span: must be positive")
        if not self.p_spacing > 0:
            raise ValueError("p_spacing: must be positive")


@dataclass(frozen=True)
class ScheduleSettings:
    mode: str = field(default="stroboscopic",
                      metadata={"choices": ("stroboscopic", "dense", "explicit")})
    n_start: int = 0
    n_stop: int = 800
    n_step: int = 1
    start: str = "0"
    stop: str = "10tau"
    count: int = 1000
    times: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n_step < 1:
            raise ValueError("n_step: must be >= 1")
        if self.count < 2:
            raise ValueError("count: must be >= 2")
        if self.mode == "explicit" and not self.times:
            raise ValueError("times: explicit mode needs a times list")

    def resolve(self, tau: float, T: float, n0: int) -> Theta | np.ndarray:
        """The schedule's times, a Theta where it has their exact t / T."""
        if self.mode == "stroboscopic":
            if self.n_stop < self.n_start:
                raise ConfigError("[schedule] n_stop: must be >= n_start")
            from fractions import Fraction

            count = (self.n_stop - self.n_start) // self.n_step + 1
            ns = held(f"[schedule] n_stop: the {count} strobes n = {self.n_start} to {self.n_stop}",
                      lambda: np.arange(self.n_start, self.n_stop + 1, self.n_step), count,
                      ConfigError)
            # strobe n is n tau, t / T = n / (2 n0)
            return Theta.progression(ns * tau, T, Fraction(self.n_start, 2 * n0),
                                     Fraction(self.n_step, 2 * n0))
        if self.mode == "dense":
            a, theta_a, _ = _time("schedule", "start", self.start, tau, T, n0)
            b, theta_b, _ = _time("schedule", "stop", self.stop, tau, T, n0)
            if not b > a:
                raise ConfigError("[schedule] stop: must exceed start")
            step = None if None in (theta_a, theta_b) else (theta_b - theta_a) / (self.count - 1)
            times = held(f"[schedule] count: the {self.count} times",
                         lambda: np.linspace(a, b, self.count), self.count, ConfigError)
            return Theta.progression(times, T, theta_a, step)
        if self.mode == "explicit":
            vals = sorted((_time("schedule", "times", s, tau, T, n0) for s in self.times),
                          key=lambda v: v[0])
            return Theta.of(np.array([v[0] for v in vals]), T, [v[1] for v in vals])
        raise ConfigError(f"[schedule] mode: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class EvolveSettings:
    times: tuple[str, ...] = ()
    representation: str = field(default="position",
                                metadata={"choices": ("position", "momentum", "both")})

    def resolve(self, tau: float, T: float, n0: int) -> list[Theta | np.ndarray]:
        """Each listed time as a value of its own, a Theta where it is exact."""
        return [Theta.of(np.array([t]), T, [theta])
                for t, theta, _ in (_time("evolve", "times", s, tau, T, n0) for s in self.times)]


@dataclass(frozen=True)
class CorrelateSettings:
    fit: bool = False
    scan: bool = False
    threshold: float = DEFAULT_FIT_THRESHOLD
    scan_start: str = "0"
    scan_stop: str = "1T"
    scan_resolution: str = "0.25tau"
    min_height: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold: must lie in (0, 1)")
        if not 0.0 <= self.min_height <= 1.0:
            raise ValueError("min_height: must lie in [0, 1]")

    def scan_grid(self, tau: float, T: float, n0: int) -> tuple[
            float, float, float, tuple[Fraction | None, Fraction | None]]:
        """Start, stop and resolution of the revival scan, in absolute time,
        and the exact (start / T, resolution / T), None where a literal has none;
        correlation.revival_scan refuses a grid it cannot sample."""
        (start, theta_start, _), (stop, *_), (res, theta_res, _) = (
            _time("correlate", key, getattr(self, key), tau, T, n0)
            for key in ("scan_start", "scan_stop", "scan_resolution"))
        return start, stop, res, (theta_start, theta_res)

    def fit_period(self, tau: float, T: float, n0: int) -> Theta | np.ndarray:
        """The bounce period tau that the collapse fit steps by, its exact t / T 1 / (2 n0)."""
        from fractions import Fraction

        return Theta.of(np.array([tau]), T, [Fraction(1, 2 * n0)])


@dataclass(frozen=True)
class PowerLawSettings:
    k_values: tuple[float, ...] = field(default=(1.0, 2.0, 4.0),
                                        metadata={"key": "k", "item": _parse_k})
    n_min: int = 50
    n_max: int = 200
    half: bool = False
    v0: float = 1.0
    a: float = 1.0
    fit: bool = False
    fit_n0: int = 200
    fit_dn: float = 3.0

    def __post_init__(self):
        if not self.k_values:
            raise ValueError("k_values: need at least one exponent")
        for k in self.k_values:
            if not k > 0:
                raise ValueError(f"k_values: exponent must be positive, got {k:g}")
        if self.n_min < 0:
            raise ValueError("n_min: must be >= 0")
        if self.n_max < self.n_min:
            raise ValueError("n_max: must be >= n_min")
        if self.v0 <= 0:
            raise ValueError("v0: must be positive")
        if self.a <= 0:
            raise ValueError("a: must be positive")
        if self.fit_n0 < 1:
            raise ValueError("fit_n0: must be >= 1")
        if not self.fit_dn > 0:
            raise ValueError("fit_dn: must be positive")


@dataclass(frozen=True)
class FlattenSettings:
    dx0_values: tuple[float, ...] = field(default=(0.025, 0.05, 0.10),
                                          metadata={"key": "dx0"})
    epsilon: float = 0.05
    hold: int = 10
    t_stop: str = "480tau"
    sample_step: str = "0.25tau"

    def __post_init__(self):
        if not self.dx0_values:
            raise ValueError("dx0_values: need at least one width")
        names = set()
        for dx0 in self.dx0_values:
            if not dx0 > 0:
                raise ValueError(f"dx0_values: expected a positive number, got {dx0:g}")
            # each width's series goes to flatten_dx0_{dx0:g}
            if f"{dx0:g}" in names:
                raise ValueError(f"dx0_values: two widths print as {dx0:g} and would "
                                 "share one output file")
            names.add(f"{dx0:g}")
        if self.epsilon <= 0:
            raise ValueError("epsilon: must be positive")
        if self.hold < 1:
            raise ValueError("hold: must be >= 1")

    def sample_times(self, tau: float, T: float, n0: int) -> Theta | np.ndarray:
        """Sample times k step below t_stop, a Theta where exact; literals of
        one kind are counted exactly, k theta_step < theta_stop for exact
        ones and k step < t_stop over the exact values of plain numbers."""
        t_stop, theta_stop, x_stop = _time("flatten", "t_stop", self.t_stop, tau, T, n0)
        step, theta_step, x_step = _time("flatten", "sample_step", self.sample_step, tau, T, n0)
        if not t_stop > 0.0:
            raise ConfigError("[flatten] t_stop: must be positive")
        if not step > 0.0:
            raise ConfigError("[flatten] sample_step: must be positive")
        exact = (x_stop, x_step) if None in (theta_stop, theta_step) else (theta_stop, theta_step)
        count = None if None in exact else math.ceil(exact[0] / exact[1])
        times = held(f"[flatten] t_stop: the samples {self.sample_step.strip()} apart below "
                     f"{self.t_stop.strip()}", lambda: np.arange(0.0, t_stop, step)
                     if count is None else np.arange(count) * step, count, ConfigError)
        return Theta.progression(times, T, 0, theta_step)


@dataclass(frozen=True)
class OutputSettings:
    format: str = field(default="csv", metadata={"choices": ("csv", "json")})
    precision: int = 12

    def __post_init__(self):
        if not 1 <= self.precision <= 17:
            raise ValueError("precision: must lie in [1, 17]")


@dataclass(frozen=True)
class RunConfig:
    system: WellSystem = WellSystem()
    packet: PacketSpec = PacketSpec(n0=400, x0=0.5, dx0=0.05)
    grids: GridSettings = GridSettings()
    schedule: ScheduleSettings = ScheduleSettings()
    evolve: EvolveSettings = EvolveSettings()
    correlate: CorrelateSettings = CorrelateSettings()
    powerlaw: PowerLawSettings = PowerLawSettings()
    flatten: FlattenSettings = FlattenSettings()
    output: OutputSettings = OutputSettings()
    config_hash: str = field(default="", compare=False)


_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError
    return x


# field type -> (conversion of the stripped text, the name its error uses)
_KINDS = {str: (str, "a string"), int: (int, "an integer"), float: (_finite, "a finite number"),
          bool: (lambda s: _BOOL[s.lower()], "a boolean")}


def _items(text: str) -> list[str]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items and text.strip():
        raise ValueError(f"could not parse list {text!r}")
    return items


def _parser(hint, meta: Mapping) -> Callable[[str], object]:
    """The function from a key's text to its field's value, for the field's type."""
    if typing.get_origin(hint) is tuple:
        item = meta.get("item") or _parser(typing.get_args(hint)[0], {})
        return lambda text: tuple(item(s) for s in _items(text))
    kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    (convert, what), choices = _KINDS[kind], meta.get("choices")

    def parse(text: str):
        text = text.strip()
        try:
            value = convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {what}, got {text!r}") from None
        if choices is not None and value not in choices:
            raise ValueError(f"expected one of {sorted(choices)}, got {value!r}")
        return value
    return parse


def _keys(cls) -> dict[str, tuple[str, Callable[[str], object]]]:
    """INI key -> (field name, parser) for every field of a section class."""
    hints = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name): (f.name, _parser(hints[f.name], f.metadata))
            for f in fields(cls)}


# The default of every section, shared by each config that gives it no key.
_DEFAULT = RunConfig()

# The schema: section name -> its keys, built once from RunConfig's fields.
_SECTIONS = {name: _keys(cls) for name, cls in typing.get_type_hints(RunConfig).items()
             if is_dataclass(cls)}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None
    unknown = set(cp.sections()) - _SECTIONS.keys()
    if unknown:
        raise ConfigError(f"[{min(unknown)}]: unknown section")

    sections = {}
    for name, keys in _SECTIONS.items():
        raw = dict(cp[name]) if cp.has_section(name) else {}
        if not raw:
            sections[name] = getattr(_DEFAULT, name)      # checked once, when built
            continue
        unknown = raw.keys() - keys.keys()
        if unknown:
            raise ConfigError(f"[{name}] {min(unknown)}: unknown key")
        given = {}
        for key, value in raw.items():
            attr, parse = keys[key]
            try:
                given[attr] = parse(value)
            except ValueError as e:
                raise ConfigError(f"[{name}] {key}: {e}") from None
        if name == "packet" and "alpha" in given and "dx0" not in given:
            given["dx0"] = None      # alpha alone replaces the default width
        try:
            sections[name] = replace(getattr(_DEFAULT, name), **given)
        except ValueError as e:
            # bound messages name the field; report the key it is read from
            attr, sep, problem = str(e).partition(": ")
            key = next((k for k, (a, _) in keys.items() if a == attr), attr)
            raise ConfigError(f"[{name}] {key}{sep}{problem}") from None
    try:
        sections["packet"].validate_for(sections["system"])
    except ValueError as e:
        raise ConfigError(f"[packet] {e}") from None

    digest = hashlib.sha256(text.encode()).hexdigest()
    return RunConfig(**sections, config_hash=digest)


def load_config(path) -> RunConfig:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text)
