"""Run configuration: the RunConfig schema, its INI parser and time literals.

Configs are INI-style text.  Each section is a field of RunConfig and each
key a field of that section's frozen dataclass, so a key's default lives
on its field and its bounds in the dataclass's __post_init__.  Field
metadata holds what the type does not say: "key" for a key named unlike
its field, "choices", and "item", the parser of one list item.  Anything
unrecognized is rejected with its location so typos cannot silently fall
back to defaults.  Times may be written in absolute units or as multiples
of the bounce period / revival time ("124tau", "0.5T").  The resolvers
return each time as a float and, for a multiple of tau or T (or a zero),
also as the exact fraction theta = t / T, using tau = T / (2 n0).
"""

from __future__ import annotations

import configparser
import hashlib
import math
import typing
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .correlation import DEFAULT_FIT_THRESHOLD, _scan_times
from .packet import PacketSpec, Theta
from .system import WellSystem

if typing.TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "parse_time",
           "parse_theta"]

# CLI-facing cap: beyond this, finite k is numerically indistinguishable
# from the box limit and must be requested as "infinity" instead.
_MAX_NUMERIC_K = 1e4


class ConfigError(Exception):
    """Invalid run configuration; message carries the [section] key location."""


def _split(literal: str) -> tuple[str, str | None]:
    """A time literal's number text and its unit: "tau", "T" or None."""
    s = literal.strip()
    unit = next((u for u in ("tau", "T") if s.endswith(u)), None)
    return (s[:-len(unit)] if unit else s), unit


def parse_time(text: str, tau: float | None = None, T: float | None = None) -> float:
    """A time literal: plain number, or number with 'tau' / 'T' suffix.
    The time, in absolute units, must be finite."""
    s, unit = _split(text)
    scale = tau if unit == "tau" else T
    if unit is not None and scale is None:
        raise ConfigError(f"time {text.strip()!r} uses {unit} units but no packet "
                          "is configured")
    try:
        t = float(s) if unit is None else float(s) * scale
    except ValueError:
        raise ConfigError(f"cannot parse time literal {text.strip()!r}") from None
    if not math.isfinite(t):
        raise ConfigError(f"time {text.strip()!r} is not finite")
    return t


def parse_theta(literal: str, n0: int) -> Fraction | None:
    """The exact t / T of a time literal that parse_time accepts, or None.

    "x tau" is x / (2 n0) and "x T" is x; a plain number is in absolute
    units, which T relates to only through pi, so it is exact only at zero.
    """
    # imported on first use, so that importing the package does not load
    # fractions and the decimal module it brings, a few ms of every start-up
    from fractions import Fraction

    s, unit = _split(literal)
    try:
        x = Fraction(s)
    except ValueError:          # inf, nan
        return None
    if unit is None:
        return x if x == 0 else None
    return x / (2 * n0) if unit == "tau" else x


def _time(section: str, key: str, literal: str, tau: float, T: float,
          n0: int) -> tuple[float, Fraction | None]:
    """parse_time, with the [section] key location on its error, and the
    literal's exact t / T (None when it has none)."""
    try:
        return parse_time(literal, tau, T), parse_theta(literal, n0)
    except ConfigError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


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

    def resolve(self, tau: float, T: float, n0: int) -> tuple[np.ndarray, Theta | None]:
        """The schedule's times, and their exact t / T where it has them."""
        if self.mode == "stroboscopic":
            if self.n_stop < self.n_start:
                raise ConfigError("[schedule] n_stop: must be >= n_start")
            ns = np.arange(self.n_start, self.n_stop + 1, self.n_step)
            # strobe n is the literal "n tau"
            return ns * tau, Theta.progression(parse_theta(f"{self.n_start}tau", n0),
                                               parse_theta(f"{self.n_step}tau", n0), ns.size)
        if self.mode == "dense":
            a, theta_a = _time("schedule", "start", self.start, tau, T, n0)
            b, theta_b = _time("schedule", "stop", self.stop, tau, T, n0)
            if not b > a:
                raise ConfigError("[schedule] stop: must exceed start")
            step = None if None in (theta_a, theta_b) else (theta_b - theta_a) / (self.count - 1)
            return np.linspace(a, b, self.count), Theta.progression(theta_a, step, self.count)
        if self.mode == "explicit":
            vals = sorted((_time("schedule", "times", s, tau, T, n0) for s in self.times),
                          key=lambda v: v[0])
            return np.array([t for t, _ in vals]), Theta.of([th for _, th in vals])
        raise ConfigError(f"[schedule] mode: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class EvolveSettings:
    times: tuple[str, ...] = ()
    representation: str = field(default="position",
                                metadata={"choices": ("position", "momentum", "both")})

    def resolve(self, tau: float, T: float, n0: int) -> list[tuple[float, Fraction | None]]:
        """Each listed time, with its exact t / T or None."""
        return [_time("evolve", "times", s, tau, T, n0) for s in self.times]


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

    def scan_grid(self, tau: float, T: float, n0: int) -> tuple[
            float, float, float, tuple[Fraction, Fraction] | None]:
        """Start, stop and resolution of the revival scan, in absolute time,
        and the exact (start / T, resolution / T), or None."""
        (start, theta_start), (stop, _), (res, theta_res) = (
            _time("correlate", key, getattr(self, key), tau, T, n0)
            for key in ("scan_start", "scan_stop", "scan_resolution"))
        try:
            _scan_times(T, start, stop, res)
        except ValueError as e:
            raise ConfigError(f"[correlate] {e}") from None
        exact = None if theta_start is None or theta_res is None else (theta_start, theta_res)
        return start, stop, res, exact


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

    def sample_times(self, tau: float, T: float, n0: int) -> tuple[np.ndarray, Theta | None]:
        """Sample times k step below t_stop, and their exact t / T; literals
        of one kind are counted exactly, k theta_step < theta_stop for exact
        ones and k step < t_stop over the decimal texts of plain numbers."""
        from fractions import Fraction

        t_stop, theta_stop = _time("flatten", "t_stop", self.t_stop, tau, T, n0)
        step, theta_step = _time("flatten", "sample_step", self.sample_step, tau, T, n0)
        if not t_stop > 0.0:
            raise ConfigError("[flatten] t_stop: must be positive")
        if not step > 0.0:
            raise ConfigError("[flatten] sample_step: must be positive")
        stop_text, stop_unit = _split(self.t_stop)
        step_text, step_unit = _split(self.sample_step)
        if None not in (theta_stop, theta_step):
            times = np.arange(math.ceil(theta_stop / theta_step)) * step
        elif stop_unit is step_unit is None:
            times = np.arange(math.ceil(Fraction(stop_text) / Fraction(step_text))) * step
        else:
            times = np.arange(0.0, t_stop, step)
        return times, Theta.progression(0, theta_step, times.size)


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
# field type -> (conversion of the stripped text, the name its error uses)
_KINDS = {str: (str, "a string"), int: (int, "an integer"), float: (float, "a number"),
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

    default = RunConfig()
    sections = {}
    for name, keys in _SECTIONS.items():
        raw = dict(cp[name]) if cp.has_section(name) else {}
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
            sections[name] = replace(getattr(default, name), **given)
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
