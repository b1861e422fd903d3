"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation: a subcommand, the INI text it runs with, an
output format, and the parameters the output checks need.  Lists are
built round by round.  Every round holds a fixed deck of job kinds,
and each size parameter is drawn low-discrepancy: evenly spread
over its range inside a round, and shifted by the golden ratio from one
round to the next.  Any prefix of a list therefore covers the ranges
nearly uniformly, which keeps a run's mix of work, and so its medians,
almost the same whatever the seed.  Only the generated INI text reaches
the program.

All configs use the default system units (2m = hbar = L = 1), in which
the revival time is T = 2/pi and the bounce period is tau = T / (2 n0).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

L = 1.0
MASS = 0.5
HBAR = 1.0
T_REV = 4.0 * MASS * L**2 / (HBAR * math.pi)

# Collapse fits are requested only when the stroboscope sees enough
# periods above |C| = 0.9: T_C / tau >= 12 leaves at least three points,
# below about 10 CollapseFitError is the documented, correct refusal.
MIN_FIT_PERIODS = 12.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output checks need to know."""

    kind: str
    command: str
    ini: str
    fmt: str
    expect: dict = field(default_factory=dict)


class Draws:
    """Seeded draws for one job list.

    ``slots(key, k)`` gives the k jobs of one kind in a round a size
    u in [0, 1) each, evenly spaced and rotated by the golden ratio from
    round to round, so any prefix of the list covers [0, 1) nearly
    uniformly.  Each job derives its cost-setting parameters from its u,
    each growing with u (the output format too: CSV below 0.7, the dearer
    JSON above, a step kept away from the median and the 90th percentile),
    so that its cost is nearly a rising function of u; the quantiles of
    job time then hardly depend on the seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._base: dict[str, float] = {}

    def slots(self, key: str, k: int) -> list[tuple[float, str]]:
        base = self._base.get(key)
        base = self.rng.random() if base is None else (base + _GOLDEN) % 1.0
        self._base[key] = base
        us = [(base + i / k) % 1.0 for i in range(k)]
        self.rng.shuffle(us)
        return [(u, "csv" if u < 0.7 else "json") for u in us]

    def x0(self) -> float:
        return self.rng.uniform(0.3, 0.7)


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _lin(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _log(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _packet(n0: int, x0: float, dx0: float) -> dict:
    return {"n0": n0, "x0": f"{x0:.3f}", "dx0": f"{dx0:.4f}"}


def _packet_expect(n0: int, x0: float, dx0: float) -> dict:
    return {"n0": n0, "x0": float(f"{x0:.3f}"), "dx0": float(f"{dx0:.4f}")}


def box_fit_periods(n0: int, dx0: float) -> float:
    """T_C / tau = 4 pi n0 (dx0 / L)^2 for the quasi-Gaussian box packet."""
    return 4.0 * math.pi * n0 * (dx0 / L) ** 2


# Job sizes come in classes (small, medium, large) whose jobs cost about
# the same, so that the median and the 90th percentile of job time fall
# inside a class rather than on the edge between two.  Sizes within a
# class are set from a per-sample cost model of the seed program on the
# reference machine (2 vCPUs, OpenBLAS on one thread): seconds per time
# sample of a dense observables job as a function of the level count N.
_BOUNCE_COST = {"csv": lambda n: 0.63e-6 * (13 + n), "json": lambda n: 0.75e-6 * (49 + n)}


def _revival_cost(n: float) -> float:
    return 0.59e-3 * (n / 510) ** 1.4


def _interleave(rng: random.Random, classes: dict[str, list[Job]], pattern: str) -> list[Job]:
    """One round in a fixed order of classes, so that any prefix of a round
    holds each class in proportion; order within a class is shuffled."""
    for jobs in classes.values():
        rng.shuffle(jobs)
    return [classes[c].pop() for c in pattern]


def levels(dx0: float) -> float:
    """Approximate window size N = 16 dn = 8 L / (pi dx0)."""
    return 8.0 * L / (math.pi * dx0)


def _samples_for(seconds: float, cost, dx0: float) -> int:
    """Time samples that make an observables job last about ``seconds``."""
    return round(seconds / cost(levels(dx0)))


# --- bounce_dense -----------------------------------------------------------
# n0 in [200, 800] and dx0 in [0.03, 0.07] L, so N is 36 to 85 levels.

def _bounce_n0(u: float) -> int:
    return round(_lin(u, 200, 800))


def _bounce_dx0(u: float) -> float:
    return _lin(1.0 - u, 0.03, 0.07)        # N grows with u


def _dense_observables(n0, x0, dx0, count: int, fmt: str) -> Job:
    ini = _ini({"packet": _packet(n0, x0, dx0),
                "schedule": {"mode": "dense", "start": "0", "stop": "1T",
                             "count": count}})
    return Job("observables-dense", "observables", ini, fmt,
               {**_packet_expect(n0, x0, dx0), "samples": count})


def _coarse_correlate(n0, x0, dx0, count: int, res: str, fmt: str) -> Job:
    fit = box_fit_periods(n0, float(f"{dx0:.4f}")) >= MIN_FIT_PERIODS
    ini = _ini({"packet": _packet(n0, x0, dx0),
                "schedule": {"mode": "dense", "start": "0", "stop": "1T",
                             "count": count},
                "correlate": {"fit": str(fit).lower(), "scan": "true",
                              "scan_resolution": f"{res}tau"}})
    return Job("correlate-coarse", "correlate", ini, fmt,
               {**_packet_expect(n0, x0, dx0), "reaches_T": True, "fit": fit,
                "scan": "full", "scan_grid": ["0", res]})


def _evolve(n0, x0, dx0, times: list[str], rep: str, fmt: str) -> Job:
    ini = _ini({"packet": _packet(n0, x0, dx0),
                "evolve": {"times": ", ".join(times), "representation": rep}})
    return Job("evolve", "evolve", ini, fmt,
               {**_packet_expect(n0, x0, dx0), "times": times, "representation": rep})


def _scan_flatten(n0, x0, dx0s: list[str], fmt: str) -> Job:
    ini = _ini({"packet": _packet(n0, x0, 0.05), "flatten": {"dx0": ", ".join(dx0s)}})
    return Job("scan-flatten", "scan-flatten", ini, fmt,
               {"n0": n0, "x0": float(f"{x0:.3f}"),
                "dx0_values": [float(s) for s in dx0s]})


def _bounce_round(d: Draws) -> list[Job]:
    rng = d.rng
    small, medium, large = [], [], []
    # small: |C| and |Cbar| over one period plus a coarse scan, densities
    # at two or three listed times, a flattening scan
    for u, fmt in d.slots("corr", 2):
        small.append(_coarse_correlate(_bounce_n0(u), d.x0(), _bounce_dx0(u),
                                       round(_log(u, 2000, 5000)), "1", fmt))
    for u, fmt in d.slots("evolve", 1):
        pool = ["0", "0.5T", "0.25T", f"{rng.randint(1, 200)}.5tau",
                f"{rng.uniform(0.05, 0.95):.4f}T"]
        rep = "position" if u < 0.4 else "momentum" if u < 0.75 else "both"
        times = rng.sample(pool, 2 if rep == "both" else 2 + int(2 * u))
        small.append(_evolve(_bounce_n0(u), d.x0(), _bounce_dx0(u), times, rep, fmt))
    for u, fmt in d.slots("flatten", 1):
        dx0s = sorted({f"{_lin((u + i / 3) % 1.0, 0.03, 0.07):.4f}"
                       for i in range(2 + int(2 * u))})
        small.append(_scan_flatten(_bounce_n0(u), d.x0(), dx0s, fmt))
    # medium: dense observables over one revival period, CSV and JSON
    for u, fmt in d.slots("obs", 6):
        dx0 = _bounce_dx0(u)
        count = _samples_for(0.12 * (1 + 0.1 * u), _BOUNCE_COST[fmt], dx0)
        medium.append(_dense_observables(_bounce_n0(u), d.x0(), dx0, count, fmt))
    # large: the same with 1e4 to 1.4e4 samples, CSV
    for u, _ in d.slots("obs.large", 2):
        dx0 = _lin(1.0 - u, 0.03, 0.05)
        count = _samples_for(0.55 * (1 + 0.1 * u), _BOUNCE_COST["csv"], dx0)
        large.append(_dense_observables(_bounce_n0(u), d.x0(), dx0, count, "csv"))
    return _interleave(rng, {"S": small, "M": medium, "L": large}, "SMMLSMSMMLSM")


def _bounce_warmup() -> list[Job]:
    n0, x0, dx0 = 800, 0.5, 0.03
    return [
        _dense_observables(n0, x0, dx0, 20000, "json"),
        _coarse_correlate(n0, x0, 0.07, 8000, "0.5", "json"),
        _evolve(n0, x0, dx0, ["0", "0.25T", "0.5T", "100.5tau"], "both", "json"),
        _scan_flatten(n0, x0, ["0.0300", "0.0500", "0.0700"], "json"),
    ]


# --- revival_large ----------------------------------------------------------
# n0 in [1500, 4000] and dx0 in [0.005, 0.009] L, so N is 283 to 510 levels.

_FRACTIONS = [(1, 4), (1, 3), (2, 3), (3, 4)]


def _revival_n0(u: float) -> int:
    # a multiple of 6, so that every p/q T with q <= 4 is a whole number
    # of bounce periods and lands on a scan sample
    return 6 * round(_lin(u, 1500, 4000) / 6)


def _revival_dx0(u: float) -> float:
    return _lin(1.0 - u, 0.005, 0.009)      # N grows with u


def _full_scan_n0(seconds: float, dx0: float) -> int:
    # a [0, T] scan at 0.5 tau takes about 0.49 s at n0 = 1500, N = 510,
    # and grows linearly with n0 and with N^0.94
    n0 = 1500 * seconds / 0.49 * (510 / levels(dx0)) ** 0.94
    return _revival_n0(min(max((n0 - 1500) / 2500, 0.0), 1.0))


def _window_scan(n0, x0, dx0, frac, half_width: int, res: float, fmt: str) -> Job:
    p, q = frac
    target = 2 * n0 * p // q           # p/q T in units of tau
    start = f"{target - half_width * res!r}"
    stop = "1T" if (p, q) == (1, 1) else f"{target + half_width * res!r}tau"
    ini = _ini({"packet": _packet(n0, x0, dx0),
                "schedule": {"mode": "stroboscopic", "n_start": 0, "n_stop": 100},
                "correlate": {"scan": "true", "scan_start": f"{start}tau",
                              "scan_stop": stop, "scan_resolution": f"{res!r}tau"}})
    return Job("correlate-window", "correlate", ini, fmt,
               {**_packet_expect(n0, x0, dx0), "reaches_T": False, "fit": False,
                "scan": "window", "fraction": [p, q], "scan_grid": [start, f"{res!r}"]})


def _full_scan(n0, x0, dx0, fmt: str, res: str = "0.5") -> Job:
    ini = _ini({"packet": _packet(n0, x0, dx0),
                "schedule": {"mode": "stroboscopic", "n_start": 0,
                             "n_stop": 2 * n0, "n_step": n0 // 3},
                "correlate": {"scan": "true", "scan_resolution": f"{res}tau"}})
    return Job("correlate-full", "correlate", ini, fmt,
               {**_packet_expect(n0, x0, dx0), "reaches_T": True, "fit": False,
                "scan": "full", "scan_grid": ["0", res]})


def _strobe_observables(n0, x0, dx0, step: int, fmt: str) -> Job:
    ini = _ini({"packet": _packet(n0, x0, dx0),
                "schedule": {"mode": "stroboscopic", "n_start": 0,
                             "n_stop": 2 * n0, "n_step": step}})
    return Job("observables-strobe", "observables", ini, fmt,
               {**_packet_expect(n0, x0, dx0), "samples": 2 * n0 // step + 1})


def _revival_round(d: Draws) -> list[Job]:
    rng = d.rng
    small, medium, large = [], [], []
    # small: revival scans in windows around p/q T, (1,2) and (1,1) every round
    fracs = [(1, 2), (1, 1), rng.choice(_FRACTIONS)]
    for (u, fmt), (v, _), frac in zip(d.slots("window", 3), d.slots("window.n0", 3), fracs):
        res = rng.choice([0.03125, 0.0625, 0.125])
        small.append(_window_scan(_revival_n0(v), d.x0(), _revival_dx0(u), frac,
                                 round(_log(u, 100, 600)), res, fmt))
    # medium: stroboscopic and dense full-period observables.  Packets with
    # n0 above about 2900 trip the imaginary-residue check on <p> and exit
    # with code 2.  That is a known defect of the program (see the ROADMAP);
    # these jobs stay in the mix so the benchmark shows it until it is fixed.
    for (u, fmt), (v, _) in zip(d.slots("strobe", 3), d.slots("strobe.n0", 3)):
        n0, dx0 = _revival_n0(v), _revival_dx0(u)
        step = max(1, round(2 * n0 / _samples_for(0.16 * (1 + 0.15 * u), _revival_cost, dx0)))
        medium.append(_strobe_observables(n0, d.x0(), dx0, step, fmt))
    for (u, fmt), (v, _) in zip(d.slots("obs", 2), d.slots("obs.n0", 2)):
        dx0 = _revival_dx0(u)
        count = _samples_for(0.16 * (1 + 0.15 * u), _revival_cost, dx0)
        medium.append(_dense_observables(_revival_n0(v), d.x0(), dx0, count, fmt))
    # large: one scan of the whole period [0, T] and one long dense series
    for u, fmt in d.slots("full", 1):
        dx0 = _revival_dx0(u)
        large.append(_full_scan(_full_scan_n0(0.6 * (1 + 0.15 * u), dx0), d.x0(), dx0, fmt))
    for (u, fmt), (v, _) in zip(d.slots("obs.large", 1), d.slots("obs.large.n0", 1)):
        dx0 = _revival_dx0(u)
        count = _samples_for(0.6 * (1 + 0.15 * u), _revival_cost, dx0)
        large.append(_dense_observables(_revival_n0(v), d.x0(), dx0, count, fmt))
    return _interleave(rng, {"S": small, "M": medium, "L": large}, "SMLMSMMLSM")


def _revival_warmup() -> list[Job]:
    n0, x0, dx0 = 3996, 0.5, 0.005
    return [
        _full_scan(n0, x0, dx0, "json", res="0.25"),
        _window_scan(n0, x0, dx0, (1, 2), 1000, 0.125, "json"),
        _strobe_observables(1500, x0, 0.009, 3, "json"),
        _dense_observables(1500, x0, 0.009, 3000, "json"),
    ]


# --- powerlaw_family --------------------------------------------------------

_K_POOL = ["1", "1.5", "3", "4", "6", "8"]
_EXTRA_K = [["infinity"], ["2.05"], []]


def powerlaw_fit_periods(k: str, n0: int, dn: float, half: bool) -> float:
    """T_C / tau for a Gaussian-in-n packet in a power-law well.

    T(k, n) = |(k+2)/(k-2)| 2 (n + mu) tau(k, n) and T_C = T / (2 pi dn^2);
    the box limit has ratio 1 and n + 1 in place of n + mu.
    """
    if k == "infinity":
        return (n0 + 1) / (math.pi * dn**2)
    kv = float(k)
    mu = 0.75 if half else 0.5
    return abs((kv + 2.0) / (kv - 2.0)) * (n0 + mu) / (math.pi * dn**2)


def _powerlaw(ks: list[str], n_min: int, n_max: int, half: bool, v0: float, a: float,
              fit: tuple[int, float] | None, fmt: str) -> Job:
    keys = {"k": ", ".join(ks), "n_min": n_min, "n_max": n_max,
            "half": str(half).lower(), "v0": f"{v0:.3f}", "a": f"{a:.3f}"}
    if fit is not None:
        keys.update({"fit": "true", "fit_n0": fit[0], "fit_dn": fit[1]})
    return Job("powerlaw-fit" if fit else "powerlaw", "powerlaw",
               _ini({"powerlaw": keys}), fmt,
               {"k": ks, "n_min": n_min, "n_max": n_max, "half": half,
                "v0": float(f"{v0:.3f}"), "a": float(f"{a:.3f}"), "fit": fit is not None})


def _fit_params(rng: random.Random, ks: list[str], half: bool):
    """Seeded (fit_n0, fit_dn) with T_C / tau >= 12 for every k but 2."""
    for _ in range(50):
        n0, dn = rng.randint(100, 600), round(rng.uniform(1.5, 4.0), 2)
        if all(powerlaw_fit_periods(k, n0, dn, half) >= MIN_FIT_PERIODS
               for k in ks if k != "2"):
            return n0, dn
    return None


def _powerlaw_job(rng: random.Random, ks: list[str], levels: float, fit: bool,
                  fmt: str) -> Job:
    """k = 2 plus ``ks`` over ``levels`` levels from a seeded n_min."""
    ks = sorted(["2"] + ks, key=lambda k: math.inf if k == "infinity" else float(k))
    half = rng.random() < 0.3
    n_min = rng.randint(0, 50)
    return _powerlaw(ks, n_min, n_min + round(levels), half,
                     rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                     _fit_params(rng, ks, half) if fit else None, fmt)


def _powerlaw_round(d: Draws) -> list[Job]:
    # A job's cost is about (levels) x (exponents), each finite k costing
    # the same and k = infinity (a closed form) about 0.4 of that; a JSON
    # file costs about 1.4 times a CSV one.  Sizes come in classes, as in
    # the other workloads, so that the median and the 90th percentile fall
    # inside a class of nearly equal cost whatever k the seed draws.
    rng = d.rng
    small, medium, large = [], [], []
    # small: one or two finite k, sometimes k = infinity or 2.05 (set by u),
    # 200-500 levels, two of the three with a collapse fit
    for i, (u, fmt) in enumerate(d.slots("small", 3)):
        ks = rng.sample(_K_POOL, 1 + int(2 * u)) + _EXTRA_K[int(9 * u) % 3]
        small.append(_powerlaw_job(rng, ks, _lin(u, 200, 500), i < 2, fmt))
    # medium: three finite k over 600-660 levels, CSV, no fit
    for u, _ in d.slots("medium", 4):
        medium.append(_powerlaw_job(rng, rng.sample(_K_POOL, 3), _lin(u, 600, 660),
                                    False, "csv"))
    # large: four finite k and k = infinity over 1100-1200 levels, JSON,
    # one of the three with a collapse fit
    for i, (u, _) in enumerate(d.slots("large", 3)):
        large.append(_powerlaw_job(rng, rng.sample(_K_POOL, 4) + ["infinity"],
                                   _lin(u, 1100, 1200), i == 0, "json"))
    return _interleave(rng, {"S": small, "M": medium, "L": large}, "SMLMSLMSLM")


def _powerlaw_warmup() -> list[Job]:
    ks = ["1", "1.5", "2", "2.05", "3", "4", "6", "8", "infinity"]
    return [_powerlaw(ks, 0, 1200, False, 1.0, 1.0, (600, 2.0), "json")]


# --- registry ---------------------------------------------------------------

WORKLOADS = {
    "bounce_dense": (_bounce_round, _bounce_warmup),
    "revival_large": (_revival_round, _revival_warmup),
    "powerlaw_family": (_powerlaw_round, _powerlaw_warmup),
}


def warmup(workload: str) -> list[Job]:
    """Fixed jobs run before timing, holding each job kind's largest size."""
    return WORKLOADS[workload][1]()


# Wall seconds one round takes on the reference machine (2 vCPUs; median
# of ten runs of each workload), untraced; a traced round runs every job twice,
# once under the span wrappers.  A run holds a fixed number of whole rounds
# set from these and --seconds, so that its job list, and with it the
# attempted and failed counts, depends only on the seed and --seconds and
# never on how fast the machine happened to be during the run.
ROUND_SECONDS = {"bounce_dense": 2.6, "revival_large": 2.0, "powerlaw_family": 1.8}
TRACED_ROUND_FACTOR = 2.5


def rounds(workload: str, seconds: float, traced: bool = False) -> int:
    """Whole rounds that last about ``seconds`` on the reference machine."""
    per_round = ROUND_SECONDS[workload] * (TRACED_ROUND_FACTOR if traced else 1.0)
    return max(1, math.ceil(seconds / per_round))


def job_list(workload: str, seed: int, n_rounds: int) -> list[Job]:
    """The first ``n_rounds`` rounds of jobs for one workload and seed."""
    make_round = WORKLOADS[workload][0]
    draws = Draws(random.Random(f"{workload}:{seed}"))
    return [job for _ in range(n_rounds) for job in make_round(draws)]
