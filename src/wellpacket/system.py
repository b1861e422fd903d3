"""Infinite square well: units, eigenbasis, classical reference motion.

The well occupies 0 <= x <= L with infinite walls.  Everything downstream
(packets, evolution, observables) is built on the eigenbasis defined here.
Default units follow 2m = hbar = L = 1, i.e. m = 1/2, hbar = 1, L = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "WellSystem",
    "ScaleError",
    "ClassicalState",
    "eigenenergy",
    "eigenstate_position",
    "eigenstate_momentum",
    "position_basis",
    "momentum_basis",
    "level_momentum",
    "classical_speed",
    "revival_time",
    "classical_trajectory",
]


@dataclass(frozen=True)
class WellSystem:
    """Physical constants of the well (natural units by default)."""

    mass: float = 0.5
    hbar: float = 1.0
    width_L: float = field(default=1.0, metadata={"key": "length"})

    def __post_init__(self):
        for name in ("mass", "hbar", "width_L"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")


class ScaleError(ValueError):
    """A derived scale of the box that is not a finite, positive double;
    ``source`` names what it derives from, "system" for the well's own
    scales and "packet" for the packet's."""

    def __init__(self, source: str, message: str):
        super().__init__(message)
        self.source = source


def _scale(source: str, name: str, compute: Callable[[], float]) -> float:
    """compute(), under the box's finiteness rule: ScaleError naming ``name``
    unless it is a finite, positive double.  A float power that overflows
    and a division by zero count as inf."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ScaleError(source, f"{name} = {value!r} is not a finite positive double")
    return value


@dataclass(frozen=True)
class ClassicalState:
    """Bouncing point particle: position in [0, L] and signed velocity
    (arrays of them for an array of times)."""

    position: float | NDArray[np.float64]
    velocity: float | NDArray[np.float64]


def _check_level(n, lowest: int = 1):
    """n as an int, or an int array of levels; every level must be >= lowest."""
    if np.isscalar(n) and int(n) == n >= lowest:
        return int(n)
    ns = np.asarray(n)
    if ns.dtype.kind in "iu" and np.all(ns >= lowest):
        return ns
    raise ValueError(f"level index must be an integer >= {lowest}, got {n!r}")


def level_momentum(n, sys: WellSystem = WellSystem()):
    """p_n = n pi hbar / L, the momentum magnitude of level n.  An int array
    of levels gives an array, element for element the scalar values."""
    return _check_level(n) * math.pi * sys.hbar / sys.width_L


def _float_pow(base, power):
    """base ** power by Python's float power, element by element for a 1-d
    array through math.pow, the same C pow: numpy's power and square differ
    from it in the last bit for some bases."""
    if np.ndim(base) == 0:
        return base ** power
    return np.fromiter(map(math.pow, base.tolist(), repeat(power)), float, len(base))


def eigenenergy(n, sys: WellSystem = WellSystem()):
    """E_n = p_n^2 / (2 m) = n^2 hbar^2 pi^2 / (2 m L^2), n = 1, 2, ...  An
    int array of levels gives an array, element for element the scalar
    values."""
    return _float_pow(level_momentum(n, sys), 2) / (2.0 * sys.mass)


def classical_speed(n, sys: WellSystem = WellSystem()) -> float:
    """v_n = n pi hbar / (m L), the speed of a classical particle with momentum p_n."""
    return _check_level(n) * math.pi * sys.hbar / (sys.mass * sys.width_L)


def revival_time(sys: WellSystem = WellSystem()) -> float:
    """T = 4 m L^2 / (pi hbar), the period of every phase exp(-i E_n t / hbar)."""
    return 4.0 * sys.mass * sys.width_L**2 / (sys.hbar * math.pi)


def eigenstate_position(n, x, sys: WellSystem = WellSystem()) -> float:
    """u_n(x) of position_basis, clamped to 0 outside the well."""
    u = float(position_basis([_check_level(n)], [x], sys)[0, 0])
    return 0.0 if x < 0.0 or x > sys.width_L else u


def position_basis(levels, x, sys: WellSystem = WellSystem()) -> NDArray[np.float64]:
    """u_n(x) = sqrt(2/L) sin(n pi x / L) for every position in ``x`` (rows)
    and level in ``levels`` (columns)."""
    L = sys.width_L
    return np.sqrt(2.0 / L) * np.sin(np.outer(x, levels) * np.pi / L)


# Relative closeness to p = +-p_n below which the bracket in phi_n(p) is
# evaluated by series instead of the closed form (catastrophic cancellation).
_SINGULAR_EPS = 1e-6


def eigenstate_momentum(n, p, sys: WellSystem = WellSystem()) -> complex:
    """Momentum-space eigenstate phi_n(p) of the well.

    Closed form

        phi_n(p) = sqrt(hbar / (pi L)) * p_n / (p^2 - p_n^2)
                   * ((-1)^n exp(-i p L / hbar) - 1),

    the Fourier transform (1/sqrt(2 pi hbar)) Int_0^L u_n(x) exp(-i p x/hbar) dx.
    The removable singularities at p = +-p_n are evaluated by a series
    expansion of the bracket so the function is continuous in p.

    Returns
    -------
    complex
        Amplitude; |phi_n|^2 integrates to 1 over all p (tails fall as p^-4).
    """
    n = _check_level(n)
    return complex(momentum_basis([n], [p], sys)[0, 0])


def momentum_basis(levels, p, sys: WellSystem = WellSystem()) -> NDArray[np.complex128]:
    """phi_n(p) for every momentum in ``p`` (rows) and level in ``levels``
    (columns); the closed form of eigenstate_momentum, vectorized."""
    hbar, L = sys.hbar, sys.width_L
    ns = np.asarray(levels)
    p = np.asarray(p, dtype=float)
    pn = level_momentum(ns, sys)
    norm = np.sqrt(hbar / (np.pi * L))
    P = p[:, None]
    sign = np.where(ns % 2 == 1, -1.0, 1.0)
    # p^2 overflows past 1.3e154, where phi_n(p) is 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d2 = P**2 - pn[None, :] ** 2
        out = norm * pn[None, :] / d2 * (sign[None, :] * np.exp(-1j * P * L / hbar) - 1.0)
    near = np.abs(d2) < _SINGULAR_EPS * pn[None, :] ** 2
    if np.any(near):
        # Near p = s*pn write u = (p - s*pn) L / hbar; then
        #   phi_n = norm * (pn L / hbar) * [(exp(-iu) - 1)/u] / (p + s*pn)
        # and (exp(-iu)-1)/u is expanded about u = 0.  (-1)^n exp(-i s pn L/hbar) = 1.
        ii, jj = np.nonzero(near)
        s = np.where(p[ii] >= 0.0, 1.0, -1.0)
        u = (p[ii] - s * pn[jj]) * L / hbar
        z = -1j * u
        series = -1j * (1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0 + z**4 / 120.0)
        out[ii, jj] = norm * (pn[jj] * L / hbar) * series / (p[ii] + s * pn[jj])
    return out


def classical_trajectory(t, x0, v0, sys: WellSystem = WellSystem()) -> ClassicalState:
    """Bouncing classical particle: triangle-wave fold of x0 + v0 t into [0, L].

    The solution is evaluated in closed form (no time stepping), so it is
    periodic with period 2L/|v0| to round-off for arbitrarily late times.
    A particle with v0 = 0 stays put.  ``t`` may be an array, which gives
    arrays of positions and velocities, element for element the values of
    scalar calls.
    """
    L = sys.width_L
    if not 0.0 <= x0 <= L:
        raise ValueError(f"x0 must lie in [0, {L}], got {x0}")
    t = np.asarray(t, dtype=float)
    if v0 == 0.0:
        y, v = np.full(t.shape, float(x0)), np.zeros(t.shape)
    else:
        y = np.fmod(x0 + v0 * t, 2.0 * L)
        y = np.where(y < 0.0, y + 2.0 * L, y)
        back = y > L
        y, v = np.where(back, 2.0 * L - y, y), np.where(back, -v0, v0)
    if t.ndim == 0:
        return ClassicalState(float(y), float(v))
    return ClassicalState(y, v)
