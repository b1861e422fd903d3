"""WKB spectra and time scales for power-law wells V(x) = V0 |x/a|^k.

The full well spans all x; the half variant adds an infinite wall at the
origin (x > 0 only).  Energies come from the semiclassical quantization
rule with a Maslov constant mu fixed by the turning-point character:
1/4 per soft turning point, 1/2 per hard wall.  k = 2 is the oscillator
(isochronous, no finite revival); k -> infinity is the box limit, exposed
both as huge finite k and as an explicit analytic variant (k = math.inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .correlation import DEFAULT_FIT_THRESHOLD, CollapseFit, _summed, fit_stroboscopic
from .packet import PacketSpec, level_range, level_window, map_phases
from .system import _check_level, _float_pow

__all__ = [
    "PowerLawWell",
    "wkb_energy",
    "wkb_spectrum",
    "classical_period_powerlaw",
    "revival_time_powerlaw",
    "collapse_time_powerlaw",
    "gaussian_weights",
    "powerlaw_autocorrelation",
    "fit_powerlaw_collapse",
]

@dataclass(frozen=True)
class PowerLawWell:
    """V(x) = V0 |x/a|^k, optionally walled at the origin (half=True).

    k may be math.inf for the analytic box limit.  Only the combination
    V0 / a^k is dynamically meaningful; both are kept for readability.
    """

    k: float
    V0: float = 1.0
    a: float = 1.0
    mass: float = 0.5
    hbar: float = 1.0
    half: bool = False

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("exponent k must be positive")
        for name in ("V0", "a", "mass", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")
        if self.V0 <= 0 or self.a <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise ValueError("V0, a, mass and hbar must be positive")
        # V0 ** (1/k), a factor of every E_n, must be a normal double: past |ln V0| / k
        # of about 708 it overflows, flushes E_n to 0 or leaves a normal E_n short of digits
        try:
            root = self.V0 ** (1.0 / self.k)
        except OverflowError:
            root = math.inf
        if not np.finfo(float).smallest_normal <= root < math.inf:
            raise ValueError(f"k: V0 ** (1/k) is not a normal double at k = {self.k!r}, "
                             f"V0 = {self.V0!r}")

    @property
    def maslov_mu(self) -> float:
        if math.isinf(self.k):
            return 1.0        # two hard walls
        return 0.75 if self.half else 0.5


def wkb_energy(well: PowerLawWell, n):
    """Semiclassical energy of state n = 0, 1, 2, ...

    Finite k:

        E_n = [(n + mu) * pref * V0^(1/k)
               * Gamma(1/k + 3/2) / (Gamma(1/k + 1) Gamma(3/2))]^(2k/(k+2))

    with pref = hbar pi / (2 a sqrt(2m)) for the full well and twice that
    for the half well.  k = math.inf gives the box spectrum exactly:
    width 2a (full) or a (half) with prefactor (n + 1).  An int array of
    states gives an array, element for element the scalar values.  Every
    energy must be a finite, positive double, and the bracket (the base of
    the power) a normal double at the lowest level: ValueError names k and
    a level where one is not.
    """
    n = _check_level(n, 0)
    with np.errstate(all="ignore"):
        E = _energy(well, n)
    _refuse(well, n, E)
    return E


def _refuse(well: PowerLawWell, n, *values):
    """The finiteness rule: ValueError naming k, the value and the level where
    E, tau, T_rev or T_C (`values`, in that order; None is skipped) at a
    level or an int array of levels n is not a finite, positive double at
    the largest or the lowest level, or where, with E, the base of E_n is
    not a normal double at the lowest.  Each is monotone in n, so these two
    bound every level; T_rev and T_C, meaningless below n = 1, are not
    checked there."""
    def refuse(what: str):
        raise ValueError(f"k: the {what} at k = {well.k!r}, V0 = {well.V0!r}, a = {well.a!r}")

    n = np.ravel(n)
    if not n.size:
        return
    top, low = int(n.argmax()), int(n.argmin())
    # with E: a subnormal base gives a normal E_n short of digits
    if values[0] is not None and not _base(well, n.item(low)) >= np.finfo(float).smallest_normal:
        refuse(f"base of the WKB energy at n = {n[low]} is not a normal double")
    for name, lowest, v in zip(("WKB energy", "classical period", "revival time",
                                "collapse time"), (0, 0, 1, 1), values):
        for i in dict.fromkeys((top, low)) if v is not None else ():
            if n.item(i) >= lowest and not 0.0 < np.ravel(v).item(i) < math.inf:
                refuse(f"{name} at n = {n[i]} is not a finite positive double")


def _base(well: PowerLawWell, n):
    """The base b_n of E_n = b_n ** (2k / (k + 2)), or of E_n = b_n ** 2 / (2 m)
    in the box limit, at a level or an int array of levels n; it grows with n."""
    hbar, a = well.hbar, well.a
    if math.isinf(well.k):
        return (n + 1) * math.pi * hbar / (a if well.half else 2.0 * a)
    k = well.k
    pref = hbar * math.pi / ((a if well.half else 2.0 * a) * math.sqrt(2.0 * well.mass))
    gamma_ratio = math.exp(math.lgamma(1.0 / k + 1.5) - math.lgamma(1.0 / k + 1.0)
                           - math.lgamma(1.5))
    return (n + well.maslov_mu) * pref * well.V0 ** (1.0 / k) * gamma_ratio


def _energy(well: PowerLawWell, n):
    """E_n of wkb_energy, unchecked: inf past the doubles, at every level
    whose power overflows (the C pow of np.float_power; np.power and
    np.square differ in the last bit), 0 below them."""
    try:
        if math.isinf(well.k):
            return _float_pow(_base(well, n), 2) / (2.0 * well.mass)
        return _float_pow(_base(well, n), 2.0 * well.k / (well.k + 2.0))
    except OverflowError:       # a scalar level's power overflowed
        return math.inf


def _times(well: PowerLawWell, n, E):
    """(tau, T_rev) of classical_period_powerlaw and revival_time_powerlaw at
    levels n with energies E; T_rev is None at k = 2."""
    if math.isinf(well.k):
        tau = math.pi * well.hbar * (n + 1) / E
        return tau, 2.0 * (n + 1) * tau
    factor = (2.0 + well.k) / (2.0 * well.k)
    tau = 2.0 * math.pi * well.hbar * (n + well.maslov_mu) * factor / E
    if well.k == 2.0:
        return tau, None
    ratio = abs((well.k + 2.0) / (well.k - 2.0))
    return tau, ratio * 2.0 * (n + well.maslov_mu) * tau


def _spectrum(well: PowerLawWell, n):
    """(E, tau, T_rev) of wkb_spectrum at an int array of levels n, unchecked
    and without a warning."""
    with np.errstate(all="ignore"):
        E = _energy(well, n)
        return (E, *_times(well, n, E))


def wkb_spectrum(well: PowerLawWell, levels):
    """(E, tau, T_rev) of an int array of levels, element for element the
    values of wkb_energy, classical_period_powerlaw and revival_time_powerlaw.
    T_rev is None at k = 2, and its entries below n = 1 mean nothing.  Each
    must be a finite, positive double at the largest and the lowest level,
    and the base of E a normal double at the lowest: ValueError names k,
    the value and a level where one is not."""
    levels = _check_level(np.atleast_1d(levels), 0)
    spectrum = _spectrum(well, levels)
    _refuse(well, levels, *spectrum)
    return spectrum


def classical_period_powerlaw(well: PowerLawWell, n) -> float:
    """Classical oscillation period at the energy of state n.

    tau(k, n) = (2 pi hbar / E_n) (n + mu) (2 + k) / (2k); this equals
    2 pi hbar / (dE/dn), so stroboscopic sampling at multiples of tau
    freezes the first-order phase winding.  k = 2 reduces to 2 pi / omega
    for every n.  The period must be a finite, positive double: ValueError,
    as from wkb_spectrum, where it is not.
    """
    n = _check_level(n, 0)
    tau = _times(well, n, wkb_energy(well, n))[0]
    _refuse(well, n, None, tau)
    return tau


def revival_time_powerlaw(well: PowerLawWell, n) -> float | None:
    """Revival time T(k, n) = |(k+2)/(k-2)| * 2 (n + mu) * tau(k, n).

    Equals 4 pi hbar / |E''(n)| exactly for the WKB spectrum.  Returns None
    at k = 2: the oscillator is periodic, all phases rewind every classical
    period and no finite revival scale exists.  Otherwise T must be a
    finite, positive double: ValueError, as from wkb_spectrum, where it is not.
    """
    n = _check_level(n, 1)
    T = _times(well, n, wkb_energy(well, n))[1]
    _refuse(well, n, None, None, T)
    return T


def collapse_time_powerlaw(well: PowerLawWell, n0: int, dn: float) -> float | None:
    """T_C = T(k, n0) / (2 pi dn^2) for a Gaussian level distribution, a
    finite, positive double or ValueError as from wkb_spectrum (None at k = 2)."""
    T = revival_time_powerlaw(well, n0)
    if T is None:
        return None
    try:
        T_C = T / (2.0 * math.pi * dn**2)
    except (OverflowError, ZeroDivisionError):      # dn^2 past the doubles
        T_C = math.inf
    _refuse(well, n0, None, None, None, T_C)
    return T_C


def gaussian_weights(n0: int, dn: float,
                     window_sigmas: float) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Normalized |a_n|^2 ~ exp(-(n-n0)^2 / (2 dn^2)) on packet.level_window's
    window, clipped at n = 0, its levels from packet.level_range."""
    levels = level_range(*level_window(n0, dn, window_sigmas, 0), "packet")
    w = np.exp(-((levels - n0) / dn) ** 2 / 2.0)
    return levels, w / w.sum()


def _autocorrelation(well: PowerLawWell, levels, weights):
    """The function t -> C(t) of powerlaw_autocorrelation at a 1-d float
    array of times, its weights checked and its energies computed once."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be normalized")
    fn, E = _summed(w), wkb_energy(well, np.asarray(levels))
    return lambda t: map_phases(fn, E, well.hbar, t, np.empty(t.shape, dtype=complex))


def powerlaw_autocorrelation(well: PowerLawWell, levels, weights,
                             times) -> NDArray[np.complex128]:
    """C(t) = Sum w_n exp(i E_n t / hbar) over the WKB spectrum, at each of
    a 1-d array of times, through the float chunk kernel (packet.map_phases)."""
    return _autocorrelation(well, levels, weights)(np.atleast_1d(np.asarray(times, dtype=float)))


def fit_powerlaw_collapse(well: PowerLawWell, n0: int, dn: float,
                          threshold: float = DEFAULT_FIT_THRESHOLD) -> CollapseFit:
    """Stroboscopic collapse fit for a Gaussian-in-n packet in this well.

    Samples |C(n tau)| (powerlaw_autocorrelation, over one spectrum for the
    whole fit) at the classical period of the central state, over
    PacketSpec's default window, with the square-well fit's engine.
    """
    levels, w = gaussian_weights(n0, dn, PacketSpec.window_sigmas)
    tau = classical_period_powerlaw(well, n0)
    C = _autocorrelation(well, levels, w)
    return fit_stroboscopic(lambda ns: np.abs(C(ns * tau)), tau, threshold)
