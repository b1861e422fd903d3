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
from .packet import PacketSpec, map_phases
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
        _check_root(self.k, self.V0)

    @property
    def maslov_mu(self) -> float:
        if math.isinf(self.k):
            return 1.0        # two hard walls
        return 0.75 if self.half else 0.5


def _check_root(k: float, V0: float):
    """Refuse an exponent k for a V0 > 0 whose V0 ** (1/k), a factor of every
    WKB energy, is not a normal double, as where |ln V0| / k passes about 708:
    the power would overflow, or flush every E_n to 0."""
    try:
        root = V0 ** (1.0 / k)
    except OverflowError:
        root = math.inf
    if not np.finfo(float).smallest_normal <= root < math.inf:
        raise ValueError(f"k: V0 ** (1/k) is not a normal double at k = {k!r}, V0 = {V0!r}")


def wkb_energy(well: PowerLawWell, n):
    """Semiclassical energy of state n = 0, 1, 2, ...

    Finite k:

        E_n = [(n + mu) * pref * V0^(1/k)
               * Gamma(1/k + 3/2) / (Gamma(1/k + 1) Gamma(3/2))]^(2k/(k+2))

    with pref = hbar pi / (2 a sqrt(2m)) for the full well and twice that
    for the half well.  k = math.inf gives the box spectrum exactly:
    width 2a (full) or a (half) with prefactor (n + 1).  An int array of
    states gives an array, element for element the scalar values.  Every
    energy must be a finite, positive double: ValueError names k and a
    level where it is not.
    """
    n = _check_level(n, 0)
    scalar = not isinstance(n, np.ndarray)
    # E_n grows with n: where the energies of the largest and the lowest
    # level are finite, positive doubles, so are those between, and no
    # product on the way to them overflows
    for end in (n,) if scalar else (n.max(), n.min()) if n.size else ():
        try:
            E = _energy(well, int(end))
        except OverflowError:
            E = math.inf
        if not 0.0 < E < math.inf:
            raise ValueError(f"k: the WKB energy at n = {end} is not a finite positive double "
                             f"at k = {well.k!r}, V0 = {well.V0!r}, a = {well.a!r}")
    return E if scalar else _energy(well, n)


def _energy(well: PowerLawWell, n):
    """E_n of wkb_energy, unchecked: past the doubles, inf or OverflowError."""
    m, hbar, a = well.mass, well.hbar, well.a
    if math.isinf(well.k):
        width = a if well.half else 2.0 * a
        return _float_pow((n + 1) * math.pi * hbar / width, 2) / (2.0 * m)
    k = well.k
    pref = hbar * math.pi / ((a if well.half else 2.0 * a) * math.sqrt(2.0 * m))
    gamma_ratio = math.exp(math.lgamma(1.0 / k + 1.5) - math.lgamma(1.0 / k + 1.0)
                           - math.lgamma(1.5))
    base = (n + well.maslov_mu) * pref * well.V0 ** (1.0 / k) * gamma_ratio
    return _float_pow(base, 2.0 * k / (k + 2.0))


def _period(well: PowerLawWell, n, E):
    """tau of classical_period_powerlaw at levels n with energies E."""
    if math.isinf(well.k):
        return math.pi * well.hbar * (n + 1) / E
    factor = (2.0 + well.k) / (2.0 * well.k)
    return 2.0 * math.pi * well.hbar * (n + well.maslov_mu) * factor / E


def _revival(well: PowerLawWell, n, tau):
    """T_rev of revival_time_powerlaw at levels n with periods tau."""
    if well.k == 2.0:
        return None
    if math.isinf(well.k):
        return 2.0 * (n + 1) * tau
    ratio = abs((well.k + 2.0) / (well.k - 2.0))
    return ratio * 2.0 * (n + well.maslov_mu) * tau


def wkb_spectrum(well: PowerLawWell, levels):
    """(E, tau, T_rev) of an int array of levels, element for element the
    values of wkb_energy, classical_period_powerlaw and revival_time_powerlaw.
    T_rev is None at k = 2, and its entries below n = 1 mean nothing."""
    levels = _check_level(levels, 0)
    E = wkb_energy(well, levels)
    tau = _period(well, levels, E)
    return E, tau, _revival(well, levels, tau)


def classical_period_powerlaw(well: PowerLawWell, n) -> float:
    """Classical oscillation period at the energy of state n.

    tau(k, n) = (2 pi hbar / E_n) (n + mu) (2 + k) / (2k); this equals
    2 pi hbar / (dE/dn), so stroboscopic sampling at multiples of tau
    freezes the first-order phase winding.  k = 2 reduces to 2 pi / omega
    for every n.
    """
    n = _check_level(n, 0)
    return _period(well, n, wkb_energy(well, n))


def revival_time_powerlaw(well: PowerLawWell, n) -> float | None:
    """Revival time T(k, n) = |(k+2)/(k-2)| * 2 (n + mu) * tau(k, n).

    Equals 4 pi hbar / |E''(n)| exactly for the WKB spectrum.  Returns None
    at k = 2: the oscillator is periodic, all phases rewind every classical
    period and no finite revival scale exists.
    """
    n = _check_level(n, 1)
    return _revival(well, n, classical_period_powerlaw(well, n))


def collapse_time_powerlaw(well: PowerLawWell, n0: int, dn: float) -> float | None:
    """T_C = T(k, n0) / (2 pi dn^2) for a Gaussian level distribution."""
    T = revival_time_powerlaw(well, n0)
    if T is None:
        return None
    return T / (2.0 * math.pi * dn**2)


def gaussian_weights(n0: int, dn: float,
                     window_sigmas: float) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Normalized |a_n|^2 ~ exp(-(n-n0)^2 / (2 dn^2)) on a clipped window."""
    if dn <= 0:
        raise ValueError("dn must be positive")
    lo = max(0, math.ceil(n0 - window_sigmas * dn))
    hi = math.floor(n0 + window_sigmas * dn)
    if hi < lo:
        raise ValueError("weight window is empty")
    levels = np.arange(lo, hi + 1)
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
