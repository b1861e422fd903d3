"""Exact time evolution on position and momentum grids.

Evolution is exact in the eigenbasis: each coefficient picks up the phase
exp(-i E_n t / hbar), and the wavefunction is the coherent sum over the
window.  Grids exist for densities and visualization; moments are computed
from matrix elements in the observables module instead, which avoids grid
truncation bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .packet import EigenExpansion, _time_chunks, held
from .system import ScaleError, WellSystem, level_momentum, momentum_basis, position_basis

__all__ = [
    "SpatialGrid",
    "MomentumGrid",
    "WaveField",
    "position_wavefunction",
    "momentum_wavefunction",
    "probability_density",
    "density_norm",
]


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform grid spanning the well, endpoints included."""

    points: NDArray[np.float64]

    @classmethod
    def default(cls, sys: WellSystem, n_points: int) -> "SpatialGrid":
        return cls(held(f"the {n_points} x_points",
                        lambda: np.linspace(0.0, sys.width_L, n_points), n_points,
                        lambda message: ScaleError("grids", message)))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """Uniform momentum grid, symmetric about p = 0.

    Built as integer multiples of the spacing so that -p is on the grid
    exactly whenever p is; the p -> -p flip checks rely on that.
    """

    points: NDArray[np.float64]

    @classmethod
    def default(cls, sys: WellSystem, n0: int, span: float,
                spacing: float) -> "MomentumGrid":
        """Multiples of ``spacing`` out to ``span`` p0 (p0 of level n0), under packet.held."""
        # a positive quotient's ceiling, 1 where it underflows; inf past the doubles
        kmax = max(np.ceil(span * level_momentum(n0, sys) / spacing), 1.0)
        return cls(held(f"the momenta out to p_span = {span!r} p0, p_spacing = {spacing!r} apart",
                        lambda: np.arange(-int(kmax), int(kmax) + 1) * spacing, 2 * kmax + 1,
                        lambda message: ScaleError("grids", message)))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.array_equal(pts, -pts[::-1]):
            raise ValueError("momentum grid must be symmetric about 0")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)


@dataclass(frozen=True, eq=False)
class WaveField:
    """Complex amplitudes over a grid at a fixed time."""

    grid: SpatialGrid | MomentumGrid
    amplitudes: NDArray[np.complex128]
    time: float

    def __post_init__(self):
        if len(self.amplitudes) != len(self.grid.points):
            raise ValueError("amplitude array does not match grid size")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("non-finite amplitudes")
        self.amplitudes.setflags(write=False)


def _fields(basis, exp: EigenExpansion, grid, t):
    """The fields Sum a_n b_n(q) exp(-i E_n t / hbar) over the grid points q
    for each time of ``t``, b_n = ``basis``; one field if ``t`` is a scalar.

    The basis is built in the row blocks of packet._time_chunks, each
    applied to every time's coefficients and dropped before the next, so a
    call holds one block, not the whole basis, beyond the fields it returns."""
    scalar = np.ndim(t) == 0
    times = [t] if scalar else list(t)
    coeffs = [exp.phases_at(s) for s in times]
    points = grid.points
    amps = [np.empty(len(points), dtype=complex) for _ in times]
    for s in _time_chunks(len(points), len(exp.levels)):
        block = basis(exp.levels, points[s], exp.sys).astype(complex, copy=False)
        for amp, c in zip(amps, coeffs):
            amp[s] = block @ c      # one GEMV per time
        del block
    fields = [WaveField(grid=grid, amplitudes=amp, time=np.asarray(s, dtype=float).item())
              for amp, s in zip(amps, times)]
    return fields[0] if scalar else fields


def position_wavefunction(exp: EigenExpansion, grid: SpatialGrid,
                          t) -> WaveField | list[WaveField]:
    """psi(x, t) = Sum a_n u_n(x) exp(-i E_n t / hbar) on the grid.  For a
    sequence of times a list of fields, one per time, the basis built once
    for all of them."""
    return _fields(position_basis, exp, grid, t)


def momentum_wavefunction(exp: EigenExpansion, grid: MomentumGrid,
                          t) -> WaveField | list[WaveField]:
    """phi(p, t) = Sum a_n phi_n(p) exp(-i E_n t / hbar) on the grid.  For
    a sequence of times a list of fields, one per time, the basis built
    once."""
    return _fields(momentum_basis, exp, grid, t)


def probability_density(field: WaveField) -> NDArray[np.float64]:
    """Pointwise |amplitude|^2."""
    return np.abs(field.amplitudes) ** 2


def density_norm(field: WaveField) -> float:
    """Trapezoid integral of the density over the field's grid."""
    return float(np.trapezoid(probability_density(field), field.grid.points))
