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

from .packet import EigenExpansion
from .system import WellSystem, level_momentum, momentum_basis, position_basis

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
        return cls(np.linspace(0.0, sys.width_L, n_points))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])


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
        """Multiples of ``spacing`` out to ``span`` p0, p0 the momentum of level n0."""
        kmax = int(np.ceil(span * level_momentum(n0, sys) / spacing))
        return cls(np.arange(-kmax, kmax + 1) * spacing)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.array_equal(pts, -pts[::-1]):
            raise ValueError("momentum grid must be symmetric about 0")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])


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


def position_wavefunction(exp: EigenExpansion, grid: SpatialGrid, t: float,
                          theta=None) -> WaveField:
    """psi(x, t) = Sum a_n u_n(x) exp(-i E_n t / hbar) on the grid; ``theta``
    is the exact t / T, if known."""
    amp = position_basis(exp.levels, grid.points, exp.sys) @ exp.phases_at(t, theta)
    return WaveField(grid=grid, amplitudes=amp, time=t)


def momentum_wavefunction(exp: EigenExpansion, grid: MomentumGrid, t: float,
                          theta=None) -> WaveField:
    """phi(p, t) = Sum a_n phi_n(p) exp(-i E_n t / hbar) on the grid;
    ``theta`` is the exact t / T, if known."""
    amp = momentum_basis(exp.levels, grid.points, exp.sys) @ exp.phases_at(t, theta)
    return WaveField(grid=grid, amplitudes=amp, time=t)


def probability_density(field: WaveField) -> NDArray[np.float64]:
    """Pointwise |amplitude|^2."""
    return np.abs(field.amplitudes) ** 2


def density_norm(field: WaveField) -> float:
    """Trapezoid integral of the density over the field's grid."""
    return float(np.trapezoid(probability_density(field), field.grid.points))
