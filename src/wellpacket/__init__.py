"""Wave packet dynamics in a one-dimensional box.

Gaussian packets expanded over box eigenstates, evolved exactly through
the eigenphases.  The package computes probability densities in position
and momentum, expectation values and uncertainties from closed-form
matrix elements, autocorrelation and mirror-correlation functions with
collapse-time fits and revival scans, the standard hierarchy of time
scales, and WKB spectra for power-law confining wells.
"""

from .config import (ConfigError, RunConfig, load_config, parse_config,
                     parse_theta, parse_time)
from .correlation import (DEFAULT_FIT_THRESHOLD, CollapseFit, CollapseFitError,
                          ScanPeak, autocorrelation, autocorrelation_series,
                          fit_collapse, fit_gaussian_decay, fit_stroboscopic,
                          mirror_correlation_series, nearest_fraction,
                          revival_scan)
from .evolution import (MomentumGrid, SpatialGrid, WaveField, density_norm,
                        momentum_wavefunction, position_wavefunction,
                        probability_density)
from .observables import (OBSERVABLES, MatrixElementTable,
                          NumericalConsistencyError, TimeSeries,
                          build_matrix_elements, expectation_series,
                          sample_series, table_for, uncertainty_series)
from .packet import EigenExpansion, PacketSpec, Theta, build_gaussian_packet
from .powerlaw import (PowerLawWell, classical_period_powerlaw,
                       collapse_time_powerlaw, fit_powerlaw_collapse,
                       gaussian_weights, powerlaw_autocorrelation,
                       revival_time_powerlaw, wkb_energy, wkb_spectrum)
from .runs import (run_correlate, run_evolve, run_observables, run_powerlaw,
                   run_scan_flatten, run_timescales)
from .system import (ClassicalState, WellSystem, classical_trajectory,
                     eigenenergy, eigenstate_momentum, eigenstate_position,
                     level_momentum)
from .timescales import (TimeScaleReport, compute_timescales,
                         detect_flattening, flat_momentum_reference,
                         flat_reference, spreading_envelope)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # system
    "WellSystem", "ClassicalState", "eigenenergy", "level_momentum",
    "eigenstate_position", "eigenstate_momentum", "classical_trajectory",
    # packet
    "PacketSpec", "EigenExpansion", "Theta", "build_gaussian_packet",
    # evolution
    "SpatialGrid", "MomentumGrid", "WaveField", "position_wavefunction",
    "momentum_wavefunction", "probability_density", "density_norm",
    # observables
    "OBSERVABLES", "MatrixElementTable", "TimeSeries",
    "NumericalConsistencyError", "build_matrix_elements", "table_for",
    "expectation_series", "uncertainty_series", "sample_series",
    # correlation
    "DEFAULT_FIT_THRESHOLD", "CollapseFit", "CollapseFitError", "ScanPeak",
    "autocorrelation", "autocorrelation_series", "mirror_correlation_series",
    "fit_gaussian_decay", "fit_stroboscopic", "fit_collapse",
    "nearest_fraction", "revival_scan",
    # timescales
    "TimeScaleReport", "compute_timescales", "flat_reference",
    "flat_momentum_reference", "spreading_envelope", "detect_flattening",
    # powerlaw
    "PowerLawWell", "wkb_energy", "wkb_spectrum", "classical_period_powerlaw",
    "revival_time_powerlaw", "collapse_time_powerlaw", "gaussian_weights",
    "powerlaw_autocorrelation", "fit_powerlaw_collapse",
    # config
    "ConfigError", "RunConfig", "load_config", "parse_config", "parse_time",
    "parse_theta",
    # runs
    "run_evolve", "run_observables", "run_correlate", "run_powerlaw",
    "run_scan_flatten", "run_timescales",
]
