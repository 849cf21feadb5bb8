"""Thermalization times of noninteracting systems coupled to blackbody radiation.

Two routes are implemented and can be compared against each other: a
detailed-balance Lindblad construction whose populations follow a classical
rate equation and whose coherences decay independently, and the
microscopically derived quantum optical master equation, whose Liouvillian
is diagonalized explicitly and which develops pathologies whenever the
composite spectrum has level or gap degeneracies.
"""

from .errors import (
    CapExceeded,
    ConfigError,
    DegenerateSpectrum,
    DetailedBalanceViolation,
    DimensionMismatch,
    EmptyEnsemble,
    ErgodicityViolation,
    InvalidDensityMatrix,
    NegativeTime,
    NoConvergence,
    NoDissipativeEigenvalue,
    NonHermitian,
    NonPositiveBeta,
    NonPositiveField,
    ResonantMembers,
    ThermotimesError,
)
from .model import (
    DegeneracyReport,
    DipoleData,
    EnergySpectrum,
    QubitSystem,
    degeneracy_report,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
    system_from_json,
)
from .lba import (
    PauliMatrix,
    RateData,
    ThermalizationTimes,
    decoherence_rates,
    evolve,
    gibbs_state,
    lba_liouvillian,
    pauli_matrix,
    thermal_rates,
    thermalization_times,
)
from .ensemble import (
    EnsembleMember,
    EnsembleSpec,
    EnsembleTimes,
    ensemble_times,
    ensemble_times_numeric,
    free_spins_times,
)
from .qome import (
    ComparisonReport,
    Liouvillian,
    LiouvillianSpectrum,
    MixtureSpectrum,
    build_liouvillian,
    compare,
    ensemble_spectrum,
    jump_operator_groups,
    qome_spectrum,
    uniform_spin_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ComparisonReport",
    "ConfigError",
    "DegenerateSpectrum",
    "DegeneracyReport",
    "DetailedBalanceViolation",
    "DimensionMismatch",
    "DipoleData",
    "EmptyEnsemble",
    "EnergySpectrum",
    "EnsembleMember",
    "EnsembleSpec",
    "EnsembleTimes",
    "ErgodicityViolation",
    "InvalidDensityMatrix",
    "Liouvillian",
    "LiouvillianSpectrum",
    "MixtureSpectrum",
    "NegativeTime",
    "NoConvergence",
    "NoDissipativeEigenvalue",
    "NonHermitian",
    "NonPositiveBeta",
    "NonPositiveField",
    "PauliMatrix",
    "QubitSystem",
    "RateData",
    "ResonantMembers",
    "ThermalizationTimes",
    "ThermotimesError",
    "build_liouvillian",
    "compare",
    "decoherence_rates",
    "degeneracy_report",
    "diagonalize",
    "dipole_data",
    "ensemble_spectrum",
    "ensemble_times",
    "ensemble_times_numeric",
    "evolve",
    "free_spin_chain",
    "free_spin_system",
    "free_spins_times",
    "gibbs_state",
    "jump_operator_groups",
    "lba_liouvillian",
    "pauli_matrix",
    "qome_spectrum",
    "system_from_json",
    "thermal_rates",
    "thermalization_times",
    "uniform_spin_spectrum",
]
