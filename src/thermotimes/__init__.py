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
    NoDissipativeEigenvalue,
    NonHermitian,
    NonPositiveBeta,
    NonPositiveField,
    NoOscillatoryEigenvalue,
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
    DecouplingCheck,
    EnsembleMember,
    EnsembleSpec,
    EnsembleTimes,
    compose_rate_matrix,
    ensemble_times,
    ensemble_times_numeric,
    free_spins_times,
    verify_product_basis_decoupling,
)
from .qome import (
    ComparisonReport,
    Liouvillian,
    LiouvillianSpectrum,
    PathologyFlags,
    build_liouvillian,
    compare,
    jump_operator_groups,
    qome_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ComparisonReport",
    "ConfigError",
    "DecouplingCheck",
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
    "NegativeTime",
    "NoDissipativeEigenvalue",
    "NonHermitian",
    "NonPositiveBeta",
    "NonPositiveField",
    "NoOscillatoryEigenvalue",
    "PathologyFlags",
    "PauliMatrix",
    "QubitSystem",
    "RateData",
    "ThermalizationTimes",
    "ThermotimesError",
    "build_liouvillian",
    "compare",
    "compose_rate_matrix",
    "decoherence_rates",
    "degeneracy_report",
    "diagonalize",
    "dipole_data",
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
    "verify_product_basis_decoupling",
]
