"""Exception hierarchy used across the package."""


class ThermotimesError(Exception):
    """Base class for all errors raised by thermotimes."""


class NonHermitian(ThermotimesError):
    """A matrix that must be Hermitian is not."""


class DegenerateSpectrum(ThermotimesError):
    """Adjacent energy levels coincide within the degeneracy tolerance."""


class DimensionMismatch(ThermotimesError):
    """Inputs that must share dimensions do not."""


class NonPositiveField(ThermotimesError):
    """A field strength or coupling constant that must be positive is not."""


class NonPositiveBeta(ThermotimesError):
    """Inverse temperature must be positive and finite."""


class ErgodicityViolation(ThermotimesError):
    """The rate matrix has a degenerate zero eigenvalue (no unique steady state)."""


class DetailedBalanceViolation(ThermotimesError):
    """A symmetrized rate matrix does not annihilate the square root of its Gibbs state."""


class InvalidDensityMatrix(ThermotimesError):
    """Initial state is not Hermitian, unit-trace and positive semidefinite."""


class NegativeTime(ThermotimesError):
    """Evolution times must be nonnegative."""


class EmptyEnsemble(ThermotimesError):
    """An ensemble needs at least one member system."""


class NoConvergence(ThermotimesError):
    """An iterative eigensolve reached its step cap without meeting its stopping test."""


class CapExceeded(ThermotimesError):
    """An explicit product-space or Liouvillian construction would exceed its size cap."""


class ResonantMembers(ThermotimesError):
    """Two members of a mixture share a transition frequency within the energy tolerance."""


class ConfigError(ThermotimesError):
    """Run configuration is malformed or inconsistent."""


class NoDissipativeEigenvalue(ThermotimesError):
    """No real nonzero eigenvalue exists to define a dissipation time."""

