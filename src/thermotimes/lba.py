"""Single-system Lindblad-based thermalization analysis.

Populations follow a classical rate (Pauli) equation dp/dt = -A p with
A[m, n] = B[m] delta_{m,n} - L2[m, n], where L2[m, n] is the rate of the
n -> m transition and B[m] the total escape rate from level m. Off-diagonal
density matrix elements decay independently of each other. The dissipation
time is 1/mu_2(A) (second-smallest eigenvalue of A), the decoherence time
2/(B_(1) + B_(2)) with B_(k) the k-th smallest escape rate, and the
thermalization time is the larger of the two.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    ErgodicityViolation,
    InvalidDensityMatrix,
    NegativeTime,
    NonPositiveBeta,
)
from .model import DipoleData, EnergySpectrum

#: An eigenvalue of the rate matrix counts as zero below this fraction of the
#: largest eigenvalue; a second eigenvalue under the threshold signals a
#: degenerate steady state.
ZERO_EIGENVALUE_RTOL = 1e-10

#: Below beta*|dE| = SMALL_X the thermal weight switches to its small-gap
#: series to avoid 0/0; the two-term series is exact to double precision
#: in this range.
SMALL_X = 1e-8


def _blackbody_weight(gaps: np.ndarray, beta: float, detailed_balance: bool = False) -> np.ndarray:
    """Blackbody weight |dE|^3 / (2 sinh(x / 2)) of each gap dE, with x = beta |dE|.

    Written as |dE|^3 e^{-x/2} / (1 - e^{-x}), which stays finite for
    arbitrarily large x; for x < SMALL_X the series |dE|^3 (1/x - x/24) is
    used, and the zero-gap limit is 0. With ``detailed_balance`` the weight
    carries the Boltzmann factor e^{-beta dE / 2} of W~[m, n], folded into the
    one exponential (-x uphill, 0 downhill) so that no rate can overflow.
    """
    gaps = np.asarray(gaps, dtype=float)
    a = np.abs(gaps)
    x = beta * a
    shift = -beta * gaps / 2.0 if detailed_balance else 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        direct = a**3 * np.exp(-x / 2.0 + shift) / (-np.expm1(-x))
        series = a**3 * (1.0 / x - x / 24.0) * np.exp(shift)
    out = np.where(x < SMALL_X, series, direct)
    return np.where(x == 0.0, 0.0, out)


def gibbs_state(spec: Union[EnergySpectrum, Sequence[float]], beta: float) -> np.ndarray:
    """Gibbs populations exp(-beta E_m) / Z, shifted for overflow safety.

    beta <= 0 is allowed for formal checks; beta = 0 gives the uniform
    distribution.
    """
    energies = spec.energies if isinstance(spec, EnergySpectrum) else np.asarray(spec, float)
    if not np.isfinite(beta):
        raise NonPositiveBeta(f"beta must be finite, got {beta}")
    expo = -beta * energies
    expo = expo - expo.max()
    p = np.exp(expo)
    return p / p.sum()


@dataclass(frozen=True)
class RateData:
    """Detailed-balance transition rates of a system coupled to the radiation.

    C is the symmetric nonnegative amplitude matrix, L2[m, n] the rate of the
    n -> m transition (= C[m, n] exp(-beta (E_m - E_n)/2)), and B[m] the total
    escape rate sum_j L2[j, m].
    """

    beta: float
    C: np.ndarray
    L2: np.ndarray
    B: np.ndarray

    @property
    def M(self) -> int:
        return self.B.shape[0]


def thermal_rates(spec: EnergySpectrum, dip: DipoleData, beta: float) -> RateData:
    """Blackbody transition rates C, L2 and escape rates B at inverse temperature beta.

    C[m, n] = D[m, n] |E_m - E_n|^3 / (2 sinh(beta |E_m - E_n| / 2)) and
    L2[m, n] = D[m, n] * W~[m, n]; the two parametrizations agree identically.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise NonPositiveBeta(f"beta must be positive and finite, got {beta}")
    if dip.M != spec.M:
        raise DimensionMismatch(
            f"dipole dimension {dip.M} does not match spectrum dimension {spec.M}"
        )
    if not spec.is_nondegenerate:
        raise DegenerateSpectrum(
            "thermal_rates requires a nondegenerate spectrum; "
            "degenerate composites belong to the ensemble/qome modules"
        )
    E = spec.energies
    gaps = E[:, None] - E[None, :]
    C = dip.D * _blackbody_weight(gaps, beta)
    L2 = dip.D * _blackbody_weight(gaps, beta, detailed_balance=True)
    B = L2.sum(axis=0)
    return RateData(beta=float(beta), C=C, L2=L2, B=B)


@dataclass(frozen=True)
class PauliMatrix:
    """Population rate matrix A with its spectral decomposition.

    The eigenproblem is solved through the similar real-symmetric matrix
    S = diag(B) - C (the detailed-balance symmetrization P A P^-1 with
    P = diag(e^{beta E_m / 2})), so the eigenvalues are real by construction.
    ``eigenvectors`` are the orthonormal eigenvectors of S; ``stationary``
    is the Gibbs distribution.
    """

    A: np.ndarray
    S: np.ndarray
    energies: np.ndarray
    beta: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    stationary: np.ndarray

    @property
    def M(self) -> int:
        return self.A.shape[0]

    @property
    def mu2(self) -> float:
        """Second-smallest eigenvalue (slowest relaxation rate)."""
        return float(self.eigenvalues[1])


def symmetrized_rate_matrix(rates: RateData) -> np.ndarray:
    """The real-symmetric matrix diag(B) - C similar to the rate matrix A."""
    return np.diag(rates.B) - rates.C


def pauli_matrix(rates: RateData, spec: EnergySpectrum) -> PauliMatrix:
    """Assemble A = diag(B) - L2 and diagonalize it via its symmetrization."""
    if rates.M != spec.M:
        raise DimensionMismatch(
            f"rate dimension {rates.M} does not match spectrum dimension {spec.M}"
        )
    A = np.diag(rates.B) - rates.L2
    S = symmetrized_rate_matrix(rates)
    mu, V = np.linalg.eigh(S)
    return PauliMatrix(
        A=A,
        S=S,
        energies=spec.energies.copy(),
        beta=rates.beta,
        eigenvalues=mu,
        eigenvectors=V,
        stationary=gibbs_state(spec, rates.beta),
    )


@dataclass(frozen=True)
class ThermalizationTimes:
    """Dissipation, decoherence and overall thermalization times.

    tau_P = 1/mu2 is the slowest population-relaxation time, tau_Q =
    2/(B1 + B2) the slowest coherence-decay time, tau = max(tau_P, tau_Q).
    """

    tau_P: float
    tau_Q: float
    tau: float
    mu2: float
    B1: float
    B2: float


def thermalization_times(pm: PauliMatrix, rates: RateData) -> ThermalizationTimes:
    """Extract the characteristic times from a rate-matrix decomposition.

    Raises ErgodicityViolation when the zero eigenvalue of A is degenerate
    (the stationary state is not unique).
    """
    if pm.M != rates.M:
        raise DimensionMismatch("PauliMatrix and RateData dimensions differ")
    mu = pm.eigenvalues
    scale = float(mu[-1])
    if pm.M < 2 or mu[1] <= ZERO_EIGENVALUE_RTOL * scale:
        raise ErgodicityViolation(
            "second eigenvalue of the rate matrix is numerically zero; "
            "no unique stationary state"
        )
    mu2 = float(mu[1])
    Bs = np.sort(rates.B)
    B1, B2 = float(Bs[0]), float(Bs[1])
    tau_P = 1.0 / mu2
    tau_Q = 2.0 / (B1 + B2)
    return ThermalizationTimes(
        tau_P=tau_P, tau_Q=tau_Q, tau=max(tau_P, tau_Q), mu2=mu2, B1=B1, B2=B2
    )


def decoherence_rates(rates: RateData, eff_energies: Optional[Sequence[float]] = None) -> np.ndarray:
    """Complex decay rates mu[m, n] = i (E'_m - E'_n) + (B_m + B_n)/2 of the coherences.

    The effective (possibly Lamb-shifted) levels E' only rotate the phases;
    neither characteristic time depends on them. With ``eff_energies`` omitted
    the rates are purely real. The diagonal is zero.
    """
    B = rates.B
    M = len(B)
    mu = 0.5 * (B[:, None] + B[None, :]).astype(complex)
    if eff_energies is not None:
        Ep = np.asarray(eff_energies, dtype=float)
        if Ep.shape != (M,):
            raise DimensionMismatch(f"eff_energies must have length {M}")
        mu += 1.0j * (Ep[:, None] - Ep[None, :])
    np.fill_diagonal(mu, 0.0)
    return mu


def evolve(pm: PauliMatrix, mu: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form state at time t: populations and coherences evolve decoupled.

    Populations follow p(t) = exp(-A t) p(0) through the symmetrized spectral
    decomposition; each off-diagonal element decays as exp(-mu[m, n] t).
    """
    if t < 0:
        raise NegativeTime(f"t must be >= 0, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    M = pm.M
    if rho0.shape != (M, M) or mu.shape != (M, M):
        raise DimensionMismatch("rho0 and mu must match the rate-matrix dimension")
    if np.abs(rho0 - rho0.conj().T).max() > 1e-10:
        raise InvalidDensityMatrix("rho0 is not Hermitian to 1e-10")
    if abs(np.trace(rho0).real - 1.0) > 1e-10:
        raise InvalidDensityMatrix("rho0 does not have unit trace to 1e-10")
    if np.linalg.eigvalsh(rho0).min() < -1e-10:
        raise InvalidDensityMatrix("rho0 is not positive semidefinite to 1e-10")

    shifted = pm.energies - (pm.energies.max() + pm.energies.min()) / 2.0
    w = np.exp(pm.beta * shifted / 2.0)  # P A P^-1 = S with P = diag(w)
    y = pm.eigenvectors.T @ (w * np.diag(rho0).real)
    p_t = (pm.eigenvectors @ (np.exp(-pm.eigenvalues * t) * y)) / w

    rho_t = rho0 * np.exp(-mu * t)
    np.fill_diagonal(rho_t, p_t)
    return rho_t


def lba_liouvillian(
    spec: EnergySpectrum,
    dip: DipoleData,
    beta: float,
    eff_energies: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """The full M^2 x M^2 generator of the Lindblad-based master equation.

    Row-major vectorization, index(m, n) = m*M + n. Populations couple through
    the rate matrix; each coherence sits on its own diagonal entry. Used for
    entrywise comparison against the microscopically derived generator.
    """
    rates = thermal_rates(spec, dip, beta)
    M = spec.M
    E = spec.energies if eff_energies is None else np.asarray(eff_energies, float)
    B = rates.B
    L4 = np.zeros((M, M, M, M), dtype=complex)
    for m in range(M):
        for n in range(M):
            L4[m, n, m, n] = -1.0j * (E[m] - E[n]) - 0.5 * (B[m] + B[n])
    for m in range(M):
        for k in range(M):
            L4[m, m, k, k] += rates.L2[m, k]
    return L4.reshape(M * M, M * M)
