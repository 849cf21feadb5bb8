"""Single-system Lindblad-based thermalization analysis.

Populations follow a classical rate (Pauli) equation dp/dt = -A p with
A[m, n] = B[m] delta_{m,n} - L2[m, n], where L2[m, n] is the rate of the
n -> m transition and B[m] the total escape rate from level m. Off-diagonal
density matrix elements decay independently of each other. The dissipation
time is 1/mu_2(A) (second-smallest eigenvalue of A), the decoherence time
2/(B_(1) + B_(2)) with B_(k) the k-th smallest escape rate, and the
thermalization time is the larger of the two.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    ErgodicityViolation,
    InvalidDensityMatrix,
    NegativeTime,
)
from .model import (
    TOL_ZERO,
    DipoleData,
    EnergySpectrum,
    _check_beta,
    _check_finite,
    _check_rates,
    _check_size,
    _check_vector,
)

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
    distribution. Plain energies are one-dimensional and finite.
    """
    E = spec.energies if isinstance(spec, EnergySpectrum) else _check_vector("energies", spec)
    _check_size("M", E.size)
    _check_beta(beta, positive=False)
    expo = -beta * E
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


@np.errstate(over="ignore", invalid="ignore")  # rates past the float range are refused
def thermal_rates(spec: EnergySpectrum, dip: DipoleData, beta: float) -> RateData:
    """Blackbody transition rates C, L2 and escape rates B at inverse temperature beta.

    C[m, n] = D[m, n] |E_m - E_n|^3 / (2 sinh(beta |E_m - E_n| / 2)) and
    L2[m, n] = D[m, n] * W~[m, n]; the two parametrizations agree identically.
    Raises DegenerateSpectrum unless adjacent levels lie farther apart than
    the spectrum's ``degeneracy_tol``: the one place nondegeneracy is decided;
    NonPositiveField when the rates leave the float range.
    """
    _check_beta(beta)
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
    W = _blackbody_weight(gaps, beta, detailed_balance=True)
    C = dip.D * _blackbody_weight(gaps, beta)
    L2 = dip.D * W
    B = L2.sum(axis=0)  # finite only if every rate L2 >= 0 is
    if spec.M > 1:
        _check_rates("the rate scale gamma max W~", C, B, scale=dip.gamma * W.max())
    return RateData(beta=float(beta), C=C, L2=L2, B=B)


@dataclass(frozen=True)
class PauliMatrix:
    """Population rate matrix A with its ascending eigenvalues.

    The eigenvalues are those of the similar real-symmetric matrix
    S = diag(B) - C (the detailed-balance symmetrization P A P^-1 with
    P = diag(e^{beta E_m / 2})), so they are real by construction.
    ``stationary`` is the Gibbs distribution.
    """

    A: np.ndarray
    S: np.ndarray
    energies: np.ndarray
    beta: float
    eigenvalues: np.ndarray
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
    return PauliMatrix(
        A=A,
        S=S,
        energies=spec.energies.copy(),
        beta=rates.beta,
        eigenvalues=np.linalg.eigvalsh(S),
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


def _is_ergodic(pm: PauliMatrix) -> bool:
    """The one ergodicity decision: the zero eigenvalue of A is simple (a unique stationary
    state), that is M > 1 and mu_2 above TOL_ZERO mu_max."""
    return pm.M > 1 and pm.mu2 > TOL_ZERO * pm.eigenvalues[-1]


def thermalization_times(pm: PauliMatrix, rates: RateData) -> ThermalizationTimes:
    """Extract the characteristic times from a rate-matrix decomposition.

    Raises ErgodicityViolation unless A is ergodic (``_is_ergodic``).
    """
    if pm.M != rates.M:
        raise DimensionMismatch("PauliMatrix and RateData dimensions differ")
    if not _is_ergodic(pm):
        raise ErgodicityViolation(
            "second eigenvalue of the rate matrix is numerically zero; "
            "no unique stationary state"
        )
    mu2 = pm.mu2
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
        _check_finite("eff_energies", Ep)
        mu += 1.0j * (Ep[:, None] - Ep[None, :])
    np.fill_diagonal(mu, 0.0)
    return mu


def evolve(pm: PauliMatrix, mu: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form state at time t: populations and coherences evolve decoupled.

    Populations follow p(t) = exp(-A t) p(0), a stochastic matrix for every
    temperature; each off-diagonal element decays as exp(-mu[m, n] t). This
    is the one function of the module that loads scipy (for ``expm``). As A = W S W^-1 with
    cond(W) = e^{beta spread / 2}, p(t) of an ergodic A is the Gibbs state to rounding once
    mu2 t > beta spread / 2 + ln(2M / eps), and is taken as such there: ``expm`` would lose
    the trace, then give NaN.
    """
    if not (np.isfinite(t) and t >= 0):
        raise NegativeTime(f"t must be finite and >= 0, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    M = pm.M
    if rho0.shape != (M, M) or mu.shape != (M, M):
        raise DimensionMismatch("rho0 and mu must match the rate-matrix dimension")
    _check_finite("mu", mu)
    # NaN passes every comparison below, so it is refused first
    if not np.isfinite(rho0).all():
        raise InvalidDensityMatrix("rho0 must be finite")
    if np.abs(rho0 - rho0.conj().T).max() > 1e-10:
        raise InvalidDensityMatrix("rho0 is not Hermitian to 1e-10")
    if abs(np.trace(rho0).real - 1.0) > 1e-10:
        raise InvalidDensityMatrix("rho0 does not have unit trace to 1e-10")
    if np.linalg.eigvalsh(rho0).min() < -1e-10:
        raise InvalidDensityMatrix("rho0 is not positive semidefinite to 1e-10")

    if _is_ergodic(pm) and pm.mu2 * t > (
            pm.beta * float(np.ptp(pm.energies)) / 2 + math.log(2 * M / np.finfo(float).eps)):
        p_t = pm.stationary
    else:
        from scipy.linalg import expm

        p_t = expm(-pm.A * t) @ np.diag(rho0).real
    rho_t = rho0 * np.exp(-mu * t)
    np.fill_diagonal(rho_t, p_t)
    return rho_t


def lba_liouvillian(spec: EnergySpectrum, dip: DipoleData, beta: float) -> np.ndarray:
    """The full M^2 x M^2 generator of the Lindblad-based master equation.

    Row-major vectorization, index(m, n) = m*M + n. Populations couple through
    the rate matrix; each coherence sits on its own diagonal entry, at its bare
    Bohr frequency. Used for entrywise comparison against the microscopically
    derived generator, which drops the Lamb shift too.
    """
    rates = thermal_rates(spec, dip, beta)
    M = spec.M
    E = spec.energies
    B = rates.B
    L = np.diag((-1.0j * (E[:, None] - E[None, :]) - 0.5 * (B[:, None] + B[None, :])).ravel())
    populations = np.arange(M) * (M + 1)
    L[np.ix_(populations, populations)] += rates.L2
    return L
