"""Ensembles of N noninteracting, distinguishable systems.

In the product eigenbasis the dipole amplitudes decouple system by system,
the ensemble rate matrix is the Kronecker sum of the member rate matrices,
and the product-space escape rates are sums of member escape rates. Two
routes are provided: closed forms valid for any N (production path) and the
explicit product-space construction (verification path, capped in size).
The verification path reads mu2 from the Kronecker sum S: a dense numpy
eigensolve for small products, and above DENSE_EIG_LIMIT a one-eigenvalue
Lanczos solve on a sparse S with the exact null vector sqrt(Gibbs) shifted out
of the way. Only that Lanczos branch imports scipy, at the point of use, so
the closed forms and small products run on numpy alone. Every Kronecker sum,
dense or sparse, comes from the one builder in ``model``
(``_kronecker_sum_entries``); this module only wraps it as a sparse matrix.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CapExceeded,
    DetailedBalanceViolation,
    DimensionMismatch,
    EmptyEnsemble,
    NonPositiveBeta,
)
from .lba import (
    PauliMatrix,
    _blackbody_weight,
    gibbs_state,
    pauli_matrix,
    thermal_rates,
    thermalization_times,
)
from .model import (
    DipoleData,
    EnergySpectrum,
    _check_positive,
    _kronecker_sum,
    _kronecker_sum_entries,
    _product_sum,
)

#: Caps on the explicit product-space dimension: the dense composed rate
#: matrix, the sparse verification path and the two-system decoupling check.
COMPOSE_CAP = 4096
NUMERIC_CAP = 8192
DECOUPLING_CAP = 64

#: Above this dimension the explicit path switches from a dense numpy
#: eigensolve to a scipy Lanczos solve for the smallest eigenvalue of the
#: Gibbs-deflated sparse S; only products above it load scipy. A dense
#: eigvalsh at 128 or 256 wakes numpy's OpenBLAS thread pool, whose worker
#: then spins for about 0.1 s while the caller goes on on one thread; the
#: Lanczos solve does not. On two cores (numpy 2.4, scipy 1.17) a call takes
#: 5.5 ms against 1.7-2.9 ms dense at 128 and 6-7 ms against 7.5 ms at 256,
#: while a reference-table job without the QOME (N = 1..13) takes 0.25
#: CPU-s per 0.25 s of wall time at 64, against about 0.38 CPU-s at 256.
#: The price falls on a fresh process whose first large product is 128 or
#: 256 (``analyze`` of N = 7 or 8 spins with ``lba_numeric``): it now loads
#: scipy, 0.3 -> 0.7 s and 31 -> 62 MB.
DENSE_EIG_LIMIT = 64

#: The Gibbs null vector q of S must satisfy |S q|_inf <= this fraction of the
#: Gershgorin bound; detailed balance makes the residual a rounding error.
NULL_VECTOR_RTOL = 1e-10


@dataclass(frozen=True)
class EnsembleMember:
    """One species in the ensemble: spectrum, dipole data and copy count."""

    spectrum: EnergySpectrum
    dipole: DipoleData
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise EmptyEnsemble(f"member count must be >= 1, got {self.count}")
        if self.spectrum.M != self.dipole.M:
            raise DimensionMismatch("spectrum and dipole dimensions differ")


@dataclass(frozen=True)
class EnsembleSpec:
    """A mixture of distinguishable noninteracting systems at one temperature."""

    members: Tuple[EnsembleMember, ...]
    beta: float

    def __post_init__(self):
        members = tuple(
            m if isinstance(m, EnsembleMember) else EnsembleMember(*m)
            for m in self.members
        )
        if not members:
            raise EmptyEnsemble("an ensemble needs at least one member")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise NonPositiveBeta(f"beta must be positive and finite, got {self.beta}")
        object.__setattr__(self, "members", members)

    @property
    def N(self) -> int:
        return sum(m.count for m in self.members)


@dataclass(frozen=True)
class EnsembleTimes:
    """Ensemble-level dissipation/decoherence/thermalization times.

    per_member_mu2 lists each member's slowest relaxation rate; B_min_total is
    the ground escape rate of the product space (sum of the member minima) and
    min_second_gap the cheapest single-member promotion to the next escape
    rate. The decoherence time is tau_Q = 2 / (2 B_min_total + min_second_gap).
    """

    tau_P: float
    tau_Q: float
    tau: float
    per_member_mu2: np.ndarray
    B_min_total: float
    min_second_gap: float


def _member_analysis(spec: EnsembleSpec):
    """Per-member rates, rate matrices and characteristic quantities."""
    out = []
    for member in spec.members:
        rates = thermal_rates(member.spectrum, member.dipole, spec.beta)
        pm = pauli_matrix(rates, member.spectrum)
        tt = thermalization_times(pm, rates)
        out.append((member, rates, pm, tt))
    return out


def ensemble_times(spec: EnsembleSpec) -> EnsembleTimes:
    """Closed-form ensemble times from the member decompositions.

    The Kronecker-sum spectrum makes the slowest population rate the smallest
    member mu2, independent of the counts. The slowest coherence decays at
    half the smallest sum of two distinct product-space escape rates, i.e.
    tau_Q = 2 / (2 sum_i n_i B_min,i + min_i (B_second,i - B_min,i)); for N
    equal members this is 2 / ((2N-1) B_(1) + B_(2)).
    """
    parts = _member_analysis(spec)
    mu2s = np.array([tt.mu2 for _, _, _, tt in parts])
    B_min_total = sum(m.count * tt.B1 for m, _, _, tt in parts)
    min_second_gap = min(tt.B2 - tt.B1 for _, _, _, tt in parts)
    tau_P = float(1.0 / mu2s.min())
    tau_Q = float(2.0 / (2.0 * B_min_total + min_second_gap))
    return EnsembleTimes(
        tau_P=tau_P,
        tau_Q=tau_Q,
        tau=max(tau_P, tau_Q),
        per_member_mu2=mu2s,
        B_min_total=float(B_min_total),
        min_second_gap=float(min_second_gap),
    )


def _sparse_kronecker_sum(mats: Sequence[np.ndarray]):
    """``model._kronecker_sum`` as a scipy.sparse CSR matrix, for the Lanczos branch."""
    import scipy.sparse as sp

    dim, rows, cols, vals = _kronecker_sum_entries(mats)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def compose_rate_matrix(pms: Sequence[PauliMatrix]) -> PauliMatrix:
    """Explicit Kronecker sum A(x)I(x)... + ... + I(x)...(x)A of member rate matrices.

    The symmetrized matrix S is the Kronecker sum of the member S matrices,
    so the eigenvalues of the result are all sums of one eigenvalue per
    member. A single member is returned unchanged.
    """
    if not pms:
        raise EmptyEnsemble("compose_rate_matrix needs at least one member")
    if len({pm.beta for pm in pms}) != 1:
        raise DimensionMismatch("all members must share the same beta")
    if len(pms) == 1:
        return pms[0]
    total = 1
    for pm in pms:
        total *= pm.M
    if total > COMPOSE_CAP:
        raise CapExceeded(f"product dimension {total} exceeds cap {COMPOSE_CAP}")
    energies = _product_sum([pm.energies for pm in pms])
    S = _kronecker_sum([pm.S for pm in pms])
    return PauliMatrix(
        A=_kronecker_sum([pm.A for pm in pms]),
        S=S,
        energies=energies,
        beta=pms[0].beta,
        eigenvalues=np.linalg.eigvalsh(S),
        stationary=gibbs_state(energies, pms[0].beta),
    )


def _deterministic_start(dim: int) -> np.ndarray:
    # fixed Lanczos start vector: results must be reproducible bit for bit
    v0 = 1.0 + 0.01 * np.cos(np.arange(dim))
    return v0 / np.linalg.norm(v0)


def ensemble_times_numeric(spec: EnsembleSpec) -> EnsembleTimes:
    """Verification path: explicit product-space rate matrix and escape rates.

    mu2 comes from the symmetrized Kronecker-sum matrix S. Up to
    DENSE_EIG_LIMIT it is the second eigenvalue of a dense numpy eigensolve.
    Above it, S is built sparse, and detailed balance gives it the exact null
    vector q = sqrt(Gibbs); adding c q q^T, with c the largest absolute row
    sum of S (a Gershgorin bound), lifts that zero above the spectrum, and
    Lanczos returns mu2 as the one smallest eigenvalue. tau_Q comes from enumerating the two smallest
    product-space escape rates.

    Raises DetailedBalanceViolation if |S q|_inf exceeds NULL_VECTOR_RTOL * c.
    """
    parts = _member_analysis(spec)
    dim = 1
    for member, _, _, _ in parts:
        dim *= member.spectrum.M ** member.count
    if dim > NUMERIC_CAP:
        raise CapExceeded(f"product dimension {dim} exceeds cap {NUMERIC_CAP}")

    copies = [(rates, pm) for member, rates, pm, _ in parts for _ in range(member.count)]
    if dim <= DENSE_EIG_LIMIT:
        mu = np.linalg.eigvalsh(_kronecker_sum([pm.S for _, pm in copies]))
        mu2 = float(np.sort(mu)[1])
    else:
        import scipy.sparse.linalg as spla

        S = _sparse_kronecker_sum([pm.S for _, pm in copies])
        q = np.sqrt(gibbs_state(_product_sum([pm.energies for _, pm in copies]), spec.beta))
        c = float(abs(S).sum(axis=1).max())
        residual = float(np.abs(S @ q).max())
        if residual > NULL_VECTOR_RTOL * c:
            raise DetailedBalanceViolation(
                f"sqrt(Gibbs) is not a null vector of S: |S q|_inf = {residual:.3e}, "
                f"row-sum bound {c:.3e}"
            )
        deflated = spla.LinearOperator(
            (dim, dim), matvec=lambda x: S @ x + c * q * (q @ x), dtype=float,
        )
        vals = spla.eigsh(
            deflated, k=1, which="SA", return_eigenvectors=False,
            v0=_deterministic_start(dim), maxiter=100000,
        )
        mu2 = float(vals[0])

    B_sorted = np.sort(_product_sum([rates.B for rates, _ in copies]))
    tau_P = 1.0 / mu2
    tau_Q = float(2.0 / (B_sorted[0] + B_sorted[1]))
    return EnsembleTimes(
        tau_P=tau_P,
        tau_Q=tau_Q,
        tau=max(tau_P, tau_Q),
        per_member_mu2=np.array([tt.mu2 for _, _, _, tt in parts]),
        B_min_total=float(B_sorted[0]),
        min_second_gap=float(B_sorted[1] - B_sorted[0]),
    )


def free_spins_times(Gammas: Sequence[float], beta: float, gamma: float = 1.0) -> EnsembleTimes:
    """Analytic times for N free spins in local transverse fields Gamma_i.

    tau_P = max_i tanh(beta Gamma_i) / (2 gamma (2 Gamma_i)^3) and tau_Q is
    the largest inverse of
    gamma (2 Gamma_i)^3 cosh(beta Gamma_i)/sinh(beta Gamma_i)
    + sum_{k != i} gamma (2 Gamma_k)^3 e^{-beta Gamma_k}/sinh(beta Gamma_k).
    A uniform field reduces to tau_Q = sinh / (gamma (2 Gamma)^3 (sinh + N e^{-beta Gamma})).
    """
    G = np.asarray(Gammas, dtype=float)
    if G.size == 0:
        raise EmptyEnsemble("need at least one spin")
    _check_positive("every Gamma_i", G)
    if not (np.isfinite(beta) and beta > 0):
        raise NonPositiveBeta(f"beta must be positive and finite, got {beta}")
    _check_positive("gamma", gamma)
    cube = gamma * (2.0 * G) ** 3
    x = beta * G
    tanh = np.tanh(x)
    tau_P = float(np.max(tanh / (2.0 * cube)))
    # e^{-x}/sinh(x) and cosh/sinh without forming either overflowing hyperbolic
    B_min = 2.0 * cube * np.exp(-2.0 * x) / (-np.expm1(-2.0 * x))
    total = B_min.sum()
    bracket = cube / tanh + (total - B_min)
    tau_Q = float(np.max(1.0 / bracket))
    return EnsembleTimes(
        tau_P=tau_P,
        tau_Q=tau_Q,
        tau=max(tau_P, tau_Q),
        per_member_mu2=2.0 * cube / tanh,
        B_min_total=float(total),
        min_second_gap=float(np.min(2.0 * cube)),
    )


# ---------------------------------------------------------------------------
# product-basis decoupling verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecouplingCheck:
    """Outcome of measuring two-system dipole/rate structure in a basis.

    ``ok`` means the measured quantities match the one-body decoupling:
    D[(m,n),(p,q)] = D1[m,p] d_{n,q} + D2[n,q] d_{m,p}, the analogous rule for
    C, and escape-rate additivity B[(m,n)] = B1[m] + B2[n].
    """

    ok: bool
    max_deviation: float
    basis: str
    energies: np.ndarray
    D: np.ndarray
    C: np.ndarray
    B: np.ndarray
    predicted_D: np.ndarray
    predicted_C: np.ndarray


def bell_rotation(M: int) -> np.ndarray:
    """Basis change from product states to Bell-type combinations.

    Diagonal pairs (m, m) are kept; for m < n the pair index (m, n) maps to
    (|m,n> + |n,m>)/sqrt(2) and (n, m) to (|m,n> - |n,m>)/sqrt(2).
    """
    T = np.zeros((M * M, M * M), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    for m in range(M):
        for n in range(M):
            col = m * M + n
            if m == n:
                T[col, col] = 1.0
            elif m < n:
                T[m * M + n, col] = s
                T[n * M + m, col] = s
            else:
                T[n * M + m, col] = s
                T[m * M + n, col] = -s
    return T


def verify_product_basis_decoupling(
    a: Optional[Tuple[EnergySpectrum, DipoleData]],
    b: Optional[Tuple[EnergySpectrum, DipoleData]],
    beta: float,
    basis: str = "product",
    tol: float = 1e-12,
) -> DecouplingCheck:
    """Measure the two-system dipole elements and test the one-body decoupling.

    Builds D[(m,n),(p,q)] = sum_h gamma_1 |<mn| O1_h |pq>|^2 + gamma_2
    |<mn| O2_h |pq>|^2 in the requested basis ("product" or, for equal
    members, "bell"), derives C and the escape rates, and compares them
    against the one-body predictions from the member data. With one member
    absent the check is vacuously true.
    """
    if a is None or b is None:
        # a lone system has nothing to decouple from
        empty = np.empty((0, 0))
        return DecouplingCheck(
            ok=True, max_deviation=0.0, basis=basis, energies=np.empty(0),
            D=empty, C=empty, B=np.empty(0), predicted_D=empty, predicted_C=empty,
        )
    (spec1, dip1), (spec2, dip2) = a, b
    M1, M2 = spec1.M, spec2.M
    if M1 * M2 > DECOUPLING_CAP:
        raise CapExceeded(f"product dimension {M1 * M2} exceeds cap {DECOUPLING_CAP}")
    if basis == "product":
        T = np.eye(M1 * M2, dtype=complex)
    elif basis == "bell":
        if M1 != M2 or not np.allclose(spec1.energies, spec2.energies):
            raise DimensionMismatch("the bell basis requires two equal members")
        T = bell_rotation(M1)
    else:
        raise DimensionMismatch(f"unknown basis {basis!r}")

    E2 = _product_sum([spec1.energies, spec2.energies])
    dim = M1 * M2
    D2 = np.zeros((dim, dim))
    for d1, d2 in zip(dip1.amplitudes, dip2.amplitudes):
        O1 = T.conj().T @ np.kron(d1, np.eye(M2, dtype=complex)) @ T
        O2 = T.conj().T @ np.kron(np.eye(M1, dtype=complex), d2) @ T
        D2 += dip1.gamma * np.abs(O1) ** 2 + dip2.gamma * np.abs(O2) ** 2
    np.fill_diagonal(D2, 0.0)

    gaps = E2[:, None] - E2[None, :]
    C2 = D2 * _blackbody_weight(gaps, beta)
    B2 = (D2 * _blackbody_weight(gaps, beta, detailed_balance=True)).sum(axis=0)

    # one-body prediction X[(m,n),(p,q)] = X1[m,p] d_{n,q} + X2[n,q] d_{m,p}
    r1 = thermal_rates(spec1, dip1, beta)
    r2 = thermal_rates(spec2, dip2, beta)
    pred_D = _kronecker_sum([dip1.D, dip2.D])
    pred_C = _kronecker_sum([r1.C, r2.C])
    pred_B = _product_sum([r1.B, r2.B])

    dev_D = np.abs(D2 - pred_D).max()
    dev_C = np.abs(C2 - pred_C).max()
    dev_B = np.abs(B2 - pred_B).max()
    ok = (
        dev_D <= tol * max(1.0, np.abs(pred_D).max())
        and dev_C <= tol * max(1.0, np.abs(pred_C).max())
        and dev_B <= tol * max(1.0, np.abs(pred_B).max())
    )
    return DecouplingCheck(
        ok=bool(ok),
        max_deviation=float(max(dev_D, dev_C, dev_B)),
        basis=basis,
        energies=E2,
        D=D2,
        C=C2,
        B=B2,
        predicted_D=pred_D,
        predicted_C=pred_C,
    )
