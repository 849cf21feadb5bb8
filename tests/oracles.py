"""Independent oracle implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: eigenvalues
via characteristic polynomials, decay rates via matrix exponentials, product
structure via explicit loops over bra-ket sums, degeneracy classes via one
loop step per element and one mask per class. The dense composed rate matrix
(``compose_rate_matrix``: A, S, the product energies and the Gibbs state of
the product space) is the referee of the explicit ``lba_numeric`` route, which
builds S alone. Two closed forms referee the uniform-field QOME decoherence
time: 1 / w_up at N = 2 and the cold law (N - 1) / w_up, w_up being the
absorption rate of one spin. The referee of the uniform-spin
Jacobi route is the gathered generator of the total-spin sector system, cut by
sector pair and solved by the nonsymmetric eigensolver, a path that route
never takes. The product-basis decoupling check measures two-system dipole
elements through np.kron embeddings, in the product or a Bell basis, against
the one-body predictions of the Kronecker-sum builder.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import mpmath
import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from thermotimes.errors import CapExceeded, DimensionMismatch, EmptyEnsemble
from thermotimes.lba import PauliMatrix, _blackbody_weight, gibbs_state, thermal_rates
from thermotimes.model import (
    DEGENERACY_RTOL,
    DipoleData,
    EnergySpectrum,
    _kronecker_sum,
    _product_sum,
)
from thermotimes.qome import build_liouvillian


def loop_equality_classes(values, tol):
    """Class ids of ``values`` under chained |x - y| <= tol, one sorted element at a time.

    The reference for the sort-and-cumsum ``model.equality_classes``: walks the
    stably sorted values and opens a new class at every step larger than tol.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    ids = np.empty(n, dtype=int)
    if n == 0:
        return ids
    order = np.argsort(values, kind="stable")
    cid = 0
    prev = values[order[0]]
    for idx in order:
        if values[idx] - prev > tol:
            cid += 1
        ids[idx] = cid
        prev = values[idx]
    return ids


def loop_gap_structure(energies, tol):
    """Level ids, gap ids and gap frequencies with one mask per class.

    The reference for ``model._gap_structure``: each level class is replaced
    by the mean of ``energies[mask]``, each gap class by the mean of
    ``gaps[mask]``, and the class of the zero gap by exactly 0.
    """
    lev_ids = loop_equality_classes(energies, tol)
    rep = np.empty_like(energies, dtype=float)
    for c in np.unique(lev_ids):
        rep[lev_ids == c] = energies[lev_ids == c].mean()
    gaps = rep[:, None] - rep[None, :]
    gap_ids = loop_equality_classes(gaps.ravel(), tol).reshape(gaps.shape)
    gap_rep = np.empty_like(gaps)
    for c in np.unique(gap_ids):
        mask = gap_ids == c
        gap_rep[mask] = 0.0 if c == gap_ids[0, 0] else gaps[mask].mean()
    return lev_ids, gap_ids, gap_rep


def charpoly_eigvals(H):
    """Eigenvalues from the characteristic polynomial (Faddeev-LeVerrier).

    Builds the coefficients with the trace recursion and finds the roots with
    the companion-matrix solver; independent of the Hermitian eigensolver.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    Mk = np.zeros_like(H)
    for k in range(1, n + 1):
        Mk = H @ Mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(H @ Mk) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def brute_force_dipole(eigvecs, K, gamma, pauli):
    """Squared dipole matrix via explicit bra-ket sums over given eigenvectors.

    ``eigvecs`` holds the eigenvectors as columns in the computational basis;
    the collective operators are assembled with explicit Kronecker loops.
    """
    dim = eigvecs.shape[0]
    M = eigvecs.shape[1]
    D = np.zeros((M, M))
    for s in pauli:
        total = np.zeros((dim, dim), dtype=complex)
        for i in range(K):
            op = np.array([[1.0 + 0.0j]])
            for j in range(K):
                op = np.kron(op, s if j == i else np.eye(2, dtype=complex))
            total += op
        for m in range(M):
            for n in range(M):
                amp = np.vdot(eigvecs[:, m], total @ eigvecs[:, n])
                D[m, n] += gamma * abs(amp) ** 2
    np.fill_diagonal(D, 0.0)
    return D


def fit_slowest_decay(A, p0, p_eq, t1, t2):
    """Slowest relaxation rate of dp/dt = -A p from two matrix-exponential samples.

    Samples the distance to equilibrium at two late times and returns
    log(d1/d2)/(t2 - t1); by then only the slowest mode survives.
    """
    d1 = np.linalg.norm(expm(-A * t1) @ p0 - p_eq)
    d2 = np.linalg.norm(expm(-A * t2) @ p0 - p_eq)
    return np.log(d1 / d2) / (t2 - t1)


def fit_coherence_decay(L_super, rho0, M, t1, t2):
    """Slowest off-diagonal decay rate under a vectorized generator.

    Evolves rho0 with expm(L t) and fits each |rho_mn(t)| separately,
    returning the smallest decay rate over the off-diagonal elements.
    """
    v0 = rho0.reshape(-1)
    r1 = (expm(L_super * t1) @ v0).reshape(M, M)
    r2 = (expm(L_super * t2) @ v0).reshape(M, M)
    rates = []
    for m in range(M):
        for n in range(M):
            if m != n and abs(rho0[m, n]) > 1e-12:
                rates.append(np.log(abs(r1[m, n]) / abs(r2[m, n])) / (t2 - t1))
    return min(rates)


def chained_kronecker_sum(mats):
    """Kronecker sum X1(x)I(x)... + ... + I(x)...(x)Xn by chained sparse products.

    Each step forms out(x)I + I(x)X with two ``sp.kron`` calls; the reference
    for the one-pass builder in the ensemble module.
    """
    out = sp.csr_matrix(mats[0])
    for X in mats[1:]:
        out = sp.kron(out, sp.identity(X.shape[0], format="csr"), format="csr") \
            + sp.kron(sp.identity(out.shape[0], format="csr"), sp.csr_matrix(X), format="csr")
    return out


def mp_jacobi_smallest(alpha, beta, dps=50) -> Tuple[float, float]:
    """Smallest eigenvalue theta of the symmetric tridiagonal with diagonal ``alpha`` and
    off-diagonal ``beta``, and |y_k|, the last component of its unit eigenvector, in
    ``dps``-digit mpmath arithmetic.

    theta by Sturm bisection: the count of negative LDL^T pivots of T - x (a zero pivot
    counted negative) is the number of eigenvalues below x. The bracket starts from
    numpy's dense ``eigvalsh`` +- 1e-8 ||T||, widened until the counts confirm it, and
    halves to 10^(30 - dps) ||T||. y from two steps of inverse iteration at the bracket's
    lower end sigma, just below theta, from the vector of ones: T - sigma is positive
    definite, so its LDL^T solve needs no pivoting, and the other eigenvectors keep a
    weight of ((theta - sigma) / gap)^2 relative to y. Off-diagonals of 0 or 1e-300 are
    exact couplings here; nothing is split.
    """
    with mpmath.workdps(dps):
        a, b = [mpmath.mpf(float(x)) for x in alpha], [mpmath.mpf(float(x)) for x in beta]
        if len(a) == 1:
            return float(a[0]), 1.0
        norm = float(max(abs(x) for x in a) + 2 * max(abs(x) for x in b)) or 1.0
        tiny = mpmath.mpf(10) ** (-2 * dps)

        def count_below(x):
            d, count = a[0] - x, 0
            for i in range(len(a)):
                if i:
                    d = a[i] - x - b[i - 1] ** 2 / d
                if d == 0:
                    d = -tiny
                count += d < 0
            return count

        guess = float(np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))[0])
        width = 1e-8 * norm
        while count_below(mpmath.mpf(guess - width)) or not count_below(mpmath.mpf(guess + width)):
            width *= 16.0
        lo, hi = mpmath.mpf(guess - width), mpmath.mpf(guess + width)
        while hi - lo > mpmath.mpf(10) ** (30 - dps) * norm:
            mid = (lo + hi) / 2
            if count_below(mid):
                hi = mid
            else:
                lo = mid
        # two solves of (T - lo) z = z by L D L^T, l_i = b_(i-1) / d_(i-1), from z = 1
        d = [a[0] - lo]
        for i in range(1, len(a)):
            d.append(a[i] - lo - b[i - 1] ** 2 / d[-1])
        z = [mpmath.mpf(1)] * len(a)
        for _ in range(2):
            y = [z[0]]
            for i in range(1, len(a)):
                y.append(z[i] - b[i - 1] / d[i - 1] * y[-1])
            z = [y[-1] / d[-1]]
            for i in range(len(a) - 2, -1, -1):
                z.append((y[i] - b[i] * z[-1]) / d[i])
            z.reverse()
            scale = mpmath.sqrt(mpmath.fsum(t * t for t in z))
            z = [t / scale for t in z]
        return float((lo + hi) / 2), float(abs(z[-1]))


def embedded_kronecker_sum(mats):
    """Kronecker sum as the sum over sites of I(x)...(x)X_i(x)...(x)I, each an np.kron chain.

    Every site operator is embedded by one np.kron per factor and the
    embeddings are added into zeros of the factors' dtype; the dense
    reference for the model's Kronecker-sum builder, signed zeros included.
    """
    dtype = np.result_type(*mats)
    dims = [X.shape[0] for X in mats]
    out = np.zeros((int(np.prod(dims)),) * 2, dtype=dtype)
    for i in range(len(mats)):
        op = np.ones((1, 1), dtype=dtype)
        for j, X in enumerate(mats):
            op = np.kron(op, X if j == i else np.eye(dims[j], dtype=dtype))
        out += op
    return out


def random_hermitian(rng, M, scale=1.0):
    A = rng.normal(size=(M, M)) + 1.0j * rng.normal(size=(M, M))
    return scale * (A + A.conj().T) / 2.0


def synthetic_system(rng, M, span=4.0, min_gap=0.05, min_gap_split=0.02):
    """A random M-level system with distinct levels and distinct positive gaps.

    The eigenbasis is the construction basis (identity); dipole amplitudes are
    random Hermitian matrices and D is assembled from them, so the pair is a
    valid (EnergySpectrum, DipoleData) without any qubit structure.
    """
    while True:
        E = np.sort(rng.uniform(-span / 2, span / 2, size=M))
        iu = np.triu_indices(M, 1)
        gaps = np.sort((E[None, :] - E[:, None])[iu])
        if np.diff(E).min() > min_gap and (
            len(gaps) < 2 or np.diff(gaps).min() > min_gap_split
        ):
            break
    spec = EnergySpectrum(
        M=M, energies=E, eigenbasis=np.eye(M, dtype=complex),
        degeneracy_tol=1e-9 * (E[-1] - E[0]),
    )
    amps = [random_hermitian(rng, M) for _ in range(3)]
    dip = DipoleData(d_x=amps[0], d_y=amps[1], d_z=amps[2], gamma=1.0)
    return spec, dip


def random_density_matrix(rng, M):
    G = rng.normal(size=(M, M)) + 1.0j * rng.normal(size=(M, M))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def dense_liouvillian(spec, dip, beta, energy_tol=None):
    """The quantum optical master equation generator as one dense M^2 x M^2 array.

    Fills the M^4 tensor L[m, n, k, j] (output (m, n), input (k, j)) over all
    index quadruples and gates the feeding term on equal transition
    frequencies alone, with no reference to Bohr-frequency blocks.
    """
    M = spec.M
    E = spec.energies
    if energy_tol is None:
        energy_tol = DEGENERACY_RTOL * max(float(E[-1] - E[0]), 1.0)
    lev_ids, gap_ids, gap_rep = loop_gap_structure(E, energy_tol)
    Wt = _blackbody_weight(gap_rep, beta, detailed_balance=True)
    gamma = dip.gamma
    same_level = lev_ids[:, None] == lev_ids[None, :]

    Phi = np.zeros((M, M), dtype=complex)
    for d in dip.amplitudes:
        Phi += d.T @ (np.conj(d) * Wt)
    Phi *= gamma
    Phi_gated = Phi * same_level

    L4 = np.zeros((M, M, M, M), dtype=complex)
    for d in dip.amplitudes:
        L4 += gamma * np.einsum("mk,nj->mnkj", d * Wt, np.conj(d))
    gate = gap_ids.T[:, None, :, None] == gap_ids.T[None, :, None, :]
    L4 *= gate

    for n in range(M):
        L4[:, n, :, n] -= 0.5 * Phi_gated.T
    for m in range(M):
        L4[m, :, m, :] -= 0.5 * Phi_gated.conj().T
    mm, nn = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    L4[mm, nn, mm, nn] += -1.0j * gap_rep[mm, nn]
    return L4.reshape(M * M, M * M)


def spin_sector_system(N, Gamma, gamma=1.0):
    """N identical spins in a uniform field, reduced to one copy of each total-spin sector.

    H = -Gamma sum_i sigma_i^x = -2 Gamma J_x and the collective dipoles
    2 J_h act only on the total-spin factor of C^(2^N) = sum_J C^(2J+1) x
    C^(d_J), so the system is represented on the direct sum of the sectors
    J = N/2, N/2 - 1, ..., one copy each, in the basis |J, m_x> (no numerical
    diagonalization; the eigenbasis is the identity). Returns (spectrum,
    dipoles, sectors) with ``sectors`` = (sector index of each level, exact
    integer multiplicity d_J = C(N, N/2-J) - C(N, N/2-J-1) of each sector).
    """
    ks = range(N // 2 + 1)
    mult = tuple(math.comb(N, k) - (math.comb(N, k - 1) if k else 0) for k in ks)
    # 2m_x of every level, m_x = J, J-1, ..., -J within each sector 2J = N - 2k
    two_m = np.concatenate([np.arange(N - 2 * k, -(N - 2 * k) - 1, -2) for k in ks])
    sector = np.concatenate([np.full(N - 2 * k + 1, k) for k in ks])
    # <m+1| J_y + i J_z |m> = sqrt(J(J+1) - m(m+1)), x the quantization axis,
    # couples level i+1 to level i; it vanishes where level i+1 opens a sector (m = J)
    two_J, t = N - 2 * sector[1:], two_m[1:]
    J_plus = np.diag(0.5 * np.sqrt(two_J * (two_J + 2) - t * (t + 2)), 1).astype(complex)
    order = np.argsort(-two_m, kind="stable")  # ascending energy -Gamma 2m_x
    amps = [np.diag(two_m).astype(complex), J_plus + J_plus.T, -1.0j * (J_plus - J_plus.T)]
    amps = [d[np.ix_(order, order)] for d in amps]
    M = len(order)
    spec = EnergySpectrum(
        M=M,
        energies=Gamma * -two_m[order],
        eigenbasis=np.eye(M, dtype=complex),
        degeneracy_tol=DEGENERACY_RTOL * 2 * N * Gamma,
    )
    dip = DipoleData(d_x=amps[0], d_y=amps[1], d_z=amps[2], gamma=gamma)
    return spec, dip, (sector[order], mult)


def sector_blocks(N, Gamma, beta, gamma=1.0, energy_tol=None):
    """(omega, weight, dissipator) of every Bohr block of the sector system, split by sector pair.

    The gathered generator of ``spin_sector_system`` is cut, one sector pair
    (J, J') at a time, into the parts of each Bohr block; the cut is exact
    (checked: no entry couples two sector pairs) and each part counts
    d_J d_J' times in the 2^N register. Like the blocks, a part leaves out
    the coherent -i omega.
    """
    spec, dip, (level_sector, mult) = spin_sector_system(N, Gamma, gamma)
    L = build_liouvillian(spec, dip, beta, energy_tol=energy_tol)
    out = []
    for omegas, idxs, stack in L.blocks:
        for omega, idx, block in zip(omegas, idxs, stack):
            m, n = np.divmod(idx, spec.M)
            pair = level_sector[m] * len(mult) + level_sector[n]
            for p in np.unique(pair):
                mask = pair == p
                assert not block[np.ix_(mask, ~mask)].any()
                out.append((omega, mult[p // len(mult)] * mult[p % len(mult)],
                            block[np.ix_(mask, mask)]))
    return out


def sector_eigenvalues(N, Gamma, beta, gamma=1.0, energy_tol=None):
    """Eigenvalues, omega = 0 mask and weights of ``sector_blocks``, one ``eigvals``
    per block, -i omega put on the eigenvalues."""
    ev, static, weight = [], [], []
    for omega, w, block in sector_blocks(N, Gamma, beta, gamma, energy_tol):
        ev.append(np.linalg.eigvals(block) - 1j * omega)
        static += [omega == 0.0] * len(block)
        weight += [w] * len(block)
    return np.concatenate(ev), np.array(static), np.array(weight, dtype=object)


# ---------------------------------------------------------------------------
# closed forms of the uniform QOME decoherence time
# ---------------------------------------------------------------------------

def absorption_rate(Gamma, beta, gamma=1.0):
    """w_up = 2 gamma (2 Gamma)^3 / (e^{2 beta Gamma} - 1), the absorption rate of one spin."""
    return 2.0 * gamma * (2.0 * Gamma) ** 3 / math.expm1(2.0 * beta * Gamma)


def uniform_qome_tau_P(Gamma, beta, gamma=1.0):
    """The QOME dissipation time of N spins in a uniform field, 1 / (w_up + w_dn) at every N:
    the one-spin value tanh(beta Gamma) / (2 gamma (2 Gamma)^3), with w_dn = w_up e^{2 beta
    Gamma} the emission rate. A reading, not a derivation, as for the decoherence laws."""
    return math.tanh(beta * Gamma) / (2.0 * gamma * (2.0 * Gamma) ** 3)


def pair_qome_tau_Q(Gamma, beta, gamma=1.0):
    """The QOME decoherence time of two spins in a uniform field, 1 / w_up at any temperature.

    A reading, not a derivation: the slowest coherence joins the dark singlet
    with the triplet ground state, which absorbs collectively at 2 w_up, and
    decays at half that rate."""
    return 1.0 / absorption_rate(Gamma, beta, gamma)


def cold_qome_tau_Q(N, Gamma, beta, gamma=1.0):
    """The cold law of N >= 2 spins in a uniform field: tau_Q -> (N - 1) / w_up as
    beta Gamma grows. It grows with N, where the detailed-balance tau_Q falls as 1/N."""
    return (N - 1) / absorption_rate(Gamma, beta, gamma)


# ---------------------------------------------------------------------------
# the composed product-space rate matrix
# ---------------------------------------------------------------------------

#: Cap on the product dimension of the dense composed rate matrix.
COMPOSE_CAP = 4096


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


# ---------------------------------------------------------------------------
# product-basis decoupling verification
# ---------------------------------------------------------------------------

#: Cap on the two-system product dimension of the decoupling check.
DECOUPLING_CAP = 64

#: The decoupling check passes when every measured D, C and B entry matches its
#: one-body prediction to this fraction of the prediction's scale (at least 1).
DECOUPLING_RTOL = 1e-12


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
    a: Tuple[EnergySpectrum, DipoleData],
    b: Tuple[EnergySpectrum, DipoleData],
    beta: float,
    basis: str = "product",
) -> DecouplingCheck:
    """Measure the two-system dipole elements and test the one-body decoupling.

    Builds D[(m,n),(p,q)] = sum_h gamma_1 |<mn| O1_h |pq>|^2 + gamma_2
    |<mn| O2_h |pq>|^2 in the requested basis ("product" or, for equal
    members, "bell"), derives C and the escape rates, and compares them
    against the one-body predictions from the member data.
    """
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
    ok = all(
        dev <= DECOUPLING_RTOL * max(1.0, np.abs(pred).max())
        for dev, pred in ((dev_D, pred_D), (dev_C, pred_C), (dev_B, pred_B))
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
