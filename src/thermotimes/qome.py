"""Quantum optical master equation: Liouvillian, spectrum and pathologies.

The microscopically derived master equation groups dyads |m><n| into jump
operators by transition frequency. Its generator therefore carries Kronecker
deltas on level energies and on energy gaps; whenever levels or gaps are
degenerate these deltas couple matrix elements that the detailed-balance
construction keeps independent, which is the source of the reported
pathologies (degenerate steady states, size-dependent dissipation time,
decoherence time not falling off with ensemble size). The Lamb-shift term is
dropped throughout: its defining integral is ultraviolet divergent and it
does not affect either characteristic time.

The secular generator commutes with [H, .], so it is block diagonal by Bohr
frequency (Buca & Prosen, NJP 14, 073007, 2012): the omega = 0 block holds the
populations and fixes the dissipation time, the other blocks hold the
coherences and fix the decoherence time. Only a block's dissipator is stored
(its coherent part is -i omega times the identity), stacked with the blocks of
its size; one batched eigensolve per stack, -i omega put on the eigenvalues
after it, keeps slow coherence rates at their own precision.

Identical spins in a uniform field take ``uniform_spin_spectrum``: on one copy
of each total-spin sector J, counted d_J times (Chase & Geremia, PRA 78,
052101, 2008), the only jumps are m -> m +- 1, so each (J, J', m - n) block
ordered by m is tridiagonal with positive off-diagonal products, similar to
a real symmetric Jacobi matrix built from the ladder elements. Any other
system is built as a composite register, where every block counts once.

A mixture of distinguishable members takes the member route when no
transition frequency of one member lies within ``energy_tol`` of a frequency
of another: every frequency-grouped jump operator then acts on one member,
so the generator is the Kronecker sum of the member generators and its
spectrum is the set of all sums of one eigenvalue per member. tau_P and tau_Q
are the largest member times (for distinct spin fields tau_Q = 2 max_i
tau_P,i, the decoherence pathology in closed form) and the steady states
count the product of the members' counts. ``mixture_spectrum`` builds each
member at the composite's default tolerance, the only one this route runs
at, and refuses a resonant pair. The premise compares member frequencies
only: a tolerance wide enough to merge levels or dipole-free gaps of the
composite lies outside it, so a wider tolerance needs the composite.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyEnsemble,
    NoDissipativeEigenvalue,
    ResonantMembers,
)
from .lba import _blackbody_weight
from .model import (
    DEGENERACY_RTOL,
    DipoleData,
    EnergySpectrum,
    _check_beta,
    _check_positive,
    _check_size,
    _check_tolerance,
    _gap_structure,
    _pair_classes,
)

#: Cap on the vectorized dimension M^2 of the Liouvillian.
LIOUVILLIAN_CAP = 4096

#: ``compare`` calls two times equal within this relative deviation.
AGREE_RTOL = 1e-6

#: A Liouvillian eigenvalue counts as zero below TOL_ZERO * scale, with scale
#: the largest eigenvalue modulus.
TOL_ZERO = 1e-10


def _check_qome_size(dim: int, copies: int = 1) -> None:
    """The QOME size rule: the generator of ``copies`` members of dimension ``dim``
    acts on (dim^copies)^2 entries, at most LIOUVILLIAN_CAP. Compared in log
    space, so that a huge ensemble is refused before anything is built."""
    if 2 * copies * math.log2(dim) > math.log2(LIOUVILLIAN_CAP):
        raise CapExceeded(f"QOME dimension {dim}^{2 * copies} exceeds cap {LIOUVILLIAN_CAP}")


def _default_energy_tol(spread: float) -> float:
    """The default energy tolerance of a spectrum of this spread: DEGENERACY_RTOL
    of the spread, at least DEGENERACY_RTOL."""
    return DEGENERACY_RTOL * max(spread, 1.0)


@dataclass(frozen=True)
class Liouvillian:
    """Generator of the quantum optical master equation, one block per Bohr frequency.

    Element (m, n) of the density matrix sits at the row-major index m*M + n,
    and a Bohr-frequency class E_m - E_n = omega (omega exactly 0 for the
    populations; energies within ``energy_tol`` count as equal) is one block.
    A block's coherent part is -i omega times the identity, so ``blocks``
    holds dissipators only: one (omegas, idx, stack) entry per block size s,
    ascending, with the nb classes of that size in ascending omega, their
    ascending indices idx (nb, s) and their dissipators stack (nb, s, s).
    """

    dim: int
    blocks: tuple
    energies: np.ndarray
    energy_tol: float
    beta: float

    @property
    def M(self) -> int:
        return int(math.isqrt(self.dim))

    @property
    def matrix(self) -> np.ndarray:
        """The dense M^2 x M^2 generator, scattered from the blocks, -i omega put back."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for omegas, idx, stack in self.blocks:
            out[idx[:, :, None], idx[:, None, :]] = stack
            out[idx, idx] += -1.0j * omegas[:, None]
        return out


def build_liouvillian(
    spec: EnergySpectrum,
    dip: DipoleData,
    beta: float,
    energy_tol: Optional[float] = None,
) -> Liouvillian:
    """Assemble the quantum optical master equation generator, one stack per block size.

    A stable sort by (class size, class id) lines the Bohr classes up by size,
    and each size is built at once over (nb, s, s), with no loop over blocks.
    The spectrum may be degenerate. Within a Bohr-frequency class the
    dissipator consists of two escape sums gated by equality of level
    energies and a feeding term gated by equality of transition frequencies,
    all with the blackbody weight W~ and the squared coupling gamma carried by
    the dipole data. Coefficients are evaluated on per-class representative
    energies, so gating and weights never disagree.
    """
    _check_beta(beta)
    M = spec.M
    if dip.M != M:
        raise DimensionMismatch(
            f"dipole dimension {dip.M} does not match spectrum dimension {M}"
        )
    _check_qome_size(M)
    E = spec.energies
    if energy_tol is None:
        energy_tol = _default_energy_tol(float(E[-1] - E[0]))

    lev_ids, gap_ids, gap_rep = _gap_structure(E, energy_tol)
    Wt = _blackbody_weight(gap_rep, beta, detailed_balance=True)
    gamma = dip.gamma

    # escape coefficients Phi[k, m] = gamma sum_h sum_q d_h[q, k] conj(d_h[q, m]) W~[q, m]
    Phi = np.zeros((M, M), dtype=complex)
    for d in dip.amplitudes:
        Phi += d.T @ (np.conj(d) * Wt)
    Phi *= gamma
    Phi_gated = Phi * (lev_ids[:, None] == lev_ids[None, :])

    ids = gap_ids.ravel()
    size = np.bincount(ids)[ids]
    order = np.lexsort((ids, size))  # by class size, then class id; each class ascending
    blocks = []
    for s in sorted(set(size.tolist())):
        idx = order[size[order] == s].reshape(-1, s)
        # row (m, n) of a block receives from column (k, j)
        (m, n), (k, j) = np.divmod(idx[:, :, None], M), np.divmod(idx[:, None, :], M)
        # feeding term gamma sum_h d_h[m, k] conj(d_h[n, j]) W~[m, k], gated on
        # equal transition frequencies E_k - E_m = E_j - E_n; einsum rounds the
        # complex products like the dense outer product einsum("mk,nj->mnkj")
        stack = np.zeros(idx.shape + (s,), dtype=complex)
        for d in dip.amplitudes:
            stack += gamma * np.einsum("...,...->...", (d * Wt)[m, k], np.conj(d)[n, j])
        stack *= gap_ids.T[m, k] == gap_ids.T[n, j]
        stack -= 0.5 * Phi_gated.T[m, k] * (n == j)
        stack -= 0.5 * Phi_gated.conj().T[n, j] * (m == k)
        blocks.append((gap_rep.ravel()[idx[:, 0]], idx, stack))

    return Liouvillian(
        dim=M * M,
        blocks=tuple(blocks),
        energies=E.copy(),
        energy_tol=float(energy_tol),
        beta=float(beta),
    )


def jump_operator_groups(energies: Sequence[float]) -> list:
    """Group the ordered index pairs (m, n), m != n, by transition frequency.

    The microscopic jump operator at frequency omega collects every dyad
    |m><n| with E_n - E_m = omega, classed as the generator classes its gaps
    at the default energy tolerance; a group with more than one pair is
    exactly the multi-dyad situation produced by level or gap degeneracies.
    Returns (omega, pairs) entries sorted by omega.
    """
    E = np.asarray(energies, dtype=float)
    if len(E) < 2:
        return []
    _, gap_ids, gap_rep = _gap_structure(E, _default_energy_tol(float(E.max() - E.min())))
    # gap_ids.T classes the pair (m, n) by E_n - E_m, its transition frequency
    return [(float(gap_rep.T[pairs[0]]), pairs) for pairs in _pair_classes(gap_ids.T)]


@dataclass(frozen=True)
class LiouvillianSpectrum:
    """Classified eigenvalues of the quantum optical master equation generator.

    tau_P comes from the nonzero eigenvalue of smallest |Re| in the omega = 0
    block (which may itself be degenerate: ``tau_P_multiplicity`` counts the
    copies) and ``zero_multiplicity`` counts that block's zero eigenvalues;
    tau_Q comes from the eigenvalue of smallest |Re| in the omega != 0
    blocks. tau_Q is None when there is no such block and infinite when the
    slowest oscillatory mode is undamped. ``eigenvalues`` lists the block
    spectra in block order (``Liouvillian.blocks`` stack by stack), each once;
    the two multiplicities count every eigenvalue d_J d_J' times on the
    total-spin route, once on any other (exact ints).
    """

    eigenvalues: np.ndarray
    zero_multiplicity: int
    tau_P: Optional[float]
    tau_Q: Optional[float]
    tol_zero: float
    scale: float
    tau_P_multiplicity: int = 1


def qome_spectrum(L: Liouvillian, tol_zero: float = TOL_ZERO) -> LiouvillianSpectrum:
    """Diagonalize the Liouvillian per block size and extract the characteristic times.

    One batched eigensolve per stack, -i omega put on the eigenvalues after
    it. Raises NoDissipativeEigenvalue when the omega = 0 block has no nonzero
    eigenvalue (e.g. a decoupled system), and NonPositiveField unless
    ``tol_zero`` is finite and > 0; a missing oscillatory block is reported
    as tau_Q = None.
    """
    _check_positive("tol_zero", tol_zero)
    ev = np.concatenate([(np.linalg.eigvals(stack) - 1j * omegas[:, None]).ravel()
                         for omegas, _, stack in L.blocks])
    static = np.concatenate([np.repeat(omegas == 0.0, idx.shape[1]) for omegas, idx, _ in L.blocks])
    return _classify(ev, static, np.ones(len(ev), dtype=int), tol_zero)


def _classify(ev: np.ndarray, static: np.ndarray, weight: np.ndarray,
              tol_zero: float) -> LiouvillianSpectrum:
    """The times and counts of the eigenvalues ``ev`` of a blocked generator, with
    ``static`` the omega = 0 mask and ``weight`` the multiplicity of each."""
    scale = float(np.abs(ev).max(initial=0.0))
    if scale == 0.0:
        raise NoDissipativeEigenvalue("the generator vanishes identically")
    zero = static & (np.abs(ev) < tol_zero * scale)
    osc = ev[~static]

    rates = np.abs(ev[static & ~zero].real)
    if not len(rates):
        raise NoDissipativeEigenvalue(
            "no nonzero population-sector eigenvalue: dissipation time undefined"
        )
    slowest_real = float(rates.min())
    tau_P = 1.0 / slowest_real
    tau_P_mult = int(weight[static & ~zero][np.abs(rates - slowest_real) <= tol_zero * scale].sum())

    tau_Q: Optional[float]
    if len(osc):
        slowest = float(np.abs(osc.real).min())
        tau_Q = math.inf if slowest < tol_zero * scale else 1.0 / slowest
    else:
        tau_Q = None

    return LiouvillianSpectrum(
        eigenvalues=ev,
        zero_multiplicity=int(weight[zero].sum()),
        tau_P=tau_P,
        tau_Q=tau_Q,
        tol_zero=tol_zero,
        scale=scale,
        tau_P_multiplicity=tau_P_mult,
    )


def uniform_spin_spectrum(N: int, Gamma: float, beta: float, gamma: float = 1.0,
                          energy_tol: Optional[float] = None,
                          tol_zero: float = TOL_ZERO) -> LiouvillianSpectrum:
    """QOME spectrum of N identical spins in the uniform field Gamma, by total-spin sector.

    The block of the sector pair (J, J') and Bohr index 2(m - n) holds the level
    pairs (m, n) ordered by m. With c_J(m) = sqrt(J(J+1) - m(m+1)), w_dn =
    W~(-2 Gamma) and w_up = W~(+2 Gamma), it is similar, without its -i omega
    diagonal, to the symmetric tridiagonal matrix with diagonal -gamma [c_J(m)^2
    w_dn + c_J(m-1)^2 w_up + c_J'(n)^2 w_dn + c_J'(n-1)^2 w_up] and coupling
    2 gamma sqrt(w_dn w_up) c_J(m-1) c_J'(n-1) of (m, n) to (m-1, n-1). Its
    eigenvalues, -i omega put back, count d_J d_J' times and are classified as
    by :func:`qome_spectrum`. Levels lie 2 Gamma apart: an ``energy_tol`` >=
    2 Gamma merges them all and the generator vanishes (NoDissipativeEigenvalue);
    any smaller one gives the default numbers. Size rule as ``build_liouvillian``,
    on the sum of the sector sizes: at most 64 levels, N <= 14.
    """
    N = _check_size("N", N)
    _check_positive("Gamma", Gamma)
    _check_positive("gamma", gamma)
    _check_beta(beta)
    _check_positive("tol_zero", tol_zero)
    _check_qome_size(sum(range(N + 1, 0, -2)))
    if energy_tol is None:
        energy_tol = _default_energy_tol(2 * N * Gamma)
    _check_tolerance("energy tolerance", energy_tol)
    if energy_tol >= 2 * Gamma:
        raise NoDissipativeEigenvalue(f"energy_tol {energy_tol:.3g} >= the level spacing 2 Gamma")
    blocks, rise, fall, ladder, bohr, weight = _spin_pairs(N)
    w_dn, w_up = _blackbody_weight(np.array([-2.0, 2.0]) * Gamma, beta, detailed_balance=True)
    diag = -gamma * (rise * w_dn + fall * w_up)
    off = 2 * gamma * np.sqrt(w_dn) * np.sqrt(w_up) * ladder  # of (m, n) to (m - 1, n - 1)
    lam = np.empty(len(bohr))
    for rows in blocks:  # one eigvalsh per block size; it reads the lower triangle
        r = np.arange(rows.shape[1])
        T = np.zeros(rows.shape + r.shape)
        T[:, r, r], T[:, r[1:], r[:-1]] = diag[rows], off[rows[:, 1:]]
        lam[rows] = np.linalg.eigvalsh(T)
    omega = Gamma * bohr  # E_m - E_n
    return _classify(lam - 1j * omega, omega == 0.0, weight, tol_zero)


def _spin_pairs(N: int) -> tuple:
    """The level pairs (m, n) of ``uniform_spin_spectrum`` in block order, which depend
    on N alone: the pair indices of each block size, c_J(m)^2 + c_J'(n)^2,
    c_J(m-1)^2 + c_J'(n-1)^2, c_J(m-1) c_J'(n-1), 2(n - m) and d_J d_J' (Python ints)."""
    two_J, S = np.arange(N, -1, -2), N // 2 + 1
    mult = [math.comb(N, k) - (math.comb(N, k - 1) if k else 0) for k in range(S)]
    # every level (sector s, 2m = 2J, 2J - 2, ..., -2J), then every level pair by block and m
    s = np.repeat(np.arange(S), two_J + 1)
    tm = np.concatenate([np.arange(t, -t - 1, -2) for t in two_J])
    i, j = (x.ravel() for x in np.indices((len(s), len(s))))
    key = (s[i] * S + s[j]) * (4 * N + 1) + (tm[i] - tm[j] + 2 * N)
    order = np.lexsort((tm[i], key))
    i, j = i[order], j[order]
    _, starts, counts = np.unique(key[order], return_index=True, return_counts=True)
    tJ = two_J[s]  # 4 c_J(m)^2 and 4 c_J(m-1)^2 of every level, exact integers:
    rise, fall = tJ * (tJ + 2) - tm * (tm + 2), tJ * (tJ + 2) - tm * (tm - 2)
    blocks = tuple(starts[counts == size, None] + np.arange(size) for size in np.unique(counts))
    weight = np.array([da * db for da in mult for db in mult], dtype=object)[s[i] * S + s[j]]
    return (blocks, (rise[i] + rise[j]) / 4, (fall[i] + fall[j]) / 4,
            np.sqrt(fall[i] * fall[j]) / 4, tm[j] - tm[i], weight)


def _check_member_premise(spectra: Sequence[EnergySpectrum], energy_tol: float) -> None:
    """The member route's premise: no transition frequency (positive Bohr
    frequency, classed as the generator classes it; the negative ones mirror
    them) of one member lies within ``energy_tol`` of one of another member.
    Otherwise ResonantMembers names the closest such pair and its distance.
    """
    freqs = [np.unique(rep[rep > 0.0]) for rep in
             (_gap_structure(spec.energies, energy_tol)[2] for spec in spectra)]
    f = np.concatenate(freqs)
    order = np.argsort(f, kind="stable")
    f, owner = f[order], np.repeat(np.arange(len(freqs)), [len(x) for x in freqs])[order]
    # some closest pair of two different members is adjacent in sorted order
    cross = np.flatnonzero(owner[1:] != owner[:-1])
    if len(cross):
        k = int(cross[np.argmin(f[cross + 1] - f[cross])])
        distance = float(f[k + 1] - f[k])
        if distance <= energy_tol:
            raise ResonantMembers(
                f"members {owner[k]} and {owner[k + 1]} share the transition frequency "
                f"{f[k]:.12g} ~ {f[k + 1]:.12g}: {distance:.3g} apart, energy_tol {energy_tol:.3g}"
            )


@dataclass(frozen=True)
class MixtureSpectrum:
    """QOME times of a mixture of distinguishable members, from the members' generators.

    tau_P and tau_Q are the largest member times (tau_Q None when no member
    has a coherence block), ``zero_multiplicity`` is the product of the
    members' steady-state counts (an exact integer) and ``members`` holds each
    member's LiouvillianSpectrum.
    """

    tau_P: float
    tau_Q: Optional[float]
    zero_multiplicity: int
    members: tuple


def mixture_spectrum(
    members: Sequence[Tuple[EnergySpectrum, DipoleData]],
    beta: float,
    tol_zero: float = TOL_ZERO,
) -> MixtureSpectrum:
    """QOME times and steady-state count of a mixture, one (spectrum, dipoles) per member.

    Each member generator is built at the composite's default tolerance (the
    mixture's spread being the sum of the member spreads) and solved on its
    own; the premise is checked first, so a resonant pair raises
    ResonantMembers before anything is built.
    """
    if not members:
        raise EmptyEnsemble("a mixture needs at least one member")
    spectra = [spec for spec, _ in members]
    energy_tol = _default_energy_tol(sum(float(s.energies[-1] - s.energies[0]) for s in spectra))
    _check_member_premise(spectra, energy_tol)
    parts = tuple(
        qome_spectrum(build_liouvillian(spec, dip, beta, energy_tol=energy_tol), tol_zero=tol_zero)
        for spec, dip in members
    )
    tau_Q = [part.tau_Q for part in parts if part.tau_Q is not None]
    return MixtureSpectrum(
        tau_P=max(part.tau_P for part in parts),
        tau_Q=max(tau_Q) if tau_Q else None,
        zero_multiplicity=math.prod(part.zero_multiplicity for part in parts),
        members=parts,
    )


@dataclass(frozen=True)
class PathologyFlags:
    """Symptoms distinguishing the microscopic equation from the detailed-balance one.

    The two size-dependence flags stay None unless results for at least two
    ensemble sizes are supplied; they are meaningful heuristics for N >= 3.
    """

    multiple_steady_states: bool
    tauP_depends_on_N: Optional[bool] = None
    tauQ_not_1_over_N: Optional[bool] = None


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side comparison of the two approaches for one composite system."""

    agree_P: bool
    agree_Q: bool
    dev_P: Optional[float]
    dev_Q: Optional[float]
    pathology_flags: PathologyFlags


def compare(
    lba_times,
    qome: LiouvillianSpectrum,
    qome_series: Optional[Sequence[Tuple[int, float, float]]] = None,
) -> ComparisonReport:
    """Compare detailed-balance times against the microscopic spectrum.

    ``lba_times`` is anything with tau_P/tau_Q attributes; a time agrees when
    it deviates by at most AGREE_RTOL relative. ``qome_series``
    optionally supplies (N, tau_P, tau_Q) triples from which the
    size-dependence pathology flags are estimated: tau_P spreading by more
    than 0.1% flags a size-dependent dissipation time, and tau_Q is flagged
    as not scaling like 1/N when the two largest sizes deviate from that
    scaling by more than 25%.
    """
    lP, lQ = float(lba_times.tau_P), float(lba_times.tau_Q)
    qP, qQ = qome.tau_P, qome.tau_Q
    dev_P = abs(qP - lP) / lP if qP is not None else None
    dev_Q = (
        abs(qQ - lQ) / lQ
        if qQ is not None and math.isfinite(qQ)
        else None
    )
    agree_P = dev_P is not None and dev_P <= AGREE_RTOL
    agree_Q = dev_Q is not None and dev_Q <= AGREE_RTOL

    tauP_dep = tauQ_flat = None
    if qome_series is not None and len(qome_series) >= 2:
        series = sorted(qome_series)
        taups = [p for _, p, _ in series if p is not None]
        if len(taups) >= 2:
            tauP_dep = (max(taups) - min(taups)) > 1e-3 * max(taups)
        tail = [(n, q) for n, _, q in series if q is not None and math.isfinite(q)]
        if len(tail) >= 2:
            (n_a, q_a), (n_b, q_b) = tail[-2], tail[-1]
            ratio = (q_b / q_a) * (n_b / n_a)  # 1 under exact 1/N scaling
            tauQ_flat = abs(ratio - 1.0) > 0.25
        elif any(q is not None and math.isinf(q) for _, _, q in series):
            tauQ_flat = True

    return ComparisonReport(
        agree_P=agree_P,
        agree_Q=agree_Q,
        dev_P=dev_P,
        dev_Q=dev_Q,
        pathology_flags=PathologyFlags(
            multiple_steady_states=qome.zero_multiplicity > 1,
            tauP_depends_on_N=tauP_dep,
            tauQ_not_1_over_N=tauQ_flat,
        ),
    )
