"""Quantum optical master equation: Liouvillian, spectrum and pathologies.

The microscopically derived master equation groups dyads |m><n| into jump
operators by transition frequency. Its generator therefore carries Kronecker
deltas on level energies and on energy gaps; whenever levels or gaps are
degenerate these deltas couple matrix elements that the detailed-balance
construction keeps independent, which is the source of the reported
pathologies, each a departure from the detailed-balance route at one ensemble
size N (``compare``): degenerate steady states, a decoherence time off that
route's law tau_Q = 2/((2N-1)B_(1)+B_(2)), undamped coherences. The Lamb-shift
term is dropped throughout: its defining integral is ultraviolet divergent and
it does not affect either characteristic time.

The secular generator commutes with [H, .], so it is block diagonal by Bohr
frequency (Buca & Prosen, NJP 14, 073007, 2012): the omega = 0 block holds the
populations and fixes the dissipation time, the other blocks hold the
coherences and fix the decoherence time. Only a block's dissipator is stored
(its coherent part is -i omega times the identity), stacked with the blocks of
its size; one batched eigensolve per stack, -i omega put on the eigenvalues
after it, keeps slow coherence rates at their own precision.

``ensemble_spectrum`` is the one entry for an ``EnsembleSpec``: a single member
takes ``_member_spectrum``, several at the default tolerance ``_mixture_spectrum``,
and a resonance or an explicit ``energy_tol`` one composite register, built in
the product eigenbasis, where every block counts once. A coupled two-level
member enters its generator through its summed squared dipole element alone,
so its copies are spins and take ``uniform_spin_spectrum``: on one copy of each
total-spin sector J, counted d_J times (Chase & Geremia, PRA 78, 052101, 2008),
the only jumps are m -> m +- 1, so each (J, J', m - n) block ordered by m is
tridiagonal with positive off-diagonal products, similar to a real symmetric
Jacobi matrix from the ladder elements. Other members' copies form a register.

A mixture of distinguishable members takes the member route when no
transition frequency of one member lies within ``energy_tol`` of a frequency
of another: every frequency-grouped jump operator then acts on one member,
so the generator is the Kronecker sum of the member generators and its
spectrum is the set of all sums of one eigenvalue per member. tau_P and tau_Q
are the largest member times (for distinct spin fields tau_Q = 2 max_i
tau_P,i, the decoherence pathology in closed form) and the steady states
count the product of the members' counts. ``_mixture_spectrum`` solves each
member at the composite's default tolerance, the only one this route runs
at, and refuses a resonant pair. The premise compares member frequencies
only: a tolerance wide enough to merge levels or dipole-free gaps of the
composite lies outside it, so a wider tolerance needs the composite.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .ensemble import EnsembleMember, EnsembleSpec
from .errors import DimensionMismatch, NoDissipativeEigenvalue, ResonantMembers
from .lba import _blackbody_weight
from .model import (
    DEGENERACY_RTOL,
    TOL_ZERO,
    DipoleData,
    EnergySpectrum,
    _check_beta,
    _check_positive,
    _check_product_size,
    _check_rates,
    _check_size,
    _check_tolerance,
    _gap_structure,
    _kronecker_sum,
    _pair_classes,
    _product_sum,
    _stacks,
)

#: Cap on the vectorized dimension M^2 of the Liouvillian.
LIOUVILLIAN_CAP = 4096

#: ``compare`` calls two times equal within this relative deviation.
AGREE_RTOL = 1e-6


def _check_qome_size(factors) -> None:
    """The QOME size rule: the generator of the register of ``factors`` (dim, copies) acts on
    (prod dim^copies)^2 entries, at most LIOUVILLIAN_CAP (``model._check_product_size``)."""
    _check_product_size([(d, 2 * n) for d, n in factors], LIOUVILLIAN_CAP, "QOME dimension")


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


@np.errstate(over="ignore", invalid="ignore")  # rates past the float range are refused
def build_liouvillian(
    spec: EnergySpectrum,
    dip: DipoleData,
    beta: float,
    energy_tol: Optional[float] = None,
) -> Liouvillian:
    """Assemble the quantum optical master equation generator, one stack per block size.

    The Bohr classes come stacked by size from ``model._stacks``, and each size
    is built at once over (nb, s, s), with no loop over blocks.
    The spectrum may be degenerate. Within a Bohr-frequency class the
    dissipator consists of two escape sums gated by equality of level
    energies and a feeding term gated by equality of transition frequencies,
    all with the blackbody weight W~ and the squared coupling gamma carried by
    the dipole data. Coefficients are evaluated on per-class representative
    energies, so gating and weights never disagree. Raises NonPositiveField
    when the rates leave the float range.
    """
    _check_beta(beta)
    M = spec.M
    if dip.M != M:
        raise DimensionMismatch(f"dipole dimension {dip.M} does not match spectrum dimension {M}")
    _check_qome_size([(M, 1)])
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

    blocks = []
    for idx in _stacks(gap_ids.ravel()):
        # row (m, n) of a block receives from column (k, j)
        (m, n), (k, j) = np.divmod(idx[:, :, None], M), np.divmod(idx[:, None, :], M)
        # feeding term gamma sum_h d_h[m, k] conj(d_h[n, j]) W~[m, k], gated on
        # equal transition frequencies E_k - E_m = E_j - E_n; einsum rounds the
        # complex products like the dense outer product einsum("mk,nj->mnkj")
        stack = np.zeros(idx.shape + idx.shape[-1:], dtype=complex)
        for d in dip.amplitudes:
            stack += gamma * np.einsum("...,...->...", (d * Wt)[m, k], np.conj(d)[n, j])
        stack *= gap_ids.T[m, k] == gap_ids.T[n, j]
        stack -= 0.5 * Phi_gated.T[m, k] * (n == j)
        stack -= 0.5 * Phi_gated.conj().T[n, j] * (m == k)
        blocks.append((gap_rep.ravel()[idx[:, 0]], idx, stack))
    if gap_rep.any():  # a tolerance that merges every level leaves no rate to scale
        _check_rates("the rate scale gamma max W~", *(b for *_, b in blocks),
                     scale=gamma * Wt.max())

    return Liouvillian(dim=M * M, blocks=tuple(blocks), energies=E.copy(),
                       energy_tol=float(energy_tol), beta=float(beta))


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
    slowest oscillatory mode is undamped. ``eigenvalues`` lists each eigenvalue once,
    by block (``Liouvillian.blocks`` stack by stack) on the composite route and by level
    pair (``_spin_pairs``) on the total-spin route; the multiplicities count every
    eigenvalue d_J d_J' times on the total-spin route, once on any other (exact ints).
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
    ev = np.concatenate([(np.linalg.eigvals(stack) - 1j * omegas[:, None]).ravel()
                         for omegas, _, stack in L.blocks])
    static = np.concatenate([np.repeat(omegas == 0.0, idx.shape[1]) for omegas, idx, _ in L.blocks])
    return _classify(ev, static, np.ones(len(ev), dtype=int), tol_zero)


@np.errstate(over="ignore")  # an eigenvalue past the float range is refused
def _classify(ev: np.ndarray, static: np.ndarray, weight: np.ndarray,
              tol_zero: float) -> LiouvillianSpectrum:
    """The times and counts of the eigenvalues ``ev`` of a blocked generator, with ``static``
    the omega = 0 mask, ``weight`` the multiplicity of each and ``tol_zero`` (> 0) the zero cut."""
    _check_positive("tol_zero", tol_zero)
    scale = float(np.abs(ev).max(initial=0.0))
    _check_rates("the rate scale gamma max W~", scale)  # the eigenvalues of finite rates
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


@np.errstate(over="ignore", invalid="ignore")  # rates past the float range are refused
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
    on the sum of the sector sizes: at most 64 levels, N <= 14. Rates beyond the
    float range raise NonPositiveField, before the tolerance is compared.
    """
    N = _check_size("N", N)
    _check_positive("Gamma", Gamma)
    _check_positive("gamma", gamma)
    _check_beta(beta)
    _check_qome_size([((N // 2 + 1) * (N + 1 - N // 2), 1)])  # sum_J (2J + 1) levels, in O(1)
    w_dn, w_up = w = _blackbody_weight(np.array([-2.0, 2.0]) * Gamma, beta, detailed_balance=True)
    blocks, rise, fall, ladder, bohr, weight = _spin_pairs(N)
    diag = -gamma * (rise * w_dn + fall * w_up)
    off = 2 * gamma * np.sqrt(w_dn) * np.sqrt(w_up) * ladder  # of (m, n) to (m - 1, n - 1)
    _check_rates("the rate scale gamma max W~", diag, off, scale=gamma * w.max())
    if energy_tol is None:
        energy_tol = _default_energy_tol(2 * N * Gamma)
    _check_tolerance("energy tolerance", energy_tol)
    if energy_tol >= 2 * Gamma:
        raise NoDissipativeEigenvalue(f"energy_tol {energy_tol:.3g} >= the level spacing 2 Gamma")
    lam = np.empty(len(bohr))
    for rows in blocks:  # one eigvalsh per block size; it reads the lower triangle
        nb, s = rows.shape  # of each flat s x s row, fill the diagonal and the subdiagonal
        T = np.zeros((nb, s * s))
        T[:, ::s + 1], T[:, s::s + 1] = diag[rows], off[rows[:, 1:]]
        lam[rows] = np.linalg.eigvalsh(T.reshape(nb, s, s))
    omega = Gamma * bohr  # E_m - E_n
    return _classify(lam - 1j * omega, omega == 0.0, weight, tol_zero)


@functools.lru_cache(maxsize=14)  # one entry per N the QOME size rule admits
def _spin_pairs(N: int) -> tuple:
    """The level pairs (m, n) of ``uniform_spin_spectrum``, the order of its eigenvalues: the
    Jacobi blocks by size 1..N + 1 (sector J = N/2 has them all) as positions ordered by m,
    c_J(m)^2 + c_J'(n)^2, c_J(m-1)^2 + c_J'(n-1)^2, c_J(m-1) c_J'(n-1), 2(n - m), d_J d_J' (int64).
    They depend on N alone, so they are built once per N and process and returned read-only."""
    two_J, S = np.arange(N, -1, -2), N // 2 + 1
    mult = [math.comb(N, k) - (math.comb(N, k - 1) if k else 0) for k in range(S)]
    # every level (sector s, 2m = -2J, ..., 2J), every pair; so a block's positions ascend in m
    s = np.repeat(np.arange(S), two_J + 1)
    tm = np.concatenate([np.arange(-t, t + 1, 2) for t in two_J])
    i, j = (x.ravel() for x in np.indices((len(s), len(s))))
    blocks = _stacks((s[i] * S + s[j]) * (4 * N + 1) + (tm[i] - tm[j] + 2 * N))
    tJ = two_J[s]  # 4 c_J(m)^2 and 4 c_J(m-1)^2 of every level, exact integers:
    rise, fall = tJ * (tJ + 2) - tm * (tm + 2), tJ * (tJ + 2) - tm * (tm - 2)
    # exact in int64: the weights add up to 4^N, and the size rule keeps N <= 14
    weight = np.array([da * db for da in mult for db in mult], dtype=np.int64)[s[i] * S + s[j]]
    out = (tuple(blocks), (rise[i] + rise[j]) / 4, (fall[i] + fall[j]) / 4,
           np.sqrt(fall[i] * fall[j]) / 4, tm[j] - tm[i], weight)
    for x in (*out[0], *out[1:]):
        x.setflags(write=False)
    return out


def _check_member_premise(spectra: Sequence[EnergySpectrum], energy_tol: float) -> None:
    """The member route's premise: no transition frequency (positive Bohr
    frequency, classed as the generator classes it; the negative ones mirror
    them) of one member lies within ``energy_tol`` of one of another member.
    Otherwise ResonantMembers names the closest such pair and its distance.
    """
    freqs = [np.sort(list(set(rep[rep > 0.0].tolist()))) for rep in
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
    """QOME times of a mixture of distinguishable members, from the members' own spectra.

    tau_P and tau_Q are the largest member times (tau_Q None when no member has a coherence
    block). The counts are the composite's, exact ints: ``zero_multiplicity`` the product of
    the members' steady-state counts, ``tau_P_multiplicity`` each member at tau_P by its own
    count times the others' steady states. ``members`` holds each one's ``_member_spectrum``.
    It carries no eigenvalues, ``scale`` or ``tol_zero``: each member is classified on its own
    scale, and the composite's (the largest |sum of one eigenvalue per member|) lies between the
    largest member scale and their sum, so no one value is exact without the composite.
    """

    tau_P: float
    tau_Q: Optional[float]
    zero_multiplicity: int
    members: tuple
    tau_P_multiplicity: int = 1


def _mixture_spectrum(members, beta: float, tol_zero: float = TOL_ZERO) -> MixtureSpectrum:
    """QOME times and steady-state count of a mixture of ``members``: EnsembleMembers or
    (spectrum, dipoles[, count]) tuples, as ``EnsembleSpec`` takes them. Each member, with its
    copies, is solved on its own (``_member_spectrum``) at the composite's default tolerance,
    of the summed member spreads. The premise, checked first on one copy of each member (the
    one-body jumps of its copies carry its frequencies alone), refuses a resonant pair
    (ResonantMembers) before anything is built.
    """
    spec = EnsembleSpec(members, beta)
    energy_tol = _default_energy_tol(sum(m.count * float(np.ptp(m.spectrum.energies))
                                         for m in spec.members))
    _check_member_premise([m.spectrum for m in spec.members], energy_tol)
    parts = tuple(_member_spectrum(m, beta, energy_tol, tol_zero) for m in spec.members)
    tau_P = max(part.tau_P for part in parts)
    tau_Q = [part.tau_Q for part in parts if part.tau_Q is not None]
    zeros = [part.zero_multiplicity for part in parts]
    return MixtureSpectrum(
        tau_P=tau_P,
        tau_Q=max(tau_Q) if tau_Q else None,
        zero_multiplicity=math.prod(zeros),
        members=parts,
        tau_P_multiplicity=sum(part.tau_P_multiplicity * math.prod(zeros[:i] + zeros[i + 1:])
                               for i, part in enumerate(parts) if part.tau_P == tau_P),
    )


def _member_spectrum(member: EnsembleMember, beta: float, energy_tol: Optional[float],
                     tol_zero: float) -> LiouvillianSpectrum:
    """QOME spectrum of the ``member.count`` copies of one member: the total-spin sectors
    for a coupled two-level member (E_1 > E_0, D[0, 1] > 0), a spin of field (E_1 - E_0) / 2
    and coupling D[0, 1] / 2, and the composite register of the copies for any other."""
    E, D = member.spectrum.energies, member.dipole.D
    if member.spectrum.M == 2 and E[1] > E[0] and D[0, 1] > 0:
        return uniform_spin_spectrum(member.count, float(E[1] - E[0]) / 2, beta,
                                     float(D[0, 1]) / 2, energy_tol, tol_zero)
    return qome_spectrum(build_liouvillian(*_composite([member]), beta, energy_tol), tol_zero)


def _composite(members: Sequence[EnsembleMember]) -> Tuple[EnergySpectrum, DipoleData]:
    """The copies of ``members`` as one register, size-checked first: the sums of one level
    per copy, sorted stably, and the Kronecker sums of their amplitudes, permuted to match, so
    no Hamiltonian and no eigensolve. It takes the first member's gamma; member i enters with
    amplitudes times sqrt(gamma_i / gamma) (exactly 1.0 for equal couplings), keeping its D."""
    _check_qome_size([(m.spectrum.M, m.count) for m in members])
    copies = [m for m in members for _ in range(m.count)]
    gamma = members[0].dipole.gamma
    E = _product_sum([m.spectrum.energies for m in copies])
    order = np.argsort(E, kind="stable")
    scaled = [[d * math.sqrt(m.dipole.gamma / gamma) for d in m.dipole.amplitudes] for m in copies]
    d_x, d_y, d_z = (_kronecker_sum(axis)[np.ix_(order, order)] for axis in zip(*scaled))
    return (EnergySpectrum(M=len(E), energies=E[order], eigenbasis=np.eye(len(E))),
            DipoleData(d_x=d_x, d_y=d_y, d_z=d_z, gamma=gamma))


def ensemble_spectrum(spec: EnsembleSpec, energy_tol: Optional[float] = None,
                      tol_zero: float = TOL_ZERO):
    """QOME times of an ensemble by the module's rule: a LiouvillianSpectrum, or a
    MixtureSpectrum on the member route. Several members at an explicit ``energy_tol``,
    which can chain composite levels or dipole-free gaps that the member frequencies do
    not show, or with a resonant pair take one register, size-checked before it is built."""
    if len(spec.members) == 1:
        return _member_spectrum(spec.members[0], spec.beta, energy_tol, tol_zero)
    if energy_tol is None:
        try:
            return _mixture_spectrum(spec.members, spec.beta, tol_zero)
        except ResonantMembers:
            pass
    L = build_liouvillian(*_composite(spec.members), spec.beta, energy_tol)
    return qome_spectrum(L, tol_zero)


@dataclass(frozen=True)
class ComparisonReport:
    """The verdict at one ensemble size: each QOME time's relative deviation from the
    detailed-balance one, and whether it agrees within AGREE_RTOL."""

    agree_P: bool
    agree_Q: bool
    dev_P: float
    dev_Q: float


def compare(lba_times, qome) -> ComparisonReport:
    """Judge the microscopic times ``qome`` (a LiouvillianSpectrum or MixtureSpectrum) against
    the detailed-balance ``lba_times`` (anything with tau_P/tau_Q attributes) of one ensemble.

    dev = |tau_qome - tau_lba| / tau_lba; an undamped QOME coherence (tau_Q = inf) reads
    dev_Q = inf, and so does a generator without coherence blocks (tau_Q None). A series
    verdict is one call per size, ``[compare(lba(N), qome(N)) for N in Ns]``; the
    steady-state count stays the spectrum's ``zero_multiplicity``.
    """
    dev_P, dev_Q = (math.inf if q is None else abs(q - lba) / lba
                    for q, lba in ((qome.tau_P, float(lba_times.tau_P)),
                                   (qome.tau_Q, float(lba_times.tau_Q))))
    return ComparisonReport(agree_P=dev_P <= AGREE_RTOL, agree_Q=dev_Q <= AGREE_RTOL,
                            dev_P=dev_P, dev_Q=dev_Q)
