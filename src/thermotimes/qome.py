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
coherences and fix the decoherence time. All blocks are gathered at once and
solved by one batched eigensolve per size, a coherence block without its
-i omega diagonal so that its slow rates keep their own precision.

Identical spins in a uniform field take the total-spin sector route: on the
system of ``model.spin_sector_system`` (one copy of each sector J) every
Bohr block splits further by sector pair (J, J'), and each part's spectrum
counts d_J d_J' times, its multiplicity in the 2^N register (Chase &
Geremia, PRA 78, 052101, 2008). Any other system is built as a composite
register, where every block counts once.

A mixture of distinguishable members takes the member route when no
transition frequency of one member lies within ``energy_tol`` of a frequency
of another: every frequency-grouped jump operator then acts on one member,
so the generator is the Kronecker sum of the member generators and its
spectrum is the set of all sums of one eigenvalue per member. tau_P and tau_Q
are the largest member times (for distinct spin fields tau_Q = 2 max_i
tau_P,i, the decoherence pathology in closed form) and the steady states
count the product of the members' counts. ``mixture_spectrum`` builds each
member with the composite's tolerance and refuses a resonant pair. The
premise compares member frequencies only: a tolerance wide enough to merge
levels or dipole-free gaps of the composite lies outside it, so the CLI
takes this route at the default tolerance only.
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
    NonPositiveBeta,
    NoOscillatoryEigenvalue,
    ResonantMembers,
)
from .lba import _blackbody_weight
from .model import (
    DEGENERACY_RTOL,
    DegeneracyReport,
    DipoleData,
    EnergySpectrum,
    _check_positive,
    _gap_structure,
    _pair_classes,
)

#: Cap on the vectorized dimension M^2 of the Liouvillian.
LIOUVILLIAN_CAP = 4096

#: A Liouvillian eigenvalue counts as zero below TOL_ZERO * scale, with scale
#: the largest eigenvalue modulus.
TOL_ZERO = 1e-10


@dataclass(frozen=True)
class Liouvillian:
    """Generator of the quantum optical master equation, one block per Bohr frequency.

    Element (m, n) of the density matrix sits at the row-major index m*M + n.
    ``blocks`` holds one (omega, indices, matrix) entry per Bohr-frequency
    class E_m - E_n = omega (omega exactly 0 for the populations), in
    ascending omega: the indices of the class, ascending, and the generator on
    them, a view into one array that holds every block; the Kronecker deltas
    treat energies within ``energy_tol`` as equal. On a spin-sector system
    each class is split further by sector pair; ``weights`` holds the integer
    multiplicity of each block's spectrum in the full system, d_J d_J' on a
    spin-sector system and 1 on any other.
    """

    dim: int
    blocks: tuple
    energies: np.ndarray
    energy_tol: float
    beta: float
    weights: tuple

    @property
    def M(self) -> int:
        return int(math.isqrt(self.dim))

    @property
    def matrix(self) -> np.ndarray:
        """The dense M^2 x M^2 generator, scattered from the blocks."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for _, idx, block in self.blocks:
            out[np.ix_(idx, idx)] = block
        return out


def build_liouvillian(
    spec: EnergySpectrum,
    dip: DipoleData,
    beta: float,
    energy_tol: Optional[float] = None,
    sectors: Optional[tuple] = None,
) -> Liouvillian:
    """Assemble the quantum optical master equation generator, all blocks in one pass.

    A stable sort groups the indices by block and one gather yields all their
    entries, with no loop over blocks. The spectrum may be degenerate. Within a
    Bohr-frequency class the dissipator consists of two escape sums gated by
    equality of level energies and a feeding term gated by equality of
    transition frequencies, all with the blackbody weight W~ and the squared
    coupling gamma carried by the dipole data; the coherent part is -i omega.
    Coefficients are evaluated on per-class representative energies, so gating
    and weights never disagree.

    ``sectors`` = (sector of each level, multiplicity of each sector), as
    returned by :func:`spin_sector_system`, splits every class by the sector
    pair (sector(m), sector(n)) and weights each part by the product of the
    two multiplicities. The split is exact: the dipoles are block diagonal by
    sector, so no entry couples two sector pairs.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise NonPositiveBeta(f"beta must be positive and finite, got {beta}")
    M = spec.M
    if dip.M != M:
        raise DimensionMismatch(
            f"dipole dimension {dip.M} does not match spectrum dimension {M}"
        )
    if M * M > LIOUVILLIAN_CAP:
        raise CapExceeded(f"vectorized dimension {M * M} exceeds cap {LIOUVILLIAN_CAP}")
    E = spec.energies
    if energy_tol is None:
        energy_tol = DEGENERACY_RTOL * max(float(E[-1] - E[0]), 1.0)

    lev_ids, gap_ids, gap_rep = _gap_structure(E, energy_tol)
    Wt = _blackbody_weight(gap_rep, beta, detailed_balance=True)
    gamma = dip.gamma

    # escape coefficients Phi[k, m] = gamma sum_h sum_q d_h[q, k] conj(d_h[q, m]) W~[q, m]
    Phi = np.zeros((M, M), dtype=complex)
    for d in dip.amplitudes:
        Phi += d.T @ (np.conj(d) * Wt)
    Phi *= gamma
    Phi_gated = Phi * (lev_ids[:, None] == lev_ids[None, :])

    # one block per Bohr class, on a spin-sector system one per class and sector pair
    level_sector, mult = sectors if sectors is not None else (np.zeros(M, dtype=int), (1,))
    S = len(mult)
    pair_of = (level_sector[:, None] * S + level_sector[None, :]).ravel()
    key = gap_ids.ravel() * S * S + pair_of
    order = np.argsort(key, kind="stable")
    keys, starts, sizes = np.unique(key[order], return_index=True, return_counts=True)
    # all entries at once: entry p of row r (the r-th sorted index) reads column p - shift[r];
    # row (m, n) receives from column (k, j), gathered by the flat indices mm = (m, k), nn = (n, j)
    m, n = np.divmod(order, M)
    width = np.repeat(sizes, sizes)
    shift = np.cumsum(width) - width - np.repeat(starts, sizes)
    col = np.arange(width.sum()) - np.repeat(shift, width)
    mm, nn = np.repeat(m * M, width) + m[col], np.repeat(n * M, width) + n[col]
    same = np.eye(M, dtype=bool).ravel()  # same[mm] is m == k
    # feeding term gamma sum_h d_h[m, k] conj(d_h[n, j]) W~[m, k], gated on
    # equal transition frequencies E_k - E_m = E_j - E_n; einsum rounds the
    # complex products like the dense outer product einsum("mk,nj->mnkj")
    entries = np.zeros(len(col), dtype=complex)
    for d in dip.amplitudes:
        entries += gamma * np.einsum("i,i->i", (d * Wt).ravel()[mm], np.conj(d).ravel()[nn])
    entries *= gap_ids.T.ravel()[mm] == gap_ids.T.ravel()[nn]
    entries -= 0.5 * Phi_gated.T.ravel()[mm] * same[nn]
    entries -= 0.5 * Phi_gated.conj().T.ravel()[nn] * same[mm]
    entries[np.arange(M * M) + shift] += -1.0j * gap_rep.ravel()[order]  # the diagonals
    omegas, ends = gap_rep.ravel()[order[starts]], np.cumsum(sizes * sizes)
    blocks = tuple(
        (omega, order[start:start + size], entries[end - size * size:end].reshape(size, size))
        for omega, start, size, end in zip(*(x.tolist() for x in (omegas, starts, sizes, ends)))
    )
    weights = tuple(mult[p // S] * mult[p % S] for p in (keys % (S * S)).tolist())

    return Liouvillian(
        dim=M * M,
        blocks=blocks,
        energies=E.copy(),
        energy_tol=float(energy_tol),
        beta=float(beta),
        weights=weights,
    )


def jump_operator_groups(
    energies: Sequence[float], tol: Optional[float] = None
) -> list:
    """Group the ordered index pairs (m, n), m != n, by transition frequency.

    The microscopic jump operator at frequency omega collects every dyad
    |m><n| with E_n - E_m = omega, classed as the generator classes its gaps;
    a group with more than one pair is exactly the multi-dyad situation
    produced by level or gap degeneracies. Returns (omega, pairs) entries
    sorted by omega.
    """
    E = np.asarray(energies, dtype=float)
    if len(E) < 2:
        return []
    if tol is None:
        tol = DEGENERACY_RTOL * max(float(E.max() - E.min()), 1.0)
    _, gap_ids, gap_rep = _gap_structure(E, tol)
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
    spectra in block order, each once; the two multiplicities count every
    eigenvalue with its block's weight (exact integers).
    """

    eigenvalues: np.ndarray
    zero_multiplicity: int
    tau_P: Optional[float]
    tau_Q: Optional[float]
    tol_zero: float
    scale: float
    tau_P_multiplicity: int = 1


def qome_spectrum(
    L: Liouvillian,
    tol_zero: float = TOL_ZERO,
    require_oscillatory: bool = False,
) -> LiouvillianSpectrum:
    """Diagonalize the Liouvillian per block size and extract the characteristic times.

    Raises NoDissipativeEigenvalue when the omega = 0 block has no nonzero
    eigenvalue (e.g. a decoupled system); a missing oscillatory block is
    reported as tau_Q = None unless ``require_oscillatory`` is set, and
    NonPositiveField unless ``tol_zero`` is finite and > 0.
    """
    _check_positive("tol_zero", tol_zero)
    omegas, sizes = map(np.array, zip(*((omega, len(idx)) for omega, idx, _ in L.blocks)))
    ev = np.empty(sizes.sum(), dtype=complex)
    # one batched eigensolve per block size, eigenvalues put back in block order;
    # a coherence block is solved with its -i omega diagonal taken out, so that a
    # slow rate is not lost to round-off of |omega| (the populations go as they are)
    for size in np.unique(sizes):
        k = np.flatnonzero(sizes == size)
        stack = np.stack([L.blocks[i][2] for i in k])
        osc, diag, shift = np.flatnonzero(omegas[k]), np.arange(size), 1j * omegas[k, None]
        stack[osc[:, None], diag, diag] += shift[osc]
        ev[(np.cumsum(sizes) - size)[k, None] + diag] = np.linalg.eigvals(stack) - shift
    static = np.repeat(omegas == 0.0, sizes)
    # Python-int weights keep the counts exact however large d_J d_J' grows
    weight = np.repeat(np.array(L.weights, dtype=object), sizes)
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
    elif require_oscillatory:
        raise NoOscillatoryEigenvalue(
            "no eigenvalue with nonzero imaginary part: decoherence time undefined"
        )
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


def _member_tolerance(spectra: Sequence[EnergySpectrum], energy_tol: Optional[float] = None) -> float:
    """The energy tolerance of a mixture of these spectra, once the member route's premise holds.

    The tolerance defaults to the composite's, DEGENERACY_RTOL * max(spread, 1),
    the mixture's spread being the sum of the member spreads. The premise is
    that no transition frequency (positive Bohr frequency, classed as the
    generator classes it; the negative ones mirror them) of one member lies
    within the tolerance of one of another member; otherwise ResonantMembers
    names the closest such pair and its distance.
    """
    if not spectra:
        raise EmptyEnsemble("a mixture needs at least one member")
    if energy_tol is None:
        spread = sum(float(spec.energies[-1] - spec.energies[0]) for spec in spectra)
        energy_tol = DEGENERACY_RTOL * max(spread, 1.0)
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
    return energy_tol


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
    energy_tol: Optional[float] = None,
    tol_zero: float = TOL_ZERO,
) -> MixtureSpectrum:
    """QOME times and steady-state count of a mixture, one (spectrum, dipoles) per member.

    Each member generator is built with the mixture's tolerance and solved on
    its own; the premise is checked first, so a resonant pair raises
    ResonantMembers before anything is built.
    """
    energy_tol = _member_tolerance([spec for spec, _ in members], energy_tol)
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

    lba_times: Tuple[float, float]
    qome_times: Tuple[Optional[float], Optional[float]]
    degeneracy: DegeneracyReport
    agree_P: bool
    agree_Q: bool
    dev_P: Optional[float]
    dev_Q: Optional[float]
    pathology_flags: PathologyFlags


def compare(
    lba_times,
    qome: LiouvillianSpectrum,
    deg: DegeneracyReport,
    agree_tol: float = 1e-6,
    qome_series: Optional[Sequence[Tuple[int, float, float]]] = None,
) -> ComparisonReport:
    """Compare detailed-balance times against the microscopic spectrum.

    ``lba_times`` is anything with tau_P/tau_Q attributes. ``qome_series``
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
    agree_P = dev_P is not None and dev_P <= agree_tol
    agree_Q = dev_Q is not None and dev_Q <= agree_tol

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
        lba_times=(lP, lQ),
        qome_times=(qP, qQ),
        degeneracy=deg,
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
