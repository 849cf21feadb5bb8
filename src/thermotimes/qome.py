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
frequency (Buca & Prosen, NJP 14, 073007, 2012) and is built and diagonalized
one block at a time: the omega = 0 block holds the populations and fixes the
dissipation time, the other blocks hold the coherences and fix the
decoherence time.

Identical spins in a uniform field take the total-spin sector route: on the
system of ``model.spin_sector_system`` (one copy of each sector J) every
Bohr block splits further by sector pair (J, J'), and each part's spectrum
counts d_J d_J' times, its multiplicity in the 2^N register (Chase &
Geremia, PRA 78, 052101, 2008). Any other system is built as a composite
register, where every block counts once.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CapExceeded,
    DimensionMismatch,
    NoDissipativeEigenvalue,
    NonPositiveBeta,
    NoOscillatoryEigenvalue,
)
from .lba import _blackbody_weight
from .model import (
    DEGENERACY_RTOL,
    DegeneracyReport,
    DipoleData,
    EnergySpectrum,
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
    ascending omega: the indices of the class and the generator on them; the
    Kronecker deltas treat energies within ``energy_tol`` as equal. On a
    spin-sector system each class is split further by sector pair, and
    ``weights`` holds the integer multiplicity d_J d_J' of each block's
    spectrum in the full system (None: every block counts once).
    """

    dim: int
    blocks: tuple
    energies: np.ndarray
    energy_tol: float
    beta: float
    weights: Optional[tuple] = None

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
    """Assemble the quantum optical master equation generator block by block.

    The spectrum may be degenerate. Within a Bohr-frequency class the
    dissipator consists of two escape sums gated by equality of level energies
    and a feeding term gated by equality of transition frequencies, all with
    the blackbody weight W~ and the squared coupling gamma carried by the
    dipole data; the coherent part is -i omega. Coefficients are evaluated on
    per-class representative energies, so gating and weights never disagree.

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
    Phi_gated_conj = Phi_gated.conj()
    feeding = [(d * Wt, np.conj(d)) for d in dip.amplitudes]

    # one block per Bohr class, on a spin-sector system one per class and sector pair
    level_sector, mult = sectors if sectors is not None else (np.zeros(M, dtype=int), (1,))
    S = len(mult)
    pair_of = (level_sector[:, None] * S + level_sector[None, :]).ravel()
    key = gap_ids.ravel() * S * S + pair_of
    blocks, weights = [], []
    for c in np.unique(key):
        idx = np.flatnonzero(key == c)
        m, n = np.divmod(idx, M)
        # row a = (m, n) receives from column b = (k, j)
        m_a, m_b, n_a, n_b = m[:, None], m[None, :], n[:, None], n[None, :]
        # feeding term gamma sum_h d_h[m, k] conj(d_h[n, j]) W~[m, k], gated on
        # equal transition frequencies E_k - E_m = E_j - E_n; einsum rounds the
        # complex products like the dense outer product einsum("mk,nj->mnkj")
        block = np.zeros((len(idx), len(idx)), dtype=complex)
        for dW, d_conj in feeding:
            block += gamma * np.einsum("ab,ab->ab", dW[m_a, m_b], d_conj[n_a, n_b])
        block *= gap_ids[m_b, m_a] == gap_ids[n_b, n_a]
        block -= 0.5 * Phi_gated[m_b, m_a] * (n_a == n_b)
        block -= 0.5 * Phi_gated_conj[n_b, n_a] * (m_a == m_b)
        block[np.diag_indices(len(idx))] += -1.0j * gap_rep[m, n]
        blocks.append((float(gap_rep[m[0], n[0]]), idx, block))
        weights.append(mult[c % (S * S) // S] * mult[c % S])

    return Liouvillian(
        dim=M * M,
        blocks=tuple(blocks),
        energies=E.copy(),
        energy_tol=float(energy_tol),
        beta=float(beta),
        weights=tuple(weights),
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
    """Diagonalize the Liouvillian block by block and extract the characteristic times.

    Raises NoDissipativeEigenvalue when the omega = 0 block has no nonzero
    eigenvalue (e.g. a decoupled system); a missing oscillatory block is
    reported as tau_Q = None unless ``require_oscillatory`` is set.
    """
    ev = np.concatenate([np.linalg.eigvals(block) for _, _, block in L.blocks])
    static = np.concatenate([np.full(len(idx), omega == 0.0) for omega, idx, _ in L.blocks])
    weights = L.weights if L.weights is not None else (1,) * len(L.blocks)
    # Python-int weights keep the counts exact however large d_J d_J' grows
    weight = np.repeat(np.array(weights, dtype=object), [len(idx) for _, idx, _ in L.blocks])
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
