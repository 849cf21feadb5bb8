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
    equality_classes,
)

#: Default cap on the vectorized dimension M^2 of the dense Liouvillian.
LIOUVILLIAN_CAP = 4096

#: Relative thresholds classifying Liouvillian eigenvalues: an eigenvalue is
#: "zero" below TOL_ZERO * scale and "oscillatory" when its imaginary part
#: exceeds TOL_IMAG * scale, with scale the largest eigenvalue modulus.
TOL_ZERO = 1e-10
TOL_IMAG = 1e-8


@dataclass(frozen=True)
class Liouvillian:
    """Dense generator of the quantum optical master equation.

    Vectorization is row-major: element (m, n) of the density matrix sits at
    index m*M + n. ``level_class_ids`` and ``gap_class_ids`` record which
    energies and which gaps the Kronecker deltas treated as equal (within
    ``energy_tol``); ``rep_energies`` are the per-class representative
    energies actually used in the coefficients.
    """

    dim: int
    matrix: np.ndarray
    energies: np.ndarray
    rep_energies: np.ndarray
    level_class_ids: np.ndarray
    gap_class_ids: np.ndarray
    energy_tol: float
    beta: float

    @property
    def M(self) -> int:
        return int(math.isqrt(self.dim))


def _gap_structure(energies: np.ndarray, tol: float):
    """Level classes, representative energies and gap classes for the deltas.

    Representative energies make intended-equal quantities exactly equal, so
    the delta gating, the thermal weights and the coherent frequencies can
    never disagree with each other.
    """
    lev_ids = equality_classes(energies, tol)
    rep = np.empty_like(energies, dtype=float)
    for c in np.unique(lev_ids):
        rep[lev_ids == c] = energies[lev_ids == c].mean()
    gaps = rep[:, None] - rep[None, :]
    gap_ids = equality_classes(gaps.ravel(), tol).reshape(gaps.shape)
    gap_rep = np.empty_like(gaps)
    zero_class = gap_ids[0, 0]  # the class holding the diagonal (zero) gaps
    for c in np.unique(gap_ids):
        mask = gap_ids == c
        gap_rep[mask] = 0.0 if c == zero_class else gaps[mask].mean()
    return lev_ids, rep, gap_ids, gap_rep


def build_liouvillian(
    spec: EnergySpectrum,
    dip: DipoleData,
    beta: float,
    energy_tol: Optional[float] = None,
    cap: int = LIOUVILLIAN_CAP,
) -> Liouvillian:
    """Assemble the M^2 x M^2 quantum optical master equation generator.

    The spectrum may be degenerate. The dissipator consists of two escape
    sums gated by equality of level energies and a feeding term gated by
    equality of energy gaps, all with the blackbody weight W~ and the squared
    coupling gamma carried by the dipole data. Coefficients (including the
    coherent frequencies) are evaluated on per-class representative energies,
    so gating and weights can never disagree; see Liouvillian.rep_energies.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise NonPositiveBeta(f"beta must be positive and finite, got {beta}")
    M = spec.M
    if dip.M != M:
        raise DimensionMismatch(
            f"dipole dimension {dip.M} does not match spectrum dimension {M}"
        )
    if M * M > cap:
        raise CapExceeded(f"vectorized dimension {M * M} exceeds cap {cap}")
    E = spec.energies
    if energy_tol is None:
        energy_tol = DEGENERACY_RTOL * max(float(E[-1] - E[0]), 1.0)

    lev_ids, rep, gap_ids, gap_rep = _gap_structure(E, energy_tol)
    Wt = _blackbody_weight(gap_rep, beta, detailed_balance=True)
    gamma = dip.gamma
    same_level = lev_ids[:, None] == lev_ids[None, :]

    # escape coefficients Phi[k, m] = gamma sum_h sum_q d_h[q, k] conj(d_h[q, m]) W~[q, m]
    Phi = np.zeros((M, M), dtype=complex)
    for d in dip.amplitudes:
        Phi += d.T @ (np.conj(d) * Wt)
    Phi *= gamma
    Phi_gated = Phi * same_level

    # feeding term gamma sum_h d_h[m, k] conj(d_h[n, j]) W~[m, k], gated on equal gaps
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

    return Liouvillian(
        dim=M * M,
        matrix=L4.reshape(M * M, M * M),
        energies=E.copy(),
        rep_energies=rep,
        level_class_ids=lev_ids,
        gap_class_ids=gap_ids,
        energy_tol=float(energy_tol),
        beta=float(beta),
    )


def jump_operator_groups(
    energies: Sequence[float], tol: Optional[float] = None
) -> list:
    """Group the ordered index pairs (m, n), m != n, by transition frequency.

    The microscopic jump operator at frequency omega collects every dyad
    |m><n| with E_n - E_m = omega; a group with more than one pair is exactly
    the multi-dyad situation produced by level or gap degeneracies. Returns
    (omega, pairs) entries sorted by omega.
    """
    E = np.asarray(energies, dtype=float)
    M = len(E)
    if tol is None:
        tol = DEGENERACY_RTOL * max(float(E.max() - E.min()), 1.0) if M else 0.0
    pairs = [(m, n) for m in range(M) for n in range(M) if m != n]
    if not pairs:
        return []
    omegas = np.array([E[n] - E[m] for m, n in pairs])
    ids = equality_classes(omegas, tol)
    groups = []
    for c in range(ids.max() + 1):
        idx = np.flatnonzero(ids == c)
        groups.append((float(omegas[idx].mean()), tuple(pairs[i] for i in idx)))
    groups.sort(key=lambda g: g[0])
    return groups


@dataclass(frozen=True)
class LiouvillianSpectrum:
    """Classified eigenvalues of the quantum optical master equation generator.

    tau_P comes from the real eigenvalue of smallest nonzero modulus (which
    may itself be degenerate: ``tau_P_multiplicity`` counts the copies),
    tau_Q from the eigenvalue of smallest |Re| among those with nonzero
    imaginary part; tau_Q is None when no oscillatory eigenvalue exists and
    infinite when the slowest oscillatory mode is undamped.
    """

    eigenvalues: np.ndarray
    zero_multiplicity: int
    tau_P: Optional[float]
    tau_Q: Optional[float]
    classification_tols: Tuple[float, float]
    scale: float
    tau_P_multiplicity: int = 1


def qome_spectrum(
    L: Liouvillian,
    tol_zero: float = TOL_ZERO,
    tol_imag: float = TOL_IMAG,
    require_oscillatory: bool = False,
) -> LiouvillianSpectrum:
    """Diagonalize the Liouvillian and extract the characteristic times.

    Raises NoDissipativeEigenvalue when no real nonzero eigenvalue exists
    (e.g. a decoupled system); a missing oscillatory eigenvalue is reported
    as tau_Q = None unless ``require_oscillatory`` is set.
    """
    ev = np.linalg.eigvals(L.matrix)
    scale = float(np.abs(ev).max()) if len(ev) else 0.0
    if scale == 0.0:
        raise NoDissipativeEigenvalue("the generator vanishes identically")
    zero = np.abs(ev) < tol_zero * scale
    real = (np.abs(ev.imag) < tol_imag * scale) & ~zero
    osc = np.abs(ev.imag) >= tol_imag * scale

    if not real.any():
        raise NoDissipativeEigenvalue(
            "no real nonzero eigenvalue: dissipation time undefined"
        )
    slowest_real = float(np.abs(ev[real].real).min())
    tau_P = 1.0 / slowest_real
    tau_P_mult = int(
        np.sum(np.abs(np.abs(ev[real].real) - slowest_real) <= tol_zero * scale)
    )

    tau_Q: Optional[float]
    if osc.any():
        slowest = float(np.abs(ev[osc].real).min())
        tau_Q = math.inf if slowest < tol_zero * scale else 1.0 / slowest
    elif require_oscillatory:
        raise NoOscillatoryEigenvalue(
            "no eigenvalue with nonzero imaginary part: decoherence time undefined"
        )
    else:
        tau_Q = None

    return LiouvillianSpectrum(
        eigenvalues=ev,
        zero_multiplicity=int(zero.sum()),
        tau_P=tau_P,
        tau_Q=tau_Q,
        classification_tols=(tol_zero, tol_imag),
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
