"""Ensembles of N noninteracting, distinguishable systems.

In the product eigenbasis the dipole amplitudes decouple system by system,
the ensemble rate matrix is the Kronecker sum of the member rate matrices,
and the product-space escape rates are sums of member escape rates. Two
routes are provided: closed forms valid for any N (production path) and the
explicit product-space construction (verification path, capped in size).
The verification path reads mu2 from the Kronecker sum S: a dense numpy
eigensolve for small products, and above DENSE_EIG_LIMIT a plain three-term
Lanczos recurrence (no restarts, no reorthogonalization) for the smallest
eigenvalue of S with the exact null vector sqrt(Gibbs) shifted out of the way;
there S is never formed but applied block by block through numpy's matrix
product, the vector updates are in-place numpy, and the tridiagonal Ritz pairs
come from a pure-Python twisted-factorization kernel (``_smallest_ritz_pair``).
Both routes run on numpy alone; nothing here imports scipy.
"""

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DetailedBalanceViolation,
    DimensionMismatch,
    EmptyEnsemble,
    NoConvergence,
)
from .lba import (
    gibbs_state,
    pauli_matrix,
    thermal_rates,
    thermalization_times,
)
from .model import (
    DipoleData,
    EnergySpectrum,
    _check_beta,
    _check_positive,
    _check_product_size,
    _check_rates,
    _check_size,
    _kronecker_sum,
    _product_sum,
)

#: Cap on the product dimension prod_i M_i^n_i of the explicit route (``lba_numeric``).
NUMERIC_CAP = 8192

#: Above this dimension the explicit path switches from a dense numpy eigensolve to a
#: Lanczos recurrence for the smallest eigenvalue of the Gibbs-deflated S, on numpy alone
#: like the dense one. A dense eigvalsh at 128 or 256 wakes numpy's OpenBLAS thread pool,
#: whose worker then spins for about 0.1 s (a table job without the QOME took 0.17 CPU-s
#: for 0.09 s of wall time at 256, as much CPU as wall at 64); Lanczos does not (BLOCK_LIMIT).
DENSE_EIG_LIMIT = 64

#: Largest dimension of one dense block of the Lanczos S (``_kronecker_operator``): every
#: GEMM of a product then has m n k <= 32 NUMERIC_CAP = 2^18, under which OpenBLAS stays on
#: the calling thread (blocks of 64 and 128 at N = 13 woke its worker, which spun: process
#: CPU 1.98 times wall time). A member of M > 32 levels is a block alone, so in a product
#: of dimension above 2^18 / M it can still wake the pool.
BLOCK_LIMIT = 32

#: The Gibbs null vector q of S must satisfy |S q|_inf <= this fraction of the
#: Gershgorin bound; detailed balance makes the residual a rounding error.
NULL_VECTOR_RTOL = 1e-10

#: Passes over the tridiagonal after which ``_smallest_ritz_pair`` gives up: bisection
#: alone halves a bracket of 2 max|beta| to 2 eps ||T|| in about 53.
_RITZ_MAX_PASSES = 128


@dataclass(frozen=True)
class EnsembleMember:
    """One species in the ensemble: spectrum, dipole data and copy count (an integer >= 1).

    ``_analyses`` keeps the member's analysis per beta (``_member_analysis``); it is out of
    comparison, repr and positional construction, and ``dataclasses.replace`` passes it on."""

    spectrum: EnergySpectrum
    dipole: DipoleData
    count: int = 1
    _analyses: dict = field(default_factory=dict, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "count", _check_size("member count", self.count, EmptyEnsemble))
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
        _check_beta(self.beta)
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
    """Per-member (member, rates, pm, tt) at the spec's beta. A member's memo entry for beta,
    (spectrum, dipole, rates, pm, tt), is read only if it holds the member's own spectrum and
    dipole objects: a ``replace`` of the count reuses it, one of the spectrum or dipole not."""
    out = []
    for member in spec.members:
        entry = member._analyses.get(spec.beta)
        if entry is None or entry[0] is not member.spectrum or entry[1] is not member.dipole:
            rates = thermal_rates(member.spectrum, member.dipole, spec.beta)
            pm = pauli_matrix(rates, member.spectrum)
            entry = (member.spectrum, member.dipole, rates, pm, thermalization_times(pm, rates))
            member._analyses[spec.beta] = entry
        out.append((member, *entry[2:]))
    return out


def ensemble_times(spec: EnsembleSpec) -> EnsembleTimes:
    """Closed-form ensemble times from the member decompositions.

    The Kronecker-sum spectrum makes the slowest population rate the smallest
    member mu2, independent of the counts. The slowest coherence decays at
    half the smallest sum of two distinct product-space escape rates, i.e.
    tau_Q = 2 / (2 sum_i n_i B_min,i + min_i (B_second,i - B_min,i)); for N
    equal members this is 2 / ((2N-1) B_(1) + B_(2)). Each member is analysed by the
    first entry call that reads it at this beta (``_member_analysis``).
    """
    parts = _member_analysis(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is refused
        mu2s = np.array([tt.mu2 for _, _, _, tt in parts])
        B_min_total = sum(m.count * tt.B1 for m, _, _, tt in parts)
        min_second_gap = min(tt.B2 - tt.B1 for _, _, _, tt in parts)
        _check_rates("the member escape rates", 2.0 * B_min_total + min_second_gap)
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


def _kronecker_operator(mats: Sequence[np.ndarray]):
    """(x -> S x, c) for the Kronecker sum S of ``mats``, never formed: c is the largest
    absolute row sum of S, |product sum of the block diagonals| + product sum of the
    blocks' off-diagonal absolute row sums.

    The factors are split, in order, into consecutive groups of dimension at most
    BLOCK_LIMIT (a larger factor alone), as even as the limit allows: a group opened
    with ``rest`` levels left, which need k groups, stops before its dimension g has
    g^k > rest (13 spins: 16, 16, 32, not 32, 32, 8). A group's block A is its
    ``model._kronecker_sum`` (one factor is its own block), and S x is the sum over
    the blocks of (I (x) A (x) I) x, one matmul each on a view of x: A @ X.reshape(d,
    right) for the first block, A @ X.reshape(left, d, right), batched over left, for a
    middle one, X.reshape(left, d) @ A.T for the last, A.T copied C-contiguous once (BLAS's
    NN product took 9.7 us where the transposed view's took 16 at N = 13). Each matmul
    writes into a buffer of its own, allocated once, and the later ones are added in
    place into the first's, in block order. The returned S x is that buffer, overwritten
    by the next call."""
    groups, rest = [], math.prod(len(X) for X in mats)
    for X in mats:
        grown = len(X) * math.prod(len(Y) for Y in groups[-1]) if groups else math.inf
        if grown > BLOCK_LIMIT or grown**k > start:
            k, start = next(k for k in itertools.count(1) if BLOCK_LIMIT**k >= rest), rest
            groups.append([])
        groups[-1].append(X)
        rest //= len(X)
    blocks = [g[0] if len(g) == 1 else _kronecker_sum(g) for g in groups]
    dim, left, terms = math.prod(len(A) for A in blocks), 1, []
    for A in blocks:
        right = dim // (left * len(A))
        if right == 1:
            terms.append(((left, len(A)), np.ascontiguousarray(A.T), False))
        else:
            terms.append(((len(A), right) if left == 1 else (left, len(A), right), A, True))
        left *= len(A)
    off = [np.abs(A - np.diag(np.diag(A))).sum(axis=1) for A in blocks]
    c = float((np.abs(_product_sum([np.diag(A) for A in blocks])) + _product_sum(off)).max())
    outs = [np.empty(shape) for shape, *_ in terms]
    y, rest = outs[0].reshape(dim), [out.reshape(dim) for out in outs[1:]]

    def apply(x):
        for (shape, B, first), out in zip(terms, outs):
            if first:
                np.matmul(B, x.reshape(shape), out)
            else:
                np.matmul(x.reshape(shape), B, out)
        for term in rest:
            np.add(y, term, y)
        return y

    return apply, c


def _deterministic_start(dim: int) -> np.ndarray:
    # fixed Lanczos start vector: results must be reproducible bit for bit
    v0 = 1.0 + 0.01 * np.cos(np.arange(dim))
    return v0 / np.linalg.norm(v0)


def _sweep(diagonal, beta2, x: float, pivmin: float):
    """Pivots of T - x from one end of the tridiagonal towards the twist row r, in that
    order: ``diagonal`` holds the rows before r, ``beta2`` the squared couplings of each
    to the next, the last one to r.

    The pivots are d_1 = alpha_1 - x and d_i = alpha_i - x - beta_(i-1)^2 / d_(i-1), one
    smaller than ``pivmin`` in modulus taken as -pivmin (as LAPACK's dstebz takes it); each
    d_i' = -1 + beta_(i-1)^2 d_(i-1)' / d_(i-1)^2. The null vector of the factorization
    has z_1 = 1 and z_(i+1) = -d_i z_i / beta_i: a product of pivots. Returns the number
    of negative pivots, the last one's index (-1 for none), the term t = beta^2 / d the
    twist subtracts and -t', z_r^2, the sum of z_i^2 before r, and the largest z_i^2 and
    its index.
    """
    d, dd, zz, total, peak, at, neg, last = diagonal[0] - x, -1.0, 1.0, 1.0, 1.0, 0, 0, -1
    i = 0
    for a, b2 in zip(diagonal[1:], beta2):
        if d < pivmin:
            if d > -pivmin:
                d = -pivmin
            neg, last = neg + 1, i
        i += 1
        t = b2 / d
        zz *= d * d / b2
        total += zz
        if zz > peak:
            peak, at = zz, i
        dd = t / d * dd - 1.0
        d = a - x - t
    if d < pivmin:
        if d > -pivmin:
            d = -pivmin
        neg, last = neg + 1, i
    t = beta2[-1] / d
    zz *= d * d / beta2[-1]
    return neg, last, t, t / d * dd, max(zz, sys.float_info.min), total, peak, at


def _pivots(alpha, beta2, x: float, pivmin: float, r: int):
    """One pass over the unreduced tridiagonal T - x, factored twisted at row r.

    ``_sweep`` runs down to row r and up to it. The twist gamma_r = alpha_r - x minus the
    terms of both sweeps is 1 / (T - x)^-1_rr, zero at the eigenvalues of T, and gamma_r'
    is -1 plus the terms' derivatives. Its null vector, z_r = 1, joins the two sweeps'
    vectors, both built towards r, so a tiny |z_k| keeps its relative accuracy when |z_r|
    is not small. Returns the number of negative pivots of the factorization (the
    eigenvalues of T below x), gamma_r, gamma_r', s = |z_k| / |z| and the row where |z|
    peaks, or, when gamma_r is not the one negative pivot, the row of the one that is.
    """
    k = len(alpha)
    no_sweep = (0, -1, 0.0, 0.0, 1.0, 0.0, 0.0, 0)
    top = _sweep(alpha[:r], beta2[:r], x, pivmin) if r > 0 else no_sweep
    bottom = _sweep(alpha[:r:-1], beta2[r:][::-1], x, pivmin) if r < k - 1 else no_sweep
    neg_up, last_up, t_up, dt_up, zr2_up, sum_up, peak_up, at_up = top
    neg_dn, last_dn, t_dn, dt_dn, zr2_dn, sum_dn, peak_dn, at_dn = bottom
    gamma = alpha[r] - x - t_up - t_dn
    if -pivmin < gamma < pivmin:
        gamma = -pivmin
    neg = neg_up + neg_dn + (gamma < 0.0)
    # squares relative to z_r = 1: the sweep from the top has z_1 = 1, the other z_k = 1
    above, below, z_k2 = sum_up / zr2_up, sum_dn / zr2_dn, 1.0 / zr2_dn
    norm2 = 1.0 + above + below
    s = math.sqrt(z_k2 / norm2) if norm2 < math.inf else 0.0
    peak_up, peak_dn = peak_up / zr2_up, peak_dn / zr2_dn
    if neg == 1 and gamma > 0.0:
        peak = last_up if neg_up else k - 1 - last_dn
    elif max(peak_up, peak_dn) <= 1.0:
        peak = r
    else:
        peak = at_up if peak_up >= peak_dn else k - 1 - at_dn
    return neg, gamma, -1.0 + dt_up + dt_dn, s, peak


def _smallest_ritz_pair(alpha, beta2, x=None, loose=False, twist=0):
    """Smallest eigenvalue theta of the symmetric tridiagonal T with diagonal ``alpha``
    and squared off-diagonal ``beta2`` (sequences of Python floats), the modulus s of the
    last component of its unit eigenvector, and the row where that eigenvector peaks.

    Each pass is one ``_pivots`` at a trial point x, twisted at the peak row of the last
    pass (``twist`` for the first). Its negative-pivot count brackets theta (dstebz's
    Sturm count) inside [min(alpha) - 2 max|beta|, min(alpha)]. Below the poles of the
    twist gamma_r, gamma_r is concave and decreasing, so from x above theta, where gamma_r
    is the one negative pivot, the Newton step x - gamma_r / gamma_r' lands in [theta, x],
    and from x below theta it lands above theta; a trial point outside the bracket halves
    it instead. ``x`` is the first trial point
    (a Lanczos caller's last theta: Ritz values only fall as the tridiagonal grows). The
    solve stops when a Newton step is at most 2 eps ||T|| + pivmin at the peak row, or,
    if ``loose``, after the first step down to theta. A zero beta^2 splits T into blocks
    solved alone; s is 0 unless theta is the bottom block's. Raises NoConvergence after
    _RITZ_MAX_PASSES passes.
    """
    k = len(alpha)
    if 0.0 in beta2:
        ends = [i + 1 for i, b2 in enumerate(beta2) if b2 == 0.0] + [k]
        blocks = [(_smallest_ritz_pair(alpha[u:v], beta2[u:v - 1]), v)
                  for u, v in zip([0] + ends, ends)]
        (theta, s, _), v = min(blocks, key=lambda block: block[0][0])
        return theta, s if v == k else 0.0, 0
    if k == 1:
        return alpha[0], 1.0, 0
    pivmin = sys.float_info.min * max(1.0, max(beta2))
    hi, bound = min(alpha), 2.0 * math.sqrt(max(beta2))
    lo = hi - bound
    prec = 2.0 * sys.float_info.epsilon * (max(max(alpha), -hi) + bound) + pivmin
    x, r, at_hi = (hi if x is None else min(x, hi)), min(twist, k - 1), None
    for _ in range(_RITZ_MAX_PASSES):
        neg, gamma, dgamma, s, peak = _pivots(alpha, beta2, x, pivmin, r)
        if neg == 0:
            lo = x
        else:
            hi, at_hi = x, (x, s, peak)
        if neg == 0 or (neg == 1 and gamma < 0.0):  # x below theta, or between it and a pole
            step = gamma / dgamma
            if (loose and neg) or (abs(step) <= prec and peak == r):
                return x - step, s, peak
            x -= step
        r = peak
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if hi - lo <= prec and at_hi is not None:
            return at_hi
    raise NoConvergence(
        f"the Ritz pair of the {k} x {k} Lanczos tridiagonal did not converge in "
        f"{_RITZ_MAX_PASSES} passes"
    )


def _lanczos_smallest(apply, v, scale: float, max_steps: int) -> float:
    """Smallest eigenvalue of the symmetric operator ``apply``, whose norm ``scale`` bounds.

    Plain three-term Lanczos from the unit vector ``v``: no restarts and no
    reorthogonalization. The tridiagonal's alpha and beta^2 are kept as Python floats,
    and the vector updates run in place on numpy buffers: w = apply(v) - beta v_prev,
    alpha = v.w, w -= alpha v, beta = |w|, v_prev = w / beta. Every five steps, and at
    once when beta_j itself falls to the tolerance (an invariant subspace), the smallest
    Ritz pair (theta, s) of the tridiagonal comes from ``_smallest_ritz_pair``,
    warm-started at the last theta and twist row: loosely, and to full precision once
    the Ritz estimate |beta_j s_j| is within 100 tolerances. theta is returned once that
    estimate is at most sqrt(n) eps scale; even after orthogonality is lost, it bounds
    the distance from theta to an eigenvalue of the operator (Paige, Linear Algebra
    Appl. 34, 235 (1980)). The sqrt(n) puts the tolerance just above the rounding floor
    of a length-n residual: at eps scale the estimate of a converged theta hovered
    between one and a few tolerances, and 11 of 750 products of random members never
    stopped. Raises NoConvergence after ``max_steps``, or if a Ritz pair does not
    converge.
    """
    tol = math.sqrt(v.size) * np.finfo(float).eps * scale
    alpha, beta2, theta, twist = [], [], None, 0
    v, v_prev, scratch, b = v.copy(), np.zeros_like(v), np.empty_like(v), 0.0
    for step in range(1, max_steps + 1):
        w = apply(v)  # w is the caller's buffer, or a fresh array: updated in place
        w -= np.multiply(v_prev, b, scratch)
        a = float(v.dot(w))
        w -= np.multiply(v, a, scratch)
        b = math.sqrt(w.dot(w))
        alpha.append(a)
        if step % 5 == 0 or b <= tol or step == max_steps:
            theta, s_last, twist = _smallest_ritz_pair(alpha, beta2, theta, True, twist)
            if b * s_last <= 100.0 * tol:
                theta, s_last, twist = _smallest_ritz_pair(alpha, beta2, theta, False, twist)
            estimate = b * s_last
            if estimate <= tol:
                return theta
        beta2.append(b * b)
        v_prev, v = v, np.multiply(w, 1.0 / b, v_prev)
    raise NoConvergence(
        f"Lanczos on dimension {v.size} took {max_steps} steps without converging: "
        f"last Ritz estimate {estimate:.3e} > {tol:.3e}"
    )


def ensemble_times_numeric(spec: EnsembleSpec) -> EnsembleTimes:
    """Verification path: explicit product-space rate matrix and escape rates.

    mu2 comes from the symmetrized Kronecker-sum matrix S. Up to
    DENSE_EIG_LIMIT it is the second eigenvalue of S, built dense and alone.
    Above it, S is applied block by block (``_kronecker_operator``), and detailed
    balance gives it the exact null vector q = sqrt(Gibbs); adding c q q^T, with c the
    largest absolute row sum of S (a Gershgorin bound), lifts that zero above the
    spectrum, and mu2 is the smallest eigenvalue of S + c q q^T, from an unrestarted
    three-term Lanczos recurrence started at a fixed vector (reproducible bit for bit)
    and stopped by its Ritz estimate (see ``_lanczos_smallest``).
    tau_Q comes from enumerating the two smallest product-space escape rates.

    Raises CapExceeded above NUMERIC_CAP, DetailedBalanceViolation if |S q|_inf exceeds
    NULL_VECTOR_RTOL * c, and NoConvergence if the recurrence has not converged in dim steps.
    The size is checked first; each member is analysed as in ``ensemble_times``.
    """
    dim = _check_product_size([(m.spectrum.M, m.count) for m in spec.members], NUMERIC_CAP)
    parts = _member_analysis(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is refused
        copies = [(rates, pm) for member, rates, pm, _ in parts for _ in range(member.count)]
        B = _product_sum([rates.B for rates, _ in copies])  # the product escape rates, S's diagonal
        _check_rates("the member escape rates", 2.0 * B.max())
        if dim <= DENSE_EIG_LIMIT:
            mu2 = float(np.linalg.eigvalsh(_kronecker_sum([pm.S for _, pm in copies]))[1])
        else:
            S, c = _kronecker_operator([pm.S for _, pm in copies])
            q = np.sqrt(gibbs_state(_product_sum([pm.energies for _, pm in copies]), spec.beta))
            residual = float(np.abs(S(q)).max())
            if residual > NULL_VECTOR_RTOL * c:
                raise DetailedBalanceViolation(
                    f"sqrt(Gibbs) is not a null vector of S: |S q|_inf = {residual:.3e}, "
                    f"row-sum bound {c:.3e}"
                )
            scratch = np.empty(dim)

            def deflated(x):
                y = S(x)
                y += np.multiply(q, c * q.dot(x), scratch)
                return y

            mu2 = _lanczos_smallest(deflated, _deterministic_start(dim), c, dim)
        B0, B1 = np.partition(B, 1)[:2]
        tau_P = 1.0 / mu2
        tau_Q = float(2.0 / (B0 + B1))
    return EnsembleTimes(
        tau_P=tau_P,
        tau_Q=tau_Q,
        tau=max(tau_P, tau_Q),
        per_member_mu2=np.array([tt.mu2 for _, _, _, tt in parts]),
        B_min_total=float(B0),
        min_second_gap=float(B1 - B0),
    )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # such rates are refused
def free_spins_times(Gammas: Sequence[float], beta: float, gamma: float = 1.0) -> EnsembleTimes:
    """Analytic times for N free spins in local transverse fields Gamma_i.

    tau_P = max_i tanh(beta Gamma_i) / (2 gamma (2 Gamma_i)^3) and tau_Q is
    the largest inverse of
    gamma (2 Gamma_i)^3 cosh(beta Gamma_i)/sinh(beta Gamma_i)
    + sum_{k != i} gamma (2 Gamma_k)^3 e^{-beta Gamma_k}/sinh(beta Gamma_k).
    A uniform field reduces to tau_Q = sinh / (gamma (2 Gamma)^3 (sinh + N e^{-beta Gamma})).

    Working memory: Gamma, B_min (for its one pairwise sum) and per_member_mu2
    at full length, the cube, tanh, exponentials and brackets in slices of 8192
    spins: about 3.5 arrays of N at N = 10^5, with a whole-array pass's bits.
    Rates beyond the float range raise NonPositiveField: a member rate 2 gamma (2 Gamma_i)^3
    coth(beta Gamma_i) that is not a finite normal float, or a sum B_min that is not finite.
    """
    G = np.atleast_1d(np.asarray(Gammas, dtype=float))  # slices need an axis
    if G.size == 0:
        raise EmptyEnsemble("need at least one spin")
    _check_positive("every Gamma_i", G)
    _check_beta(beta)
    _check_positive("gamma", gamma)
    # pass 1 parks the cube in per_member_mu2; pass 2 needs sum(B_min), checks each
    # slice's rates before it uses them, and starts each slice's max from the last one's
    mu2, B_min = np.empty_like(G), np.empty_like(G)
    slices = [slice(i, i + 8192) for i in range(0, G.size, 8192)]
    for s in slices:
        mu2[s] = gamma * (2.0 * G[s]) ** 3
        # e^{-x}/sinh(x) and cosh/sinh without forming either overflowing hyperbolic
        y = -2.0 * (beta * G[s])
        B_min[s] = 2.0 * mu2[s] * np.exp(y) / -np.expm1(y)
    total = B_min.sum()
    min_second_gap = float(2.0 * mu2.min())  # doubling is exact: the min of 2 x cube
    tau_P = tau_Q = -math.inf
    for s in slices:
        cube, tanh = mu2[s], np.tanh(beta * G[s])
        twice = 2.0 * cube
        member_mu2 = twice / tanh
        # tau_P = 1 / min(member mu2), finite when that rate is a normal float
        _check_rates("the rate scale 2 gamma (2 Gamma_i)^3 coth(beta Gamma_i)",
                     member_mu2, total, scale=member_mu2.min())
        tau_P = float((tanh / twice).max(initial=tau_P))
        tau_Q = float((1.0 / (cube / tanh + (total - B_min[s]))).max(initial=tau_Q))
        mu2[s] = member_mu2
    return EnsembleTimes(
        tau_P=tau_P,
        tau_Q=tau_Q,
        tau=max(tau_P, tau_Q),
        per_member_mu2=mu2,
        B_min_total=float(total),
        min_second_gap=min_second_gap,
    )
