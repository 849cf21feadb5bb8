"""Energy spectra, dipole matrices and degeneracy diagnostics for qubit systems.

Units: hbar = k_B = 1 throughout. The dipole coupling constant gamma absorbs
all physical prefactors and multiplies the squared dipole matrix D.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonHermitian,
    NonPositiveField,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

#: Relative tolerance used for the default degeneracy threshold,
#: tol = DEGENERACY_RTOL * (E_max - E_min).
DEGENERACY_RTOL = 1e-9


def single_site_operator(K: int, site: int, op: np.ndarray) -> np.ndarray:
    """Embed ``op``, acting on site ``site``, into the product space of K equal sites.

    Each site has the dimension of ``op``: a one-qubit operator lands in the
    2**K space, a block acting on k qubits in the 2**(k K) space.
    """
    eye = np.eye(op.shape[0], dtype=complex)
    out = np.array([[1.0 + 0.0j]])
    for j in range(K):
        out = np.kron(out, op if j == site else eye)
    return out


def total_spin_operator(K: int, axis: str) -> np.ndarray:
    """Collective spin component sum_i sigma_i^axis on the 2**K space."""
    s = PAULI[axis]
    dim = 2**K
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(K):
        out += single_site_operator(K, i, s)
    return out


def free_spin_chain(Gammas: Sequence[float]) -> np.ndarray:
    """Hamiltonian -sum_i Gamma_i sigma_i^x of K independent spins in local x fields."""
    Gammas = np.asarray(Gammas, dtype=float)
    if np.any(Gammas <= 0):
        raise NonPositiveField("all field strengths Gamma_i must be > 0")
    K = len(Gammas)
    dim = 2**K
    H = np.zeros((dim, dim), dtype=complex)
    for i, G in enumerate(Gammas):
        H += -G * single_site_operator(K, i, PAULI_X)
    return H


@dataclass(frozen=True)
class QubitSystem:
    """A system of K qubits with Hamiltonian H and dipole coupling constant gamma.

    H must be Hermitian (to 1e-12 relative to its largest entry) and of
    dimension exactly 2**K.
    """

    K: int
    H: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        if self.K < 1:
            raise DimensionMismatch(f"K must be >= 1, got {self.K}")
        if self.gamma <= 0:
            raise NonPositiveField(f"gamma must be > 0, got {self.gamma}")
        H = np.asarray(self.H, dtype=complex)
        dim = 2**self.K
        if H.shape != (dim, dim):
            raise DimensionMismatch(
                f"H has shape {H.shape}, expected ({dim}, {dim}) for K={self.K}"
            )
        scale = np.abs(H).max()
        if scale > 0 and np.abs(H - H.conj().T).max() > 1e-12 * scale:
            raise NonHermitian("H is not Hermitian to 1e-12 relative tolerance")
        object.__setattr__(self, "H", H)

    @property
    def dim(self) -> int:
        return 2**self.K


@dataclass(frozen=True)
class EnergySpectrum:
    """Sorted energy levels together with the eigenbasis that produced them.

    ``eigenbasis`` holds the eigenvectors as columns, expressed in the basis
    the Hamiltonian was written in. Construction via :func:`diagonalize`
    guarantees ascending order and (optionally) nondegeneracy; spectra built
    for the quantum optical master equation may be degenerate.
    """

    M: int
    energies: np.ndarray
    eigenbasis: np.ndarray
    degeneracy_tol: float = 0.0

    def __post_init__(self):
        E = np.asarray(self.energies, dtype=float)
        U = np.asarray(self.eigenbasis, dtype=complex)
        if E.shape != (self.M,) or U.shape != (self.M, self.M):
            raise DimensionMismatch(
                f"expected {self.M} energies and a {self.M}x{self.M} eigenbasis"
            )
        if np.any(np.diff(E) < 0):
            raise DegenerateSpectrum("energies must be sorted in ascending order")
        if np.abs(U.conj().T @ U - np.eye(self.M)).max() > 1e-10:
            raise NonHermitian("eigenbasis is not unitary to 1e-10")
        object.__setattr__(self, "energies", E)
        object.__setattr__(self, "eigenbasis", U)

    @property
    def is_nondegenerate(self) -> bool:
        if self.M < 2:
            return True
        return bool(np.diff(self.energies).min() > self.degeneracy_tol)


@dataclass(frozen=True)
class DipoleData:
    """Per-axis dipole transition amplitudes and the squared dipole matrix.

    d_x, d_y, d_z are the matrix elements of the collective spin components
    in the system eigenbasis (Hermitian). D[m, n] = gamma * sum_h |d_h[m, n]|^2
    with the diagonal forced to zero: diagonal dipole transitions are
    forbidden in first-order perturbation theory.
    """

    d_x: np.ndarray
    d_y: np.ndarray
    d_z: np.ndarray
    D: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        M = D.shape[0]
        amps = []
        for name in ("d_x", "d_y", "d_z"):
            d = np.asarray(getattr(self, name), dtype=complex)
            if d.shape != (M, M):
                raise DimensionMismatch(f"{name} has shape {d.shape}, expected {D.shape}")
            if np.abs(d - d.conj().T).max() > 1e-10 * max(1.0, np.abs(d).max()):
                raise NonHermitian(f"{name} is not Hermitian to 1e-10")
            object.__setattr__(self, name, d)
            amps.append(d)
        if np.abs(D - D.T).max() > 0 or np.abs(np.diag(D)).max() > 0:
            raise DimensionMismatch("D must be exactly symmetric with zero diagonal")
        expected = self.gamma * sum(np.abs(d) ** 2 for d in amps)
        np.fill_diagonal(expected, 0.0)
        if np.abs(D - expected).max() > 1e-12 * max(1.0, expected.max()):
            raise DimensionMismatch("D is inconsistent with the per-axis amplitudes")
        object.__setattr__(self, "D", D)

    @property
    def M(self) -> int:
        return self.D.shape[0]

    @property
    def amplitudes(self) -> tuple:
        return (self.d_x, self.d_y, self.d_z)


def _fix_phases(U: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive.

    Squared dipole elements are phase invariant, but the amplitudes d_h are
    not; a fixed gauge keeps outputs reproducible across LAPACK builds.
    """
    U = U.copy()
    for j in range(U.shape[1]):
        k = int(np.argmax(np.abs(U[:, j])))
        z = U[k, j]
        if z != 0:
            U[:, j] *= np.conj(z) / abs(z)
    return U


def diagonalize(
    sys: QubitSystem,
    degeneracy_tol: Optional[float] = None,
    require_nondegenerate: bool = True,
) -> EnergySpectrum:
    """Diagonalize a qubit system Hamiltonian into an EnergySpectrum.

    With ``require_nondegenerate`` (the default, needed by the single-system
    Lindblad construction) a DegenerateSpectrum error is raised whenever two
    adjacent levels lie within ``degeneracy_tol`` of each other. The default
    tolerance is 1e-9 relative to the spectral spread, so it survives a
    rescaling of the Hamiltonian.
    """
    E, U = np.linalg.eigh(sys.H)
    spread = float(E[-1] - E[0])
    if degeneracy_tol is None:
        degeneracy_tol = DEGENERACY_RTOL * spread
    if degeneracy_tol < 0:
        raise NonPositiveField("degeneracy_tol must be >= 0")
    if require_nondegenerate:
        if sys.dim > 1 and (spread == 0.0 or np.diff(E).min() <= degeneracy_tol):
            raise DegenerateSpectrum(
                "adjacent energy levels are closer than the degeneracy tolerance "
                f"({degeneracy_tol:g})"
            )
    return EnergySpectrum(
        M=sys.dim,
        energies=E,
        eigenbasis=_fix_phases(U),
        degeneracy_tol=float(degeneracy_tol),
    )


def dipole_data(sys: QubitSystem, spec: EnergySpectrum) -> DipoleData:
    """Dipole amplitudes of the collective spin components in the eigenbasis.

    d_h[m, n] = <m| sum_i sigma_i^h |n> and D[m, n] = gamma sum_h |d_h[m, n]|^2
    with the diagonal of D forced to exact zero.
    """
    if spec.M != sys.dim:
        raise DimensionMismatch(
            f"spectrum dimension {spec.M} does not match system dimension {sys.dim}"
        )
    U = spec.eigenbasis
    amps = []
    for axis in "xyz":
        d = U.conj().T @ total_spin_operator(sys.K, axis) @ U
        amps.append((d + d.conj().T) / 2.0)  # remove round-off anti-Hermitian part
    D = sys.gamma * sum(np.abs(d) ** 2 for d in amps)
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return DipoleData(d_x=amps[0], d_y=amps[1], d_z=amps[2], D=D, gamma=sys.gamma)


def free_spin_system(Gamma: float, gamma: float = 1.0):
    """Analytic spectrum and dipole data of one spin in a transverse field.

    H = -Gamma sigma^x has levels (-Gamma, +Gamma) with eigenvectors |+>, |->.
    In that basis sigma^x is diagonal and the squared dipole element between
    the two levels is 2 gamma. No numerical diagonalization is involved.
    """
    if Gamma <= 0:
        raise NonPositiveField(f"Gamma must be > 0, got {Gamma}")
    if gamma <= 0:
        raise NonPositiveField(f"gamma must be > 0, got {gamma}")
    s = 1.0 / np.sqrt(2.0)
    U = np.array([[s, s], [s, -s]], dtype=complex)  # columns |+>, |->
    spec = EnergySpectrum(
        M=2,
        energies=np.array([-Gamma, Gamma]),
        eigenbasis=U,
        degeneracy_tol=DEGENERACY_RTOL * 2 * Gamma,
    )
    d_x = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    d_y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
    d_z = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    D = np.array([[0.0, 2.0 * gamma], [2.0 * gamma, 0.0]])
    return spec, DipoleData(d_x=d_x, d_y=d_y, d_z=d_z, D=D, gamma=gamma)


def spin_sector_system(N: int, Gamma: float, gamma: float = 1.0):
    """N identical spins in a uniform field, reduced to one copy of each total-spin sector.

    H = -Gamma sum_i sigma_i^x = -2 Gamma J_x and the collective dipoles
    2 J_h act only on the total-spin factor of C^(2^N) = sum_J C^(2J+1) x
    C^(d_J), so the system is represented on the direct sum of the sectors
    J = N/2, N/2 - 1, ..., one copy each, in the basis |J, m_x> (no numerical
    diagonalization; the eigenbasis is the identity). Returns (spectrum,
    dipoles, sectors) with ``sectors`` = (sector index of each level, exact
    integer multiplicity d_J = C(N, N/2-J) - C(N, N/2-J-1) of each sector).
    """
    if N < 1:
        raise DimensionMismatch(f"N must be >= 1, got {N}")
    if Gamma <= 0:
        raise NonPositiveField(f"Gamma must be > 0, got {Gamma}")
    if gamma <= 0:
        raise NonPositiveField(f"gamma must be > 0, got {gamma}")
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
    D = gamma * sum(np.abs(d) ** 2 for d in amps)
    np.fill_diagonal(D, 0.0)
    dip = DipoleData(d_x=amps[0], d_y=amps[1], d_z=amps[2], D=D, gamma=gamma)
    return spec, dip, (sector[order], mult)


# ---------------------------------------------------------------------------
# degeneracy diagnostics
# ---------------------------------------------------------------------------

def equality_classes(values: np.ndarray, tol: float) -> np.ndarray:
    """Class ids partitioning ``values`` with |x - y| <= tol treated as equal.

    Uses the transitive closure of the proximity relation (chaining adjacent
    sorted values), so near-degenerate chains end up in one well-defined
    class instead of depending on comparison order.
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


def _gap_structure(energies: np.ndarray, tol: float):
    """Level ids, gap ids and gap frequencies behind the master equation's deltas.

    Levels within ``tol`` (chained) are replaced by their class mean, so
    intended-equal gaps E_m - E_n (M x M arrays over (m, n)) are exactly
    equal before they are classed; the zero-gap class has frequency 0.
    Raises NonPositiveField unless ``tol`` is finite and >= 0.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise NonPositiveField(f"energy tolerance must be finite and >= 0, got {tol}")
    lev_ids = equality_classes(energies, tol)
    rep = np.empty_like(energies, dtype=float)
    for c in np.unique(lev_ids):
        rep[lev_ids == c] = energies[lev_ids == c].mean()
    gaps = rep[:, None] - rep[None, :]
    gap_ids = equality_classes(gaps.ravel(), tol).reshape(gaps.shape)
    gap_rep = np.empty_like(gaps)
    for c in np.unique(gap_ids):
        mask = gap_ids == c
        gap_rep[mask] = 0.0 if c == gap_ids[0, 0] else gaps[mask].mean()
    return lev_ids, gap_ids, gap_rep


def _pair_classes(ids: np.ndarray) -> tuple:
    """Pairs (m, n), m != n, per class of an M x M id array, in id order; empty classes dropped."""
    classes = (
        tuple((int(m), int(n)) for m, n in np.argwhere(ids == c) if m != n)
        for c in range(ids.max() + 1)
    )
    return tuple(pairs for pairs in classes if pairs)


@dataclass(frozen=True)
class DegeneracyReport:
    """Level and gap degeneracy structure of an energy spectrum.

    ``level_classes`` partitions level indices by equal energy;
    ``gap_classes`` partitions ordered index pairs (m, n), m != n, by equal
    energy difference E[m] - E[n], classed like the master equation's deltas.
    A gap class with two distinct pairs means the microscopically derived
    master equation groups several dyads into a single jump operator.
    """

    has_level_degeneracy: bool
    has_gap_degeneracy: bool
    level_classes: tuple = field(default_factory=tuple)
    gap_classes: tuple = field(default_factory=tuple)
    tol: float = 0.0


def degeneracy_report(energies: Sequence[float], tol: float) -> DegeneracyReport:
    """Detect level and gap degeneracies with tolerance ``tol``."""
    E = np.asarray(energies, dtype=float)
    lev_ids, gap_ids, _ = _gap_structure(E, tol)
    if len(E) == 0:
        return DegeneracyReport(False, False, (), (), tol)
    level_classes = tuple(
        tuple(int(i) for i in np.flatnonzero(lev_ids == c))
        for c in range(lev_ids.max() + 1)
    )
    gap_classes = _pair_classes(gap_ids)
    return DegeneracyReport(
        has_level_degeneracy=any(len(c) > 1 for c in level_classes),
        has_gap_degeneracy=any(len(c) > 1 for c in gap_classes),
        level_classes=level_classes,
        gap_classes=gap_classes,
        tol=float(tol),
    )


# ---------------------------------------------------------------------------
# external input format
# ---------------------------------------------------------------------------

def system_from_json(obj: dict, gamma: float = 1.0) -> QubitSystem:
    """Build a QubitSystem from {"dim": n, "re": [[...]], "im": [[...]]}.

    ``dim`` must be a power of two; ``im`` may be omitted for real matrices.
    """
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float) if "im" in obj else np.zeros_like(re)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed Hamiltonian object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionMismatch(
            f"re/im must be {dim}x{dim} matrices, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DimensionMismatch("re/im entries must be finite numbers")
    K = dim.bit_length() - 1
    if dim < 2 or 2**K != dim:
        raise DimensionMismatch(f"dim must be a power of two >= 2, got {dim}")
    return QubitSystem(K=K, H=re + 1.0j * im, gamma=gamma)
