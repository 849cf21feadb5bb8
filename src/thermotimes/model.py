"""Energy spectra, dipole matrices and degeneracy diagnostics for qubit systems.

Units: hbar = k_B = 1 throughout. The dipole coupling constant gamma absorbs
all physical prefactors and multiplies the squared dipole matrix D.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonHermitian,
    NonPositiveBeta,
    NonPositiveField,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

#: Relative tolerance used for the default degeneracy threshold,
#: tol = DEGENERACY_RTOL * (E_max - E_min).
DEGENERACY_RTOL = 1e-9


def _check_positive(name: str, value) -> None:
    """Raise NonPositiveField unless ``value`` (a number or an array) is finite and > 0.

    The one rule for field strengths, coupling constants and tolerances that
    must be positive: a NaN or an infinity is refused like a zero.
    """
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v) & (v > 0)):
        raise NonPositiveField(f"{name} must be finite and > 0, got {value}")


def _check_tolerance(name: str, value) -> None:
    """Raise NonPositiveField unless the tolerance ``value`` is finite and >= 0:
    the one rule for the energy and degeneracy tolerances."""
    if not (math.isfinite(value) and value >= 0):
        raise NonPositiveField(f"{name} must be finite and >= 0, got {value}")


def _check_beta(beta) -> None:
    """Raise NonPositiveBeta unless the inverse temperature is finite and > 0."""
    if not (np.isfinite(beta) and beta > 0):
        raise NonPositiveBeta(f"beta must be positive and finite, got {beta}")


def _check_size(name: str, value, error=DimensionMismatch) -> int:
    """``value`` as an int if it is an integer >= 1 (numpy integers too, never a
    bool); otherwise raise ``error``. The one rule for qubit and copy counts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _product_sum(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """All sums v1[i1] + ... + vn[in] in product-basis order, added left to right.

    Product energies, product escape rates and the diagonal of a Kronecker
    sum all come from here; adding left to right rounds exactly as the
    chained build X(x)I + I(x)Y of the Kronecker sum does.
    """
    out = np.asarray(vectors[0])
    for v in vectors[1:]:
        out = (out[:, None] + v[None, :]).ravel()
    return out


def _kronecker_sum_entries(mats: Sequence[np.ndarray]):
    """(indptr, indices, data) of the Kronecker sum X1(x)I(x)... + ... + I(x)...(x)Xn,
    grouped by row as in a CSR matrix.

    An off-diagonal entry of the sum comes from exactly one factor, so every
    row has one slot for its diagonal (the product sum of the factor
    diagonals) and m - 1 slots per factor of size m, filled in one broadcast
    over the (left, m, right) view of the rows with no index repeated. Within
    a row the slots run diagonal first, then factor by factor; slots whose
    factor entry is zero (as ``np.nonzero`` sees it) are dropped, the
    diagonal never is. The indices are 32-bit wherever they fit, as scipy
    stores them.
    """
    if not mats:
        raise DimensionMismatch("a Kronecker sum needs at least one factor")
    sizes = [X.shape[0] for X in mats]
    dim = math.prod(sizes)
    width = 1 + sum(sizes) - len(sizes)
    index = np.int32 if dim * width <= np.iinfo(np.int32).max else np.int64
    data = np.empty((dim, width), dtype=np.result_type(*mats))
    indices = np.empty((dim, width), dtype=index)
    rows = np.arange(dim, dtype=index)
    data[:, 0] = _product_sum([np.diag(X) for X in mats])
    indices[:, 0] = rows
    left, slot = 1, 1
    for X, m in zip(mats, sizes):
        right = dim // (left * m)
        # row (i_left, a, i_right) couples to b = j + (j >= a), the j-th of the
        # other m - 1 levels, at column row + (b - a) * right
        a = np.arange(m)[:, None]
        b = np.arange(m - 1)[None, :] + (np.arange(m - 1)[None, :] >= a)
        view = (Ellipsis, slice(slot, slot + m - 1))
        data.reshape(left, m, right, width)[view] = X[a, b][:, None, :]
        indices.reshape(left, m, right, width)[view] = (
            rows.reshape(left, m, right, 1) + ((b - a) * right)[:, None, :])
        left, slot = left * m, slot + m - 1
    keep = data != 0
    keep[:, 0] = True
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return indptr, indices[keep], data[keep]


def _kronecker_sum(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Dense Kronecker sum of square matrices, in the factors' dtype.

    Every product-space operator of a noninteracting ensemble is built here.
    The entries are added into zeros, not assigned, so every zero entry is
    +0.0, as in a sum of site-embedded Kronecker products I(x)...(x)X(x)...(x)I.
    """
    indptr, indices, data = _kronecker_sum_entries(mats)
    dim = indptr.size - 1
    out = np.zeros((dim, dim), dtype=data.dtype)
    out[np.repeat(np.arange(dim), np.diff(indptr)), indices] += data
    return out


def total_spin_operator(K: int, axis: str) -> np.ndarray:
    """Collective spin component sum_i sigma_i^axis on the 2**K space."""
    return _kronecker_sum([PAULI[axis]] * K)


def free_spin_chain(Gammas: Sequence[float]) -> np.ndarray:
    """Hamiltonian -sum_i Gamma_i sigma_i^x of K independent spins in local x fields."""
    Gammas = np.asarray(Gammas, dtype=float)
    _check_positive("every field strength Gamma_i", Gammas)
    return _kronecker_sum([-G * PAULI_X for G in Gammas])


@dataclass(frozen=True)
class QubitSystem:
    """A system of K qubits with Hamiltonian H and dipole coupling constant gamma.

    K is an integer >= 1; H must be finite, Hermitian (to 1e-12 relative to
    its largest entry) and of dimension exactly 2**K.
    """

    K: int
    H: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "K", _check_size("K", self.K))
        _check_positive("gamma", self.gamma)
        H = np.asarray(self.H, dtype=complex)
        dim = 2**self.K
        if H.shape != (dim, dim):
            raise DimensionMismatch(
                f"H has shape {H.shape}, expected ({dim}, {dim}) for K={self.K}"
            )
        if not np.isfinite(H).all():
            raise DimensionMismatch("H entries must be finite numbers")
        scale = np.abs(H).max()
        if scale > 0 and np.abs(H - H.conj().T).max() > 1e-12 * scale:
            raise NonHermitian("H is not Hermitian to 1e-12 relative tolerance")
        object.__setattr__(self, "H", H)

    @property
    def dim(self) -> int:
        return 2**self.K


@dataclass(frozen=True)
class EnergySpectrum:
    """M >= 1 sorted energy levels together with the eigenbasis that produced them.

    ``eigenbasis`` holds the eigenvectors as columns, expressed in the basis
    the Hamiltonian was written in. The energies are finite and ascending and
    may be degenerate; ``is_nondegenerate`` compares adjacent levels against
    ``degeneracy_tol`` (finite, >= 0), which only the detailed-balance rates require.
    """

    M: int
    energies: np.ndarray
    eigenbasis: np.ndarray
    degeneracy_tol: float = 0.0

    def __post_init__(self):
        _check_size("M", self.M)
        E = np.asarray(self.energies, dtype=float)
        U = np.asarray(self.eigenbasis, dtype=complex)
        if E.shape != (self.M,) or U.shape != (self.M, self.M):
            raise DimensionMismatch(
                f"expected {self.M} energies and a {self.M}x{self.M} eigenbasis"
            )
        # NaN fails every comparison, so the order check alone would let it through
        if not (np.isfinite(E).all() and np.all(np.diff(E) >= 0)):
            raise DegenerateSpectrum(f"energies must be finite and ascending, got {E}")
        if np.abs(U.conj().T @ U - np.eye(self.M)).max() > 1e-10:
            raise NonHermitian("eigenbasis is not unitary to 1e-10")
        _check_tolerance("degeneracy_tol", self.degeneracy_tol)
        object.__setattr__(self, "energies", E)
        object.__setattr__(self, "eigenbasis", U)

    @property
    def is_nondegenerate(self) -> bool:
        if self.M < 2:
            return True
        return bool(np.diff(self.energies).min() > self.degeneracy_tol)


@dataclass(frozen=True)
class DipoleData:
    """Per-axis dipole transition amplitudes and the squared dipole matrix they give.

    d_x, d_y, d_z are the matrix elements of the collective spin components
    in the system eigenbasis (Hermitian, M x M with M >= 1). D is derived
    from them, never passed: D[m, n] = gamma * sum_h |d_h[m, n]|^2,
    symmetrized, with the diagonal forced to zero: diagonal dipole
    transitions are forbidden in first-order perturbation theory.
    """

    d_x: np.ndarray
    d_y: np.ndarray
    d_z: np.ndarray
    gamma: float = 1.0
    D: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_positive("gamma", self.gamma)
        amps = [np.asarray(getattr(self, name), dtype=complex) for name in ("d_x", "d_y", "d_z")]
        M = _check_size("dipole dimension", len(amps[0]) if amps[0].ndim else 0)
        for name, d in zip(("d_x", "d_y", "d_z"), amps):
            if d.shape != (M, M):
                raise DimensionMismatch(f"{name} has shape {d.shape}, expected {(M, M)}")
            if np.abs(d - d.conj().T).max() > 1e-10 * max(1.0, np.abs(d).max()):
                raise NonHermitian(f"{name} is not Hermitian to 1e-10")
            object.__setattr__(self, name, d)
        D = self.gamma * sum(np.abs(d) ** 2 for d in amps)
        D = (D + D.T) / 2.0
        np.fill_diagonal(D, 0.0)
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


def diagonalize(sys: QubitSystem) -> EnergySpectrum:
    """Diagonalize a qubit system Hamiltonian into an EnergySpectrum.

    The spectrum may be degenerate. Its ``degeneracy_tol`` is 1e-9 relative to
    the spectral spread, so it survives a rescaling of the Hamiltonian;
    :func:`thermal_rates` refuses a spectrum with levels that close.
    """
    E, U = np.linalg.eigh(sys.H)
    return EnergySpectrum(
        M=sys.dim,
        energies=E,
        eigenbasis=_fix_phases(U),
        degeneracy_tol=DEGENERACY_RTOL * float(E[-1] - E[0]),
    )


def dipole_data(sys: QubitSystem, spec: EnergySpectrum) -> DipoleData:
    """Dipole amplitudes of the collective spin components in the eigenbasis.

    d_h[m, n] = <m| sum_i sigma_i^h |n>, made exactly Hermitian; DipoleData
    derives D from them.
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
    return DipoleData(d_x=amps[0], d_y=amps[1], d_z=amps[2], gamma=sys.gamma)


def free_spin_system(Gamma: float, gamma: float = 1.0):
    """Analytic spectrum and dipole data of one spin in a transverse field.

    H = -Gamma sigma^x has levels (-Gamma, +Gamma) with eigenvectors |+>, |->.
    In that basis sigma^x is diagonal and the squared dipole element between
    the two levels is 2 gamma. No numerical diagonalization is involved.
    """
    _check_positive("Gamma", Gamma)
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
    return spec, DipoleData(d_x=d_x, d_y=d_y, d_z=d_z, gamma=gamma)


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
    order = np.argsort(values, kind="stable")
    ids = np.empty(len(values), dtype=int)
    ids[order] = np.cumsum(np.diff(values[order], prepend=values[order[:1]]) > tol)
    return ids


def _class_means(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mean of ``x`` over each class of ``ids`` (0, 1, ...), indexed by id: a stable
    sort by id leaves x[ids == c] in order as one segment, so each mean is bit-identical."""
    x = x[np.argsort(ids, kind="stable")]
    ends = np.cumsum(np.bincount(ids)).tolist()
    return np.array([x[start:end].mean() for start, end in zip([0] + ends, ends)])


def _gap_structure(energies: np.ndarray, tol: float):
    """Level ids, gap ids and gap frequencies behind the master equation's deltas.

    Levels within ``tol`` (chained) are replaced by their class mean, so
    intended-equal gaps E_m - E_n (M x M arrays over (m, n)) are exactly
    equal before they are classed; the zero-gap class has frequency 0.
    Raises NonPositiveField unless ``tol`` is finite and >= 0.
    """
    _check_tolerance("energy tolerance", tol)
    lev_ids = equality_classes(energies, tol)
    rep = _class_means(energies, lev_ids)[lev_ids]
    gaps = rep[:, None] - rep[None, :]
    gap_ids = equality_classes(gaps.ravel(), tol).reshape(gaps.shape)
    gap_means = _class_means(gaps.ravel(), gap_ids.ravel())
    gap_means[gap_ids.diagonal()] = 0.0  # the class of the zero gaps E_m - E_m
    return lev_ids, gap_ids, gap_means[gap_ids]


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

    ``dim`` must be an integer power of two and every entry a number, never a
    bool or a string; ``im`` may be omitted for real matrices.
    """
    try:
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float) if "im" in obj else np.zeros_like(re)
        numbers = [dim] + [x for key in ("re", "im") if key in obj for row in obj[key] for x in row]
        if not isinstance(dim, int) or any(
                isinstance(x, bool) or not isinstance(x, (int, float)) for x in numbers):
            raise TypeError("dim must be a JSON integer and every re/im entry a JSON number")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"malformed Hamiltonian object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionMismatch(
            f"re/im must be {dim}x{dim} matrices, got {re.shape} and {im.shape}"
        )
    K = dim.bit_length() - 1
    if dim < 2 or 2**K != dim:
        raise DimensionMismatch(f"dim must be a power of two >= 2, got {dim}")
    return QubitSystem(K=K, H=re + 1.0j * im, gamma=gamma)
