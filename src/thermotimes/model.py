"""Energy spectra, dipole matrices and degeneracy diagnostics for qubit systems.

Units: hbar = k_B = 1 throughout. The dipole coupling constant gamma absorbs
all physical prefactors and multiplies the squared dipole matrix D.
"""

import collections
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CapExceeded,
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

#: The zero cut of both routes: an eigenvalue below TOL_ZERO times the largest modulus.
TOL_ZERO = 1e-10

#: The smallest normal float: a rate scale below it has an infinite inverse time.
TINY = float(np.finfo(float).tiny)


def _check_positive(name: str, value) -> None:
    """Raise NonPositiveField unless ``value`` (a number or an array) is finite and > 0.

    The one rule for field strengths, coupling constants and tolerances that
    must be positive: a NaN or an infinity is refused like a zero.
    """
    v = np.asarray(value, dtype=float)
    if not (np.isfinite(v) & (v > 0)).all():
        raise NonPositiveField(f"{name} must be finite and > 0, got {value}")


def _check_rates(name: str, *rates, scale=None) -> None:
    """The rate rule of every route: NonPositiveField unless every rate formed is finite and
    the rate ``scale``, where given, is finite and at least the smallest normal float, so
    that its inverse time is finite too. |dE|^3 leaves the float range above a gap of about
    5.6e102 and below about 1.7e-108, gamma can carry a weight past it, and a scale just
    inside it can still overflow the sums formed from it; so each route forms its rates
    with overflow ignored and checks them before it uses them."""
    if scale is not None and not TINY <= scale < math.inf:
        raise NonPositiveField(f"{name} must be finite and >= {TINY:.4g}, got {scale}")
    for r in rates:
        if not np.isfinite(r).all():
            bad = np.asarray(r)[~np.isfinite(r)].flat[0]
            raise NonPositiveField(f"the rates formed from {name} must be finite, got {bad}")


def _check_tolerance(name: str, value) -> None:
    """Raise NonPositiveField unless the tolerance ``value`` is finite and >= 0:
    the one rule for the energy and degeneracy tolerances."""
    if not (math.isfinite(value) and value >= 0):
        raise NonPositiveField(f"{name} must be finite and >= 0, got {value}")


def _check_finite(name: str, values) -> None:
    """Raise DimensionMismatch unless every entry of ``values`` is a finite number: the
    one rule for Hamiltonian entries and for energies given as plain numbers."""
    if not np.isfinite(values).all():
        raise DimensionMismatch(f"{name} must be finite numbers")


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


def _check_product_size(factors, cap: int, name: str = "product dimension") -> int:
    """The one size rule: the product of dim^count over (dim, count) factors, returned if at
    most ``cap``. It is checked against the room left under the cap, so no integer above it
    is formed; CapExceeded names the factors by dimension (``2^20000``), never the product."""
    powers = collections.Counter()
    for dim, count in factors:
        powers[dim] += count
    powers, room = sorted(powers.items()), cap
    for dim, count in powers:
        for _ in range(count if dim > 1 else 0):
            if dim > room:
                named = " x ".join(f"{d}^{n}" for d, n in powers)
                raise CapExceeded(f"{name} {named} exceeds cap {cap}")
            room //= dim
    return math.prod(d**n for d, n in powers)


def _product_sum(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """All sums v1[i1] + ... + vn[in] in product-basis order, added left to right.

    Product energies and product escape rates come from here; adding left to
    right rounds exactly as ``_kronecker_sum`` and the chained build
    X(x)I + I(x)Y of the Kronecker sum round its diagonal.
    """
    out = np.asarray(vectors[0])
    for v in vectors[1:]:
        out = (out[:, None] + v[None, :]).ravel()
    return out


def _kronecker_sum(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Dense Kronecker sum X1(x)I(x)... + ... + I(x)...(x)Xn of square matrices, in the
    factors' dtype: every product-space operator of a noninteracting ensemble is built here.

    Each factor is added into the view of a zero matrix that is diagonal in the levels before
    it (left) and after it (right). So an off-diagonal entry is one factor's entry added into
    +0.0, and a diagonal entry sums the factor diagonals left to right from +0.0, rounded as
    ``_product_sum`` and the site-embedded sum of I(x)...(x)X(x)...(x)I round it: none is -0.0.
    """
    if not mats:
        raise DimensionMismatch("a Kronecker sum needs at least one factor")
    dim, left = math.prod(len(X) for X in mats), 1
    out = np.zeros((dim, dim), dtype=np.result_type(*mats))
    for X in mats:
        shape = (left, len(X), dim // (left * len(X)))
        np.einsum("iajibj->ijab", out.reshape(shape * 2))[...] += X  # a writeable view of out
        left *= len(X)
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
        if H.shape != (self.dim, self.dim):  # named as 2^K: a large 2**K has too many digits
            raise DimensionMismatch(f"H has shape {H.shape}, expected 2^{self.K} x 2^{self.K}")
        _check_finite("H entries", H)
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
        with np.errstate(over="ignore"):  # refused just below
            D = self.gamma * sum(np.abs(d) ** 2 for d in amps)
            D = (D + D.T) / 2.0
        np.fill_diagonal(D, 0.0)
        _check_rates("gamma", D)
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


def _stacks(ids: np.ndarray) -> list:
    """Classes of the flat ids by size: an (nb, s) array of positions per size s, rows by id."""
    size = np.bincount(ids)[ids]
    order = np.lexsort((ids, size))  # by class size, then class id; stable within a class
    return [order[size[order] == s].reshape(-1, s) for s in sorted(set(size.tolist()))]


def _class_means(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mean of ``x`` over each class c of ``ids`` (0, 1, ...), bit for bit x[ids == c].mean()."""
    means = np.empty(ids.max(initial=-1) + 1)
    for idx in _stacks(ids):
        means[ids[idx[:, 0]]] = x[idx].mean(axis=1)
    return means


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
    flat, M = ids.ravel(), len(ids)
    classes = {int(flat[c[0]]): c for idx in _stacks(flat) for c in idx.tolist()}
    # flat position p is the pair divmod(p, M), on the diagonal when p % (M + 1) == 0
    pairs = (tuple(divmod(p, M) for p in classes[k] if p % (M + 1)) for k in sorted(classes))
    return tuple(c for c in pairs if c)


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
    _check_finite("energies", E)
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
