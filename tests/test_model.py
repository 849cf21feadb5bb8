import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermotimes.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonHermitian,
    NonPositiveField,
)
from thermotimes.model import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    QubitSystem,
    degeneracy_report,
    diagonalize,
    dipole_data,
    equality_classes,
    free_spin_chain,
    free_spin_system,
    single_site_operator,
    system_from_json,
    total_spin_operator,
)

from thermotimes.qome import build_liouvillian, jump_operator_groups

from oracles import brute_force_dipole, charpoly_eigvals


def test_qubit_system_rejects_non_hermitian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitian):
        QubitSystem(K=1, H=H)


def test_qubit_system_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        QubitSystem(K=2, H=np.eye(3, dtype=complex))


def test_diagonalize_free_spin_levels():
    sys_ = QubitSystem(K=1, H=-PAULI_X)
    spec = diagonalize(sys_)
    np.testing.assert_allclose(spec.energies, [-1.0, 1.0], atol=1e-14)
    # eigenvectors |+> and |-> up to the fixed phase gauge
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(spec.eigenbasis[:, 0], [s, s], atol=1e-14)
    np.testing.assert_allclose(spec.eigenbasis[:, 1], [s, -s], atol=1e-14)


def test_diagonalize_fully_degenerate_raises():
    sys_ = QubitSystem(K=1, H=np.zeros((2, 2), dtype=complex))
    with pytest.raises(DegenerateSpectrum):
        diagonalize(sys_)


def test_diagonalize_matches_charpoly_oracle():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    H = (A + A.conj().T) / 2.0
    spec = diagonalize(QubitSystem(K=2, H=H))
    np.testing.assert_allclose(spec.energies, charpoly_eigvals(H), atol=1e-8)


def test_diagonalize_reconstructs_hamiltonian():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 8)) + 1.0j * rng.normal(size=(8, 8))
    H = (A + A.conj().T) / 2.0
    spec = diagonalize(QubitSystem(K=3, H=H))
    U = spec.eigenbasis
    rebuilt = U @ np.diag(spec.energies) @ U.conj().T
    assert np.abs(rebuilt - H).max() <= 1e-10 * np.abs(H).max()


def test_dipole_free_spin_offdiagonal():
    sys_ = QubitSystem(K=1, H=-PAULI_X)
    dip = dipole_data(sys_, diagonalize(sys_))
    np.testing.assert_allclose(dip.D, [[0.0, 2.0], [2.0, 0.0]], atol=1e-14)


def test_dipole_amplitudes_traceless():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    sys_ = QubitSystem(K=2, H=(A + A.conj().T) / 2.0)
    dip = dipole_data(sys_, diagonalize(sys_))
    for d in dip.amplitudes:
        assert abs(np.trace(d)) < 1e-12


def test_dipole_dual_path_two_qubits():
    # H = -s1^x - 0.5 s2^x: eigenvectors are products of |+/->, so the
    # brute-force bra-ket sums can be formed from explicitly built vectors.
    H = -np.kron(PAULI_X, np.eye(2)) - 0.5 * np.kron(np.eye(2), PAULI_X)
    sys_ = QubitSystem(K=2, H=H)
    spec = diagonalize(sys_)
    dip = dipole_data(sys_, spec)
    oracle = brute_force_dipole(spec.eigenbasis, 2, 1.0, (PAULI_X, PAULI_Y, PAULI_Z))
    assert np.abs(dip.D - oracle).max() < 1e-12


def test_free_spin_system_paper_values():
    spec, dip = free_spin_system(1.0, 1.0)
    np.testing.assert_allclose(spec.energies, [-1.0, 1.0])
    assert dip.D[0, 1] == dip.D[1, 0] == 2.0


def test_free_spin_system_scales_with_field():
    spec, _ = free_spin_system(2.0, 1.0)
    np.testing.assert_allclose(spec.energies, [-2.0, 2.0])


def test_free_spin_system_matches_numeric_path():
    G = 0.51822
    spec_a, dip_a = free_spin_system(G, 1.0)
    sys_ = QubitSystem(K=1, H=-G * PAULI_X)
    spec_n = diagonalize(sys_)
    dip_n = dipole_data(sys_, spec_n)
    assert np.abs(spec_a.energies - spec_n.energies).max() < 1e-12
    assert np.abs(spec_a.eigenbasis - spec_n.eigenbasis).max() < 1e-12
    for d_a, d_n in zip(dip_a.amplitudes, dip_n.amplitudes):
        assert np.abs(d_a - d_n).max() < 1e-12
    assert np.abs(dip_a.D - dip_n.D).max() < 1e-12


def test_free_spin_system_rejects_nonpositive():
    with pytest.raises(NonPositiveField):
        free_spin_system(0.0)
    with pytest.raises(NonPositiveField):
        free_spin_system(1.0, gamma=-1.0)


def test_degeneracy_report_single_spin():
    rep = degeneracy_report([-1.0, 1.0], 1e-9)
    assert not rep.has_level_degeneracy and not rep.has_gap_degeneracy


def test_degeneracy_report_two_equal_spins():
    rep = degeneracy_report([-2.0, 0.0, 0.0, 2.0], 1e-9)
    assert rep.has_level_degeneracy
    assert rep.has_gap_degeneracy
    assert ((1,), (2,)) not in rep.level_classes  # the two middle levels share a class
    assert any(len(c) == 2 for c in rep.level_classes)


def test_degeneracy_report_gap_only():
    # positive gaps: 1, 2.5, 3.5, 1.5, 2.5, 1 -> the 1s and the 2.5s repeat
    rep = degeneracy_report([0.0, 1.0, 2.5, 3.5], 1e-9)
    assert not rep.has_level_degeneracy
    assert rep.has_gap_degeneracy
    classes = {frozenset(c) for c in rep.gap_classes if len(c) > 1}
    assert frozenset({(1, 0), (3, 2)}) in classes
    assert frozenset({(2, 0), (3, 1)}) in classes


def test_degeneracy_report_geometric_spectrum():
    rep = degeneracy_report([2.0**m for m in range(6)], 1e-9)
    assert not rep.has_level_degeneracy and not rep.has_gap_degeneracy


def test_degeneracy_report_near_chain_closure():
    # pairwise-only comparison would split this chain depending on order
    rep = degeneracy_report([0.0, 0.9e-6, 1.8e-6, 1.0], 1e-6)
    assert any(len(c) == 3 for c in rep.level_classes)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8),
    st.floats(min_value=0, max_value=1.0, allow_nan=False),
)
def test_equality_classes_partition(values, tol):
    ids = equality_classes(np.array(values), tol)
    assert len(ids) == len(values)
    for cid in range(ids.max() + 1):
        members = np.flatnonzero(ids == cid)
        assert len(members) > 0
    # values in one class are chained within tol; order of classes follows values
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            if abs(vi - vj) <= tol:
                assert ids[i] == ids[j]


def test_dipole_symmetric_zero_diagonal_property():
    rng = np.random.default_rng(5)
    for K in (1, 2, 3):
        A = rng.normal(size=(2**K, 2**K)) + 1.0j * rng.normal(size=(2**K, 2**K))
        sys_ = QubitSystem(K=K, H=(A + A.conj().T) / 2.0)
        dip = dipole_data(sys_, diagonalize(sys_))
        assert np.abs(dip.D - dip.D.T).max() == 0.0
        assert np.abs(np.diag(dip.D)).max() == 0.0
        assert dip.D.min() >= 0.0


def test_parity_selection_rule():
    # For H = -sum Gamma_i s_i^x the parity operator prod s_i^x commutes with
    # H, d_x is diagonal in the eigenbasis, and D only couples states of
    # opposite parity.
    Gammas = [1.0, 1.3969, 0.5182]
    K = len(Gammas)
    sys_ = QubitSystem(K=K, H=free_spin_chain(Gammas))
    spec = diagonalize(sys_)
    dip = dipole_data(sys_, spec)
    assert np.abs(dip.d_x - np.diag(np.diag(dip.d_x))).max() < 1e-12
    parity_op = np.array([[1.0 + 0.0j]])
    for _ in range(K):
        parity_op = np.kron(parity_op, PAULI_X)
    parity = np.real(np.diag(spec.eigenbasis.conj().T @ parity_op @ spec.eigenbasis))
    assert np.all(np.abs(np.abs(parity) - 1.0) < 1e-10)
    same = np.abs(parity[:, None] - parity[None, :]) < 1.0
    assert np.abs(dip.D[same]).max() < 1e-12


def test_total_spin_operator_shape():
    S = total_spin_operator(2, "z")
    expected = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
    np.testing.assert_allclose(S, expected)


def test_single_site_operator_embeds_blocks():
    # a two-qubit block on the middle of three sites: I_4 (x) op (x) I_4
    op = np.kron(PAULI_X, PAULI_Z) + 0.5j * np.kron(PAULI_Y, np.eye(2))
    expected = np.kron(np.kron(np.eye(4), op), np.eye(4))
    np.testing.assert_array_equal(single_site_operator(3, 1, op), expected)


def test_system_from_json_roundtrip():
    H = np.array([[0.0, 1.0], [1.0, 0.5]])
    sys_ = system_from_json({"dim": 2, "re": H.tolist()}, gamma=2.0)
    assert sys_.K == 1 and sys_.gamma == 2.0
    np.testing.assert_allclose(sys_.H, H)
    sys_c = system_from_json(
        {"dim": 2, "re": [[0, 0], [0, 0]], "im": [[0, -1], [1, 0]]}
    )
    np.testing.assert_allclose(sys_c.H, PAULI_Y)


def test_system_from_json_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        system_from_json({"dim": 3, "re": np.eye(3).tolist()})
    with pytest.raises(DimensionMismatch):
        system_from_json({"re": [[0.0]]})
    with pytest.raises(NonHermitian):
        system_from_json({"dim": 2, "re": [[0, 1], [0, 0]]})
    for bad in ({"dim": 2, "re": [[1, 0], [0, float("nan")]]},
                {"dim": 2, "re": [[1, 0], [0, -1]], "im": "x"},
                {"dim": -2, "re": [[0.0]]}):
        with pytest.raises(DimensionMismatch):
            system_from_json(bad)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_energy_tolerance_is_checked_once(tol):
    # build_liouvillian raised a raw IndexError at -1 and, at nan, built a
    # vanishing generator; every user of the gap partition now refuses all three
    with pytest.raises(NonPositiveField, match="energy tolerance"):
        build_liouvillian(*free_spin_system(1.0), 1.0, energy_tol=tol)
    for check in (degeneracy_report, jump_operator_groups):
        with pytest.raises(NonPositiveField, match="energy tolerance"):
            check([-1.0, 1.0], tol)
    with pytest.raises(NonPositiveField):
        degeneracy_report([], tol)
