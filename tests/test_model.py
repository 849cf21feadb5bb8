import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermotimes.ensemble import EnsembleMember
from thermotimes.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    EmptyEnsemble,
    NonHermitian,
    NonPositiveField,
)
from thermotimes.lba import thermal_rates
from thermotimes.model import (
    DipoleData,
    EnergySpectrum,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    QubitSystem,
    _gap_structure,
    _kronecker_sum,
    degeneracy_report,
    diagonalize,
    dipole_data,
    equality_classes,
    free_spin_chain,
    free_spin_system,
    system_from_json,
    total_spin_operator,
)

from thermotimes.qome import (
    _check_member_premise,
    build_liouvillian,
    qome_spectrum,
    uniform_spin_spectrum,
)

from oracles import (
    brute_force_dipole,
    charpoly_eigvals,
    loop_equality_classes,
    loop_gap_structure,
    spin_sector_system,
)


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


@pytest.mark.parametrize("energies", [[np.nan, 1.0], [-1.0, np.inf], [-np.inf, 1.0], [np.nan], [1.0, 0.0]])
def test_energy_spectrum_refuses_nonfinite_or_unsorted_energies(energies):
    # [nan, 1] passed the order check (nan < 0 is false), and [-1, inf] reached
    # thermal_rates, which stopped in a raw RuntimeWarning
    with pytest.raises(DegenerateSpectrum, match="finite and ascending"):
        EnergySpectrum(M=len(energies), energies=energies, eigenbasis=np.eye(len(energies)))


def test_fully_degenerate_spectrum_is_refused_by_thermal_rates():
    # diagonalize returns every spectrum; thermal_rates, the one consumer that
    # needs distinct levels, refuses equal ones and ones within degeneracy_tol
    for H in (np.zeros((2, 2), dtype=complex), np.diag([-1.0, 0.0, 1e-12, 1.0])):
        sys_ = QubitSystem(K=H.shape[0].bit_length() - 1, H=H)
        spec = diagonalize(sys_)
        assert not spec.is_nondegenerate
        with pytest.raises(DegenerateSpectrum, match="thermal_rates requires a nondegenerate"):
            thermal_rates(spec, dipole_data(sys_, spec), 1.0)


@pytest.mark.parametrize("tol", [np.nan, -5.0, np.inf])
def test_degeneracy_tolerance_follows_the_tolerance_rule(tol):
    # at nan the free spin's distinct levels counted as degenerate and
    # thermal_rates refused them; at -5 equal levels counted as distinct
    for energies in ([-1.0, 1.0], [0.0, 0.0]):
        with pytest.raises(NonPositiveField, match="degeneracy_tol"):
            EnergySpectrum(M=2, energies=energies, eigenbasis=np.eye(2), degeneracy_tol=tol)
    assert EnergySpectrum(M=2, energies=[0.0, 0.0], eigenbasis=np.eye(2)).degeneracy_tol == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_qubit_system_refuses_nonfinite_H(bad):
    # a NaN or inf H passed with a RuntimeWarning from the Hermiticity check
    for H in (np.diag([1.0, bad]), np.array([[0.0, bad], [np.conj(bad), 0.0]])):
        with pytest.raises(DimensionMismatch, match="finite"):
            QubitSystem(K=1, H=H)


@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, np.float64(2.0), True, "2", None],
                         ids=["0", "-1", "2.5", "2.0", "np.float64", "True", "str", "None"])
def test_sizes_are_integers_of_at_least_one(bad):
    # a fractional count ran as a fractional ensemble (ensemble_times gave
    # tau_Q 0.0701 at count 2.5) and a string or a fractional N stopped in a raw TypeError
    with pytest.raises(DimensionMismatch, match="K must be an integer >= 1"):
        QubitSystem(K=bad, H=-PAULI_X)
    with pytest.raises(DimensionMismatch, match="N must be an integer >= 1"):
        uniform_spin_spectrum(bad, 1.0, 1.0)
    with pytest.raises(EmptyEnsemble, match="member count must be an integer >= 1"):
        EnsembleMember(*free_spin_system(1.0), count=bad)


def test_numpy_integer_sizes_are_accepted():
    assert type(QubitSystem(K=np.int64(1), H=-PAULI_X).K) is int
    member = EnsembleMember(*free_spin_system(1.0), count=np.int32(3))
    assert type(member.count) is int and member.count == 3
    got, ref = uniform_spin_spectrum(np.int64(3), 1.0, 1.0), uniform_spin_spectrum(3, 1.0, 1.0)
    assert np.array_equal(got.eigenvalues, ref.eigenvalues)
    assert type(got.zero_multiplicity) is int and got.zero_multiplicity == ref.zero_multiplicity


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
    # NaN and inf passed the old `x <= 0` checks and came out as NaN energies
    # or an all-NaN Hamiltonian; every field and coupling now follows one rule
    nan, inf = float("nan"), float("inf")
    for build in (lambda: free_spin_system(nan), lambda: free_spin_system(1.0, gamma=inf),
                  lambda: uniform_spin_spectrum(2, nan, 1.0),
                  lambda: uniform_spin_spectrum(2, 1.0, 1.0, gamma=nan),
                  lambda: free_spin_chain([nan, 1.0]), lambda: free_spin_chain([1.0, inf]),
                  lambda: QubitSystem(K=1, H=-PAULI_X, gamma=nan)):
        with pytest.raises(NonPositiveField, match="finite and > 0"):
            build()


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


@st.composite
def class_inputs(draw):
    """Values for the degeneracy classes: random, chained across the tolerance,
    or drawn from a few exactly repeated levels, in shuffled order."""
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
    n = draw(st.integers(min_value=0, max_value=10))
    kind = draw(st.sampled_from(["random", "chained", "repeated"]))
    if kind == "random":
        values = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    elif kind == "chained":
        # steps just below, at and just above tol chain some neighbours and split others
        steps = draw(st.lists(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 3.0]),
                              min_size=n, max_size=n))
        values = list(draw(st.floats(-5, 5)) + np.cumsum(np.array(steps) * tol))
    else:
        levels = draw(st.lists(st.floats(-5, 5), min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    return np.array(draw(st.permutations(values)), dtype=float), tol


@settings(max_examples=200, deadline=None)
@given(class_inputs())
@example((np.array([]), 0.0))
@example((np.array([1.0, -2.0, 1.0, 1.0 + 1e-12, -2.0]), 0.0))
def test_vectorized_classes_match_the_loop_oracle(inputs):
    values, tol = inputs
    assert np.array_equal(equality_classes(values, tol), loop_equality_classes(values, tol))
    # level ids, gap ids and representatives, bit for bit
    for got, want in zip(_gap_structure(values, tol), loop_gap_structure(values, tol)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


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


def test_kronecker_sum_embeds_blocks():
    # a two-qubit block on the middle of three sites: 0 (+) op (+) 0 = I_4 (x) op (x) I_4
    op = np.kron(PAULI_X, PAULI_Z) + 0.5j * np.kron(PAULI_Y, np.eye(2))
    expected = np.kron(np.kron(np.eye(4), op), np.eye(4))
    zero = np.zeros((4, 4), dtype=complex)
    np.testing.assert_array_equal(_kronecker_sum([zero, op, zero]), expected)


def test_dipole_data_derives_D_from_its_amplitudes():
    gamma = 1.7
    _, dip = free_spin_system(0.8, gamma)
    assert np.array_equal(dip.D, [[0.0, 2.0 * gamma], [2.0 * gamma, 0.0]])
    rng = np.random.default_rng(23)
    A = rng.normal(size=(8, 8)) + 1.0j * rng.normal(size=(8, 8))
    sys_ = QubitSystem(K=3, H=(A + A.conj().T) / 2.0, gamma=gamma)
    computed = dipole_data(sys_, diagonalize(sys_))
    sectors = spin_sector_system(5, 0.9, gamma)[1]
    # the formulas dipole_data and spin_sector_system applied before D was derived
    for dip, symmetrized in ((computed, True), (sectors, False)):
        D = gamma * sum(np.abs(d) ** 2 for d in dip.amplitudes)
        if symmetrized:
            D = (D + D.T) / 2.0
        np.fill_diagonal(D, 0.0)
        assert np.array_equal(dip.D, D)
    # amplitudes Hermitian only to round-off still give an exactly symmetric D
    noisy = [d + 1e-13 * rng.normal(size=d.shape) for d in computed.amplitudes]
    dip = DipoleData(d_x=noisy[0], d_y=noisy[1], d_z=noisy[2], gamma=gamma)
    assert not np.array_equal(noisy[0], noisy[0].conj().T)
    assert np.array_equal(dip.D, dip.D.T) and not np.diag(dip.D).any()
    with pytest.raises(TypeError):
        DipoleData(*computed.amplitudes, gamma=gamma, D=computed.D)
    # gamma scales D, so it follows the library's one positivity rule
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveField, match="gamma"):
            DipoleData(*computed.amplitudes, gamma=bad)


def test_empty_products_are_refused():
    with pytest.raises(DimensionMismatch):
        free_spin_chain([])
    with pytest.raises(DimensionMismatch):
        total_spin_operator(0, "x")


def test_empty_systems_are_refused_by_the_size_rule():
    # both stopped in a raw ValueError from the max of an empty unitarity or
    # Hermiticity defect
    with pytest.raises(DimensionMismatch, match="M must be an integer >= 1, got 0"):
        EnergySpectrum(M=0, energies=[], eigenbasis=np.zeros((0, 0)))
    empty = np.zeros((0, 0), dtype=complex)
    with pytest.raises(DimensionMismatch, match="dimension must be an integer >= 1, got 0"):
        DipoleData(d_x=empty, d_y=empty, d_z=empty)


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
                {"dim": -2, "re": [[0.0]]},
                {"dim": "2", "re": [["0", "1"], ["1", "0"]]},
                {"dim": 2.0, "re": [[0, 1], [1, 0]]},
                {"dim": 2, "re": [[0, 10**400], [10**400, 0]]}):
        with pytest.raises(DimensionMismatch):
            system_from_json(bad)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_energy_tolerance_is_checked_once(tol):
    # build_liouvillian raised a raw IndexError at -1 and, at nan, built a
    # vanishing generator; every user of the gap partition now refuses all three
    with pytest.raises(NonPositiveField, match="energy tolerance"):
        build_liouvillian(*free_spin_system(1.0), 1.0, energy_tol=tol)
    with pytest.raises(NonPositiveField, match="energy tolerance"):
        degeneracy_report([-1.0, 1.0], tol)
    with pytest.raises(NonPositiveField):
        degeneracy_report([], tol)
    with pytest.raises(NonPositiveField, match="energy tolerance"):
        _check_member_premise([free_spin_system(1.0)[0]] * 2, tol)
    # tol_zero follows the same rule: at nan or -1 no eigenvalue counted as
    # zero and tau_P came out as 2.25e15 instead of 0.0476
    with pytest.raises(NonPositiveField, match="tol_zero"):
        qome_spectrum(build_liouvillian(*free_spin_system(1.0), 1.0), tol_zero=tol)
