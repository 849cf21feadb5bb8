import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from thermotimes import qome
from thermotimes.ensemble import free_spins_times
from thermotimes.errors import (
    CapExceeded,
    NoDissipativeEigenvalue,
)
from thermotimes.lba import (
    gibbs_state,
    lba_liouvillian,
    pauli_matrix,
    thermal_rates,
    thermalization_times,
)
from thermotimes.model import (
    DipoleData,
    QubitSystem,
    degeneracy_report,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
)
from thermotimes.qome import (
    build_liouvillian,
    compare,
    jump_operator_groups,
    qome_spectrum,
)

from oracles import dense_liouvillian, loop_gap_structure, random_density_matrix, synthetic_system


def modulated_gammas(N):
    i = np.arange(1, N + 1)
    return 1.0 + np.sin((i - 1) * np.pi / np.sqrt(2.0)) / 2.0


def composite(Gammas):
    system = QubitSystem(K=len(Gammas), H=free_spin_chain(Gammas))
    spec = diagonalize(system)
    return spec, dipole_data(system, spec)


def composite_liouvillian(Gammas, beta=1.0, energy_tol=None):
    return build_liouvillian(*composite(Gammas), beta, energy_tol=energy_tol)


def check_generator_health(L):
    """Trace rows vanish, Gibbs is stationary, eigenvalues sit in Re <= 0."""
    M = L.M
    diag_rows = [m * M + m for m in range(M)]
    scale = np.abs(L.matrix).max()
    assert np.abs(L.matrix[diag_rows, :].sum(axis=0)).max() <= 1e-9 * scale
    rho_eq = np.diag(gibbs_state(L.energies, L.beta)).astype(complex)
    assert np.abs(L.matrix @ rho_eq.reshape(-1)).max() <= 1e-8 * scale
    ev = np.linalg.eigvals(L.matrix)
    assert ev.real.max() <= 1e-9 * np.abs(ev).max()


def test_single_free_spin_reproduces_reference_times():
    L = composite_liouvillian([1.0])
    check_generator_health(L)
    spectrum = qome_spectrum(L)
    assert spectrum.tau_P == pytest.approx(0.04760, abs=1e-5)
    assert spectrum.tau_Q == pytest.approx(0.09520, abs=1e-5)
    assert spectrum.zero_multiplicity == 1


def test_zero_dipole_gives_coherent_spectrum():
    spec, _ = free_spin_system(1.0)
    zero = np.zeros((2, 2), dtype=complex)
    dip = DipoleData(d_x=zero, d_y=zero, d_z=zero, gamma=1.0)
    L = build_liouvillian(spec, dip, 1.0)
    ev = np.sort_complex(np.linalg.eigvals(L.matrix))
    np.testing.assert_allclose(ev, [-2.0j, 0.0, 0.0, 2.0j], atol=1e-12)
    with pytest.raises(NoDissipativeEigenvalue):
        qome_spectrum(L)


def test_qome_spectrum_purely_real_generator():
    # a generator without oscillatory modes: decoherence time is undefined
    from thermotimes.qome import Liouvillian

    L = Liouvillian(
        dim=4,
        blocks=((np.zeros(1), np.arange(4)[None], np.diag([0.0, -1.0, -1.0, -2.0])[None] + 0j),),
        energies=np.array([0.0, 1.0]), energy_tol=1e-9, beta=1.0,
    )
    spectrum = qome_spectrum(L)
    assert spectrum.tau_P == pytest.approx(1.0)
    assert spectrum.tau_P_multiplicity == 2
    assert spectrum.tau_Q is None


def test_jump_groups_two_equal_spins():
    system = QubitSystem(K=2, H=free_spin_chain([1.0, 1.0]))
    spec = diagonalize(system)
    groups = dict()
    for omega, pairs in jump_operator_groups(spec.energies):
        groups[round(omega, 6)] = pairs
    # levels (-2, 0, 0, 2): the single-gap group holds 4 dyads, the double gap 1
    assert len(groups[2.0]) == 4
    assert set(groups[2.0]) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert len(groups[4.0]) == 1
    assert groups[4.0] == ((0, 3),)


def test_jump_groups_single_spin_all_singletons():
    for omega, pairs in jump_operator_groups(np.array([-1.0, 1.0])):
        assert len(pairs) == 1


def test_jump_groups_nonuniform_pair_has_parity_degeneracy():
    G1, G2 = 1.0, 1.3969
    energies = np.sort([s1 * G1 + s2 * G2 for s1 in (-1, 1) for s2 in (-1, 1)])
    groups = jump_operator_groups(energies)
    sizes = {len(pairs) for _, pairs in groups}
    assert max(sizes) > 1  # the 2*G1 gap appears on both parity branches


def test_modulated_three_spins_reference_times():
    L = composite_liouvillian(modulated_gammas(3))
    check_generator_health(L)
    spectrum = qome_spectrum(L)
    assert spectrum.tau_P == pytest.approx(0.21406, abs=1e-5)
    assert spectrum.tau_Q == pytest.approx(0.42813, abs=2e-5)
    assert spectrum.zero_multiplicity == 1


def test_uniform_field_multiple_steady_states():
    mult = {}
    for N in (2, 3):
        L = composite_liouvillian([1.0] * N)
        check_generator_health(L)
        spectrum = qome_spectrum(L)
        mult[N] = spectrum.zero_multiplicity
    assert mult[2] > 1
    assert mult[3] > mult[2]


def test_equivalence_for_nondegenerate_systems():
    rng = np.random.default_rng(101)
    for trial in range(4):
        spec, dip = synthetic_system(rng, 3 + (trial % 2))
        beta = 0.9
        Lq = build_liouvillian(spec, dip, beta)
        Ll = lba_liouvillian(spec, dip, beta)
        assert np.abs(Lq.matrix - Ll).max() < 1e-10


def test_population_sector_equals_rate_matrix_under_gap_degeneracy():
    # modulated pair: nondegenerate levels but degenerate gaps; the diagonal
    # sector must still close on itself and reproduce the rate matrix
    Gs = modulated_gammas(2)
    L = composite_liouvillian(Gs)
    M = 4
    diag = [m * M + m for m in range(M)]
    off = [k * M + j for k in range(M) for j in range(M) if k != j]
    assert np.abs(L.matrix[np.ix_(diag, off)]).max() < 1e-12
    system = QubitSystem(K=2, H=free_spin_chain(Gs))
    spec = diagonalize(system)
    dip = dipole_data(system, spec)
    rates = thermal_rates(spec, dip, 1.0)
    A = np.diag(rates.B) - rates.L2
    assert np.abs(L.matrix[np.ix_(diag, diag)].real - (-A)).max() < 1e-10
    assert np.abs(L.matrix[np.ix_(diag, diag)].imag).max() < 1e-12


def test_hermiticity_and_trace_preserved_under_evolution():
    for Gs in ([1.0, 1.0], list(modulated_gammas(2))):
        L = composite_liouvillian(Gs)
        M = 4
        rho0 = random_density_matrix(np.random.default_rng(5), M)
        for t in (0.1, 1.0):
            rho_t = (expm(L.matrix * t) @ rho0.reshape(-1)).reshape(M, M)
            assert np.abs(rho_t - rho_t.conj().T).max() < 1e-8
            assert abs(np.trace(rho_t).real - 1.0) < 1e-8


def test_energy_tol_merges_near_degenerate_gaps():
    # with a huge tolerance the modulated pair is treated as uniform-like and
    # picks up the degenerate steady-state pathology
    Gs = modulated_gammas(2)
    default = qome_spectrum(composite_liouvillian(Gs))
    widened = qome_spectrum(composite_liouvillian(Gs, energy_tol=1.0))
    assert default.zero_multiplicity == 1
    assert widened.zero_multiplicity > 1


def test_cap_exceeded(monkeypatch):
    monkeypatch.setattr(qome, "LIOUVILLIAN_CAP", 2)
    spec, dip = free_spin_system(1.0)
    with pytest.raises(CapExceeded):
        build_liouvillian(spec, dip, 1.0)


def test_compare_modulated_pair():
    Gs = modulated_gammas(2)
    lba = free_spins_times(Gs, beta=1.0)
    spectrum = qome_spectrum(composite_liouvillian(Gs))
    report = compare(lba, spectrum)
    assert report.agree_P  # both 0.04760
    assert not report.agree_Q  # 0.07493 vs 0.09520
    assert report.dev_Q == pytest.approx(abs(0.09520 - 0.07493) / 0.07493, rel=1e-2)
    assert not report.pathology_flags.multiple_steady_states
    assert report.pathology_flags.tauP_depends_on_N is None


def test_compare_single_system_all_agree():
    spec, dip = free_spin_system(1.0)
    rates = thermal_rates(spec, dip, 1.0)
    lba = thermalization_times(pauli_matrix(rates, spec), rates)
    spectrum = qome_spectrum(build_liouvillian(spec, dip, 1.0))
    deg = degeneracy_report(spec.energies, 1e-9)
    report = compare(lba, spectrum)
    assert not deg.has_level_degeneracy and not deg.has_gap_degeneracy
    assert report.agree_P and report.agree_Q
    assert not report.pathology_flags.multiple_steady_states


def test_compare_uniform_series_flags():
    series = []
    spectra = {}
    for N in (2, 3):
        spectra[N] = qome_spectrum(composite_liouvillian([1.0] * N))
        series.append((N, spectra[N].tau_P, spectra[N].tau_Q))
    lba = free_spins_times([1.0] * 3, beta=1.0)
    deg = degeneracy_report(
        diagonalize(QubitSystem(K=3, H=free_spin_chain([1.0] * 3))).energies,
        1e-9,
    )
    report = compare(lba, spectra[3], qome_series=series)
    assert report.pathology_flags.multiple_steady_states
    assert report.pathology_flags.tauQ_not_1_over_N is True
    assert deg.has_level_degeneracy and deg.has_gap_degeneracy


def test_equivalence_theorem_times_also_agree():
    rng = np.random.default_rng(55)
    spec, dip = synthetic_system(rng, 4)
    beta = 1.1
    rates = thermal_rates(spec, dip, beta)
    lba = thermalization_times(pauli_matrix(rates, spec), rates)
    spectrum = qome_spectrum(build_liouvillian(spec, dip, beta))
    assert spectrum.tau_P == pytest.approx(lba.tau_P, rel=1e-8)
    assert spectrum.tau_Q == pytest.approx(lba.tau_Q, rel=1e-8)


def test_blocks_scatter_to_the_dense_generator():
    cases = [(*composite(Gs), None) for N in range(1, 5)
             for Gs in (modulated_gammas(N), [1.0] * N)]
    cases.append((*composite(modulated_gammas(2)), 1.0))
    rng = np.random.default_rng(303)
    cases += [(*synthetic_system(rng, 3 + trial % 3), None) for trial in range(10)]
    for spec, dip, energy_tol in cases:
        for beta in (1e-3, 1.0, 100.0):
            L = build_liouvillian(spec, dip, beta, energy_tol=energy_tol)
            assert np.array_equal(L.matrix, dense_liouvillian(spec, dip, beta, energy_tol))
            covered = np.sort(np.concatenate([idx.ravel() for _, idx, _ in L.blocks]))
            assert np.array_equal(covered, np.arange(L.dim))
            assert list(np.concatenate([omegas for omegas, _, _ in L.blocks])).count(0.0) == 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    M=st.integers(min_value=2, max_value=6),
    log_tol=st.one_of(st.none(), st.floats(min_value=-12.0, max_value=0.0)),
    log_beta=st.floats(min_value=-3.0, max_value=2.0),
)
@example(seed=923435308, M=6, log_tol=-0.98, log_beta=-1.5)
def test_block_layout(seed, M, log_tol, log_beta):
    spec, dip = synthetic_system(np.random.default_rng(seed), M)
    E = spec.energies
    energy_tol = 0.0 if log_tol is None else float(E[-1] - E[0]) * 10.0**log_tol
    beta = 10.0**log_beta
    L = build_liouvillian(spec, dip, beta, energy_tol=energy_tol)
    sizes = [idx.shape[1] for _, idx, _ in L.blocks]
    assert sizes == sorted(set(sizes))
    for omegas, idx, stack in L.blocks:
        assert omegas.shape == idx.shape[:1] and stack.shape == idx.shape + idx.shape[1:]
        assert np.all(np.diff(idx, axis=1) > 0)
    assert np.array_equal(np.sort(np.concatenate([idx.ravel() for _, idx, _ in L.blocks])),
                          np.arange(L.dim))
    assert list(np.concatenate([omegas for omegas, _, _ in L.blocks])).count(0.0) == 1
    # Where the tolerance chains the transition frequencies E_k - E_m and the
    # Bohr frequencies E_m - E_n into different classes, the dense oracle gates
    # the feeding term on the former alone and keeps entries between two Bohr
    # classes, which the block generator drops by construction (the explicit
    # example, at a tolerance of 0.105 of the spread, has 60 such entries of up
    # to 33 in modulus). So the two are compared within the Bohr classes only.
    gap_ids = loop_gap_structure(E, energy_tol)[1].ravel()
    same_class = gap_ids[:, None] == gap_ids[None, :]
    A, ref = L.matrix, dense_liouvillian(spec, dip, beta, energy_tol)
    assert np.array_equal(A[same_class], ref[same_class])
    assert not A[~same_class].any()


def test_assembly_holds_little_beyond_the_stacks():
    # the uniform N = 5 composite (11 blocks, largest 252): building every
    # block's entries in one pass peaked at 5.5 times the stored stacks
    spec, dip = composite([1.0] * 5)
    tracemalloc.start()
    try:
        L = build_liouvillian(spec, dip, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(stack.nbytes for _, _, stack in L.blocks)


def test_block_count_and_size_modulated_six_spins():
    L = composite_liouvillian(modulated_gammas(6))
    assert sum(len(omegas) for omegas, _, _ in L.blocks) == 729
    assert L.blocks[-1][1].shape[1] == 64  # the stacks ascend in size


def test_blocks_are_solved_as_stated():
    # each block's dissipator as it is stored, -i omega put on its eigenvalues,
    # stack by stack; the batched solve gives each block what its own solve gives
    for spec, dip in [composite(modulated_gammas(3)), composite([1.0] * 3)]:
        L = build_liouvillian(spec, dip, 2.0)
        ev = qome_spectrum(L).eigenvalues
        start = 0
        for omegas, _, stack in L.blocks:
            for omega, block in zip(omegas, stack):
                want = np.linalg.eigvals(block) - 1j * omega
                assert np.array_equal(ev[start:start + len(block)], want)
                start += len(block)
        assert start == len(ev)


def test_no_loop_over_blocks_in_assembly_or_solve(monkeypatch):
    # 729 Bohr blocks of 7 sizes: the assembly makes one einsum per dipole component
    # and block size (21; a loop over blocks would make 2187) and the solve one
    # eigvals call per block size, whatever the block count
    spec, dip = composite(modulated_gammas(6))
    calls = {"einsum": 0, "eigvals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qome.np, "einsum", counted("einsum", qome.np.einsum))
    monkeypatch.setattr(qome.np.linalg, "eigvals", counted("eigvals", qome.np.linalg.eigvals))
    L = build_liouvillian(spec, dip, 1.0)
    assert sum(len(omegas) for omegas, _, _ in L.blocks) == 729
    assert len(L.blocks) == 7 and calls["einsum"] == 3 * 7
    qome_spectrum(L)
    assert calls["eigvals"] == len(L.blocks)


def test_hot_strong_uniform_field_tau_P_matches_detailed_balance():
    # one eigensolve of the whole generator splits its 42-fold zero cluster
    # into rates as large as the slowest decay (tau_P 1.264e-9, not 4.76e-11)
    beta, Gamma = 1e-3, 1e3
    spectrum = qome_spectrum(composite_liouvillian([Gamma] * 5, beta=beta))
    expected = free_spins_times([Gamma] * 5, beta=beta).tau_P
    assert spectrum.tau_P == pytest.approx(expected, rel=1e-9)
    assert spectrum.zero_multiplicity == 42


def test_generator_healthy_when_transition_and_bohr_classes_chain_differently():
    # at this tolerance the tolerance chains of the transition frequencies and
    # of the Bohr frequencies differ; gating the feeding term on the former
    # alone coupled different Bohr classes, broke the trace by 0.14 and gave
    # eigenvalues with Re > 0
    L = composite_liouvillian([1.48767, 0.91544, 0.68267], energy_tol=0.381)
    M = L.M
    A = L.matrix
    diag_rows = [m * M + m for m in range(M)]
    assert np.abs(A[diag_rows, :].sum(axis=0)).max() <= 1e-12 * np.abs(A).max()
    for _, _, stack in L.blocks:
        assert np.linalg.eigvals(stack).real.max() <= 1e-12 * np.abs(A).max()
