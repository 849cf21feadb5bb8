import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermotimes import ensemble, model
from thermotimes.cli import modulated_gammas
from thermotimes.ensemble import (
    EnsembleMember,
    EnsembleSpec,
    bell_rotation,
    compose_rate_matrix,
    ensemble_times,
    ensemble_times_numeric,
    free_spins_times,
    verify_product_basis_decoupling,
)
from thermotimes.errors import (
    CapExceeded,
    DetailedBalanceViolation,
    EmptyEnsemble,
    NonPositiveBeta,
    NonPositiveField,
)
from thermotimes.lba import gibbs_state, pauli_matrix, thermal_rates, thermalization_times
from thermotimes.model import free_spin_system

from oracles import (
    chained_kronecker_sum,
    embedded_kronecker_sum,
    random_hermitian,
    synthetic_system,
)


def spin_member(Gamma, gamma=1.0, count=1):
    spec, dip = free_spin_system(Gamma, gamma)
    return EnsembleMember(spec, dip, count=count)


def spin_pauli(Gamma, beta, gamma=1.0):
    spec, dip = free_spin_system(Gamma, gamma)
    rates = thermal_rates(spec, dip, beta)
    return pauli_matrix(rates, spec), rates


def test_compose_two_equal_free_spins():
    pm, _ = spin_pauli(1.0, 1.0)
    composed = compose_rate_matrix([pm, pm])
    mu2 = 16.0 / math.tanh(1.0)
    np.testing.assert_allclose(composed.eigenvalues, [0.0, mu2, mu2, 2 * mu2],
                               atol=1e-10 * mu2)
    assert composed.M == 4


def test_compose_single_member_unchanged():
    pm, _ = spin_pauli(1.0, 1.0)
    assert compose_rate_matrix([pm]) is pm


def test_compose_eigenvalues_are_pairwise_sums():
    pm_a, _ = spin_pauli(0.7, 1.2)
    pm_b, _ = spin_pauli(1.9, 1.2)
    composed = compose_rate_matrix([pm_a, pm_b])
    sums = np.sort([a + b for a in pm_a.eigenvalues for b in pm_b.eigenvalues])
    scale = sums.max()
    assert np.abs(composed.eigenvalues - sums).max() < 1e-10 * scale


def test_compose_respects_cap(monkeypatch):
    monkeypatch.setattr(ensemble, "COMPOSE_CAP", 4)
    pm, _ = spin_pauli(1.0, 1.0)
    with pytest.raises(CapExceeded):
        compose_rate_matrix([pm] * 3)


def test_compose_requires_matching_beta():
    pm_a, _ = spin_pauli(1.0, 1.0)
    pm_b, _ = spin_pauli(1.0, 2.0)
    from thermotimes.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        compose_rate_matrix([pm_a, pm_b])


def test_ensemble_times_equal_free_spins():
    # tau_P is size independent; tau_Q follows the uniform-field closed form,
    # sinh(1) / (8 (sinh(1) + N/e)) at Gamma = gamma = beta = 1
    for N in (1, 2, 5):
        times = ensemble_times(EnsembleSpec((spin_member(1.0, count=N),), beta=1.0))
        assert times.tau_P == pytest.approx(math.tanh(1.0) / 16.0, rel=1e-12)
        expected_q = math.sinh(1.0) / (8.0 * (math.sinh(1.0) + N * math.exp(-1.0)))
        assert times.tau_Q == pytest.approx(expected_q, rel=1e-12)
    times2 = ensemble_times(EnsembleSpec((spin_member(1.0, count=2),), beta=1.0))
    assert times2.tau_Q == pytest.approx(0.076872, abs=1e-6)


def test_ensemble_times_single_member_reduces():
    spec, dip = free_spin_system(1.3)
    rates = thermal_rates(spec, dip, 0.9)
    single = thermalization_times(pauli_matrix(rates, spec), rates)
    times = ensemble_times(EnsembleSpec(((spec, dip, 1),), beta=0.9))
    assert times.tau_P == pytest.approx(single.tau_P, rel=1e-14)
    assert times.tau_Q == pytest.approx(single.tau_Q, rel=1e-14)
    assert times.tau == pytest.approx(single.tau, rel=1e-14)


def brute_force_tau_q(members, beta):
    """Smallest sum of two distinct product-space escape rates, by enumeration."""
    B_lists = []
    for member in members:
        rates = thermal_rates(member.spectrum, member.dipole, beta)
        B_lists.extend([rates.B] * member.count)
    sums = [sum(combo) for combo in itertools.product(*B_lists)]
    sums.sort()
    return 2.0 / (sums[0] + sums[1])


def test_ensemble_times_vs_bruteforce_enumeration():
    members = (spin_member(0.8), spin_member(1.7))
    spec = EnsembleSpec(members, beta=1.0)
    times = ensemble_times(spec)
    assert times.tau_Q == pytest.approx(brute_force_tau_q(members, 1.0), rel=1e-12)


def test_ensemble_times_mixture_with_counts():
    rng = np.random.default_rng(17)
    m_spec, m_dip = synthetic_system(rng, 3)
    members = (EnsembleMember(m_spec, m_dip, count=2), spin_member(1.2, count=1))
    spec = EnsembleSpec(members, beta=0.7)
    times = ensemble_times(spec)
    assert times.tau_Q == pytest.approx(brute_force_tau_q(members, 0.7), rel=1e-12)
    # tau_P is the worst member relaxation time
    assert times.tau_P == pytest.approx(1.0 / times.per_member_mu2.min(), rel=1e-14)


def test_free_spins_times_reference_rows():
    i = np.arange(1, 14)
    G13 = 1.0 + np.sin((i - 1) * np.pi / np.sqrt(2.0)) / 2.0
    times = free_spins_times(G13, beta=1.0)
    assert times.tau_P == pytest.approx(0.22800, abs=1e-5)
    assert times.tau_Q == pytest.approx(0.03245, abs=1e-5)
    i = np.arange(1, 100001)
    G = 1.0 + np.sin((i - 1) * np.pi / np.sqrt(2.0)) / 2.0
    times = free_spins_times(G, beta=1.0)
    assert times.tau_P == pytest.approx(0.23106, abs=1e-5)
    assert times.tau_Q == pytest.approx(4.458e-6, abs=1e-9)


def test_free_spins_times_matches_composition():
    Gs = (0.8, 1.7)
    analytic = free_spins_times(Gs, beta=1.0)
    composed = ensemble_times(
        EnsembleSpec(tuple(spin_member(G) for G in Gs), beta=1.0)
    )
    assert analytic.tau_P == pytest.approx(composed.tau_P, rel=1e-12)
    assert analytic.tau_Q == pytest.approx(composed.tau_Q, rel=1e-12)


def test_free_spins_times_input_validation():
    with pytest.raises(EmptyEnsemble):
        free_spins_times([], beta=1.0)
    with pytest.raises(NonPositiveField):
        free_spins_times([1.0, -0.1], beta=1.0)
    with pytest.raises(NonPositiveBeta):
        free_spins_times([1.0], beta=0.0)
    # NaN gave tau = nan and an infinite field a raw RuntimeWarning
    for Gs, gamma in (([1.0], math.nan), ([math.nan], 1.0), ([math.inf], 1.0), ([1.0], math.inf)):
        with pytest.raises(NonPositiveField, match="finite and > 0"):
            free_spins_times(Gs, 1.0, gamma=gamma)


def test_free_spins_times_finite_at_low_temperature():
    # beta * Gamma = 800 overflows cosh and sinh; the closed forms must not
    for Gs in ([1.0] * 10, 1.0 + np.sin(np.arange(10) * np.pi / np.sqrt(2.0)) / 2.0):
        for N in range(1, 11):
            analytic = free_spins_times(Gs[:N], beta=800.0)
            assert all(math.isfinite(t) for t in (analytic.tau_P, analytic.tau_Q, analytic.tau))
            assert analytic.tau == max(analytic.tau_P, analytic.tau_Q)
            spec = EnsembleSpec(tuple(spin_member(G) for G in Gs[:N]), beta=800.0)
            numeric = ensemble_times_numeric(spec)
            assert analytic.tau_P == pytest.approx(numeric.tau_P, rel=1e-9)
            assert analytic.tau_Q == pytest.approx(numeric.tau_Q, rel=1e-12)
            assert analytic.tau == pytest.approx(numeric.tau, rel=1e-9)


def test_numeric_path_matches_analytic():
    Gs = 1.0 + np.sin(np.arange(6) * np.pi / np.sqrt(2.0)) / 2.0
    spec = EnsembleSpec(tuple(spin_member(G) for G in Gs), beta=1.0)
    numeric = ensemble_times_numeric(spec)
    analytic = free_spins_times(Gs, beta=1.0)
    assert numeric.tau_P == pytest.approx(analytic.tau_P, rel=1e-9)
    assert numeric.tau_Q == pytest.approx(analytic.tau_Q, rel=1e-12)


def test_numeric_path_respects_cap(monkeypatch):
    monkeypatch.setattr(ensemble, "NUMERIC_CAP", 8)
    spec = EnsembleSpec((spin_member(1.0, count=4),), beta=1.0)
    with pytest.raises(CapExceeded):
        ensemble_times_numeric(spec)


def test_tau_p_independent_of_ensemble_size():
    taus = {
        ensemble_times(EnsembleSpec((spin_member(1.0, count=n),), beta=1.0)).tau_P
        for n in (1, 2, 5, 10)
    }
    assert len(taus) == 1


def test_tau_q_closed_form_and_scaling():
    spec0, dip0 = free_spin_system(1.0)
    rates = thermal_rates(spec0, dip0, 1.0)
    B1, B2 = np.sort(rates.B)
    for N in range(1, 21):
        times = ensemble_times(EnsembleSpec((spin_member(1.0, count=N),), beta=1.0))
        denom = (2 * N - 1) * B1 + B2
        assert times.tau_Q * denom == pytest.approx(2.0, rel=1e-14)
        if N <= 5:
            assert times.tau_Q == pytest.approx(
                brute_force_tau_q((spin_member(1.0, count=N),), 1.0), rel=1e-12
            )
    # 1/N asymptotics: N * tau_Q approaches 2 / (2 B1) = 1 / B1
    big = ensemble_times(EnsembleSpec((spin_member(1.0, count=10000),), beta=1.0))
    assert 10000 * big.tau_Q == pytest.approx(1.0 / B1, rel=1e-3)


def test_tau_q_below_tau_p_for_larger_ensembles():
    # modulated family: decoherence is already the faster process at N = 3
    for N in (3, 5, 10):
        i = np.arange(1, N + 1)
        Gs = 1.0 + np.sin((i - 1) * np.pi / np.sqrt(2.0)) / 2.0
        times = free_spins_times(Gs, beta=1.0)
        assert times.tau_Q <= times.tau_P
        assert times.tau == times.tau_P
    # uniform field at Gamma = beta = 1: the closed forms cross at
    # N = e (2 cosh 1 - sinh 1) ~ 5.19, so from N = 6 on
    for N in (6, 12, 50):
        times = ensemble_times(EnsembleSpec((spin_member(1.0, count=N),), beta=1.0))
        assert times.tau_Q <= times.tau_P
        assert times.tau == times.tau_P


def test_kronecker_spectral_identity_three_members():
    rng = np.random.default_rng(29)
    pms = []
    for M in (2, 3, 4):
        spec, dip = synthetic_system(rng, M)
        pms.append(pauli_matrix(thermal_rates(spec, dip, 1.0), spec))
    composed = compose_rate_matrix(pms)
    sums = np.sort([
        a + b + c
        for a in pms[0].eigenvalues
        for b in pms[1].eigenvalues
        for c in pms[2].eigenvalues
    ])
    assert np.abs(composed.eigenvalues - sums).max() < 1e-10 * sums.max()


def test_composed_zero_eigenvalue_unique():
    pm, _ = spin_pauli(1.0, 1.0)
    for n in (2, 3):
        composed = compose_rate_matrix([pm] * n)
        mu = composed.eigenvalues
        assert int(np.sum(mu < 1e-10 * mu.max())) == 1


def test_compose_at_low_temperature():
    # at beta = 2000 the Gibbs similarity factor e^{beta E / 2} overflows;
    # the composed symmetrization must not depend on it
    pm, _ = spin_pauli(1.0, 2000.0)
    for n in (2, 3):
        composed = compose_rate_matrix([pm] * n)
        sums = np.sort([sum(c) for c in itertools.product(pm.eigenvalues, repeat=n)])
        mu = composed.eigenvalues
        assert np.abs(mu - sums).max() <= 1e-10 * sums.max()
        assert int(np.sum(mu < 1e-10 * mu.max())) == 1


def _random_symmetric_factor(rng, M):
    X = rng.normal(size=(M, M))
    zero = rng.random((M, M)) < 0.3
    X[zero | zero.T] = 0.0
    return X + X.T


def test_kronecker_sum_equals_chained_reference():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for _ in range(3):
            mats = [_random_symmetric_factor(rng, int(rng.choice([2, 3]))) for _ in range(n)]
            reference = chained_kronecker_sum(mats).toarray()
            assert np.array_equal(ensemble._sparse_kronecker_sum(mats).toarray(), reference)
            assert np.array_equal(model._kronecker_sum(mats), reference)
    # complex Hermitian factors of unequal sizes against the np.kron chains, bit
    # for bit: negative zeros in the factors (structural zeros, the real part of
    # imaginary couplings as in sigma_y, the imaginary part of the diagonal) come
    # out as the chains give them
    for n in range(1, 5):
        for _ in range(3):
            mats = []
            for M in rng.choice([1, 2, 3, 4], size=n):
                X = random_hermitian(rng, int(M))
                imaginary, zero = (np.triu(rng.random(X.shape) < 0.3, 1) for _ in range(2))
                X.real[imaginary | imaginary.T] = -0.0
                X.imag[np.diag_indices_from(X)] = -0.0
                X[zero | zero.T] = -0.0
                mats.append(X)
            got, want = model._kronecker_sum(mats), embedded_kronecker_sum(mats)
            assert got.dtype == want.dtype == complex
            assert np.array_equal(got, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
    pms = []
    for M in (2, 3, 4):
        spec, dip = synthetic_system(rng, M)
        pms.append(pauli_matrix(thermal_rates(spec, dip, 0.7), spec))
    composed = compose_rate_matrix(pms)
    assert np.array_equal(composed.S, chained_kronecker_sum([pm.S for pm in pms]).toarray())
    assert np.array_equal(composed.A, chained_kronecker_sum([pm.A for pm in pms]).toarray())


def _spin_ensemble(Gs, beta):
    return EnsembleSpec(tuple(spin_member(G) for G in Gs), beta=beta)


def _assert_routes_agree(spec):
    numeric, analytic = ensemble_times_numeric(spec), ensemble_times(spec)
    for key in ("tau_P", "tau_Q", "tau"):
        assert getattr(numeric, key) == pytest.approx(getattr(analytic, key), rel=1e-9), key


@pytest.mark.parametrize("beta", [200.0, 1e3, 1e4])
def test_numeric_route_matches_closed_form_at_low_temperature(beta):
    # the Lanczos branch once returned a tau_P 8.4% short here from N = 11 up
    for N in range(9, 14):
        _assert_routes_agree(_spin_ensemble(modulated_gammas(N), beta))
    _assert_routes_agree(EnsembleSpec((spin_member(1.0, count=11),), beta=beta))


@pytest.mark.parametrize("N", [7, 8])
@pytest.mark.parametrize("modulated", [False, True])
def test_lanczos_from_dimension_128_matches_closed_form(N, modulated):
    assert 2**N > ensemble.DENSE_EIG_LIMIT  # the Gibbs-deflated Lanczos branch
    Gs = modulated_gammas(N) if modulated else np.ones(N)
    for beta in np.logspace(-3.0, 4.0, 29):
        numeric, closed = ensemble_times_numeric(_spin_ensemble(Gs, beta)), free_spins_times(Gs, beta)
        assert numeric.tau_P == pytest.approx(closed.tau_P, rel=1e-12, abs=0)
        assert numeric.tau_Q == pytest.approx(closed.tau_Q, rel=1e-12, abs=0)


@settings(max_examples=25, deadline=None)
@given(
    log_beta=st.floats(min_value=-3.0, max_value=4.0),
    log_Gamma=st.floats(min_value=-3.0, max_value=3.0),
    N=st.integers(min_value=9, max_value=12),
    modulated=st.booleans(),
)
def test_numeric_route_property(log_beta, log_Gamma, N, modulated):
    beta, Gamma = 10.0 ** log_beta, 10.0 ** log_Gamma
    Gs = Gamma * (modulated_gammas(N) if modulated else np.ones(N))
    _assert_routes_agree(_spin_ensemble(Gs, beta))
    pms = [spin_pauli(G, beta)[0] for G in Gs]
    S = chained_kronecker_sum([pm.S for pm in pms])
    q = np.sqrt(gibbs_state(functools.reduce(np.add.outer, [pm.energies for pm in pms]).ravel(), beta))
    c = abs(S).sum(axis=1).max()
    assert np.abs(S @ q).max() <= 1e-12 * c


def test_numeric_route_checks_the_gibbs_null_vector(monkeypatch):
    monkeypatch.setattr(ensemble, "gibbs_state", lambda E, beta: gibbs_state(E, 2.0 * beta))
    with pytest.raises(DetailedBalanceViolation):
        ensemble_times_numeric(_spin_ensemble(modulated_gammas(9), 1.0))


def test_empty_ensemble_rejected():
    with pytest.raises(EmptyEnsemble):
        EnsembleSpec((), beta=1.0)
    with pytest.raises(EmptyEnsemble):
        EnsembleMember(*free_spin_system(1.0), count=0)


# ---------------------------------------------------------------------------
# product-basis decoupling
# ---------------------------------------------------------------------------

def test_decoupling_holds_in_product_basis():
    a = free_spin_system(1.0)
    check = verify_product_basis_decoupling(a, a, beta=1.0)
    assert check.ok
    assert check.max_deviation < 1e-12
    # escape-rate additivity comes out of the same measurement
    spec, dip = a
    rates = thermal_rates(spec, dip, 1.0)
    pred_B = (rates.B[:, None] + rates.B[None, :]).ravel()
    assert np.abs(check.B - pred_B).max() < 1e-12 * pred_B.max()


def test_decoupling_vacuous_for_single_system():
    check = verify_product_basis_decoupling(free_spin_system(1.0), None, beta=1.0)
    assert check.ok and check.max_deviation == 0.0


def test_decoupling_fails_in_bell_basis_with_mixed_form():
    a = free_spin_system(1.0)
    check = verify_product_basis_decoupling(a, a, beta=1.0, basis="bell")
    assert not check.ok
    # the violation is the dipole element connecting the two Bell partners
    assert check.max_deviation == pytest.approx(2.0, rel=1e-12)
    # measured C equals the half-weighted four-delta mixed form
    spec, dip = a
    C1 = thermal_rates(spec, dip, 1.0).C
    M = 2
    mixed = np.zeros((4, 4))
    for m in range(M):
        for n in range(M):
            for p in range(M):
                for q in range(M):
                    mixed[m * M + n, p * M + q] = (
                        C1[m, p] * (n == q) + C1[n, q] * (m == p)
                        + C1[m, q] * (n == p) + C1[n, p] * (m == q)
                    ) / 2.0
    assert np.abs(check.C - mixed).max() < 1e-12 * mixed.max()


def test_decoupling_product_basis_random_members():
    rng = np.random.default_rng(37)
    a = synthetic_system(rng, 3)
    b = synthetic_system(rng, 4)
    check = verify_product_basis_decoupling(a, b, beta=0.8)
    assert check.ok
    assert check.max_deviation < 1e-10


def test_decoupling_respects_cap():
    rng = np.random.default_rng(38)
    a = synthetic_system(rng, 9)
    b = synthetic_system(rng, 9)
    with pytest.raises(CapExceeded):
        verify_product_basis_decoupling(a, b, beta=1.0)


def test_bell_rotation_is_unitary():
    for M in (2, 3):
        T = bell_rotation(M)
        assert np.abs(T.conj().T @ T - np.eye(M * M)).max() < 1e-14
