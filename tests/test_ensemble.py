import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermotimes import ensemble, model
from thermotimes.cli import modulated_gammas
from thermotimes.ensemble import (
    EnsembleMember,
    EnsembleSpec,
    ensemble_times,
    ensemble_times_numeric,
    free_spins_times,
)
from thermotimes.errors import (
    CapExceeded,
    DetailedBalanceViolation,
    EmptyEnsemble,
    NoConvergence,
    NonPositiveBeta,
    NonPositiveField,
)
from thermotimes.lba import gibbs_state, pauli_matrix, thermal_rates, thermalization_times
from thermotimes.model import free_spin_system

import oracles
from oracles import (
    bell_rotation,
    chained_kronecker_sum,
    compose_rate_matrix,
    embedded_kronecker_sum,
    random_hermitian,
    synthetic_system,
    verify_product_basis_decoupling,
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
    monkeypatch.setattr(oracles, "COMPOSE_CAP", 4)
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


@pytest.mark.parametrize("G_last, beta, gamma", [
    (1e103, 1.0, 1.0),  # (2 Gamma)^3 overflows, against an exponential that underflows
    (1e-200, 1e-200, 1.0),  # (2 Gamma)^3 underflows, and tanh(beta Gamma) with it
    (1e-120, 1.0, 1.0),
    (1e3, 1.0, 1e300),  # gamma carries a finite cube past the float range
    (1e3, 1.0, 1.5e298),  # a finite scale whose 2 gamma (2 Gamma)^3 overflows
    (1e-100, 1e-300, 1.0),  # beta Gamma underflows: B_min = 1/0
    (1.0, 1.0, 1e-315),  # a subnormal rate: tau_P = tanh / (2 cube) overflows
])
def test_free_spins_times_refuses_rates_beyond_the_float_range(G_last, beta, gamma):
    # these gave NaN, zero or infinite times with RuntimeWarnings (the first two, NaN
    # times in the second slice, were pinned in closed_forms.json); the offending spin
    # sits alone, and in the second slice
    for G in (np.array([G_last]), np.r_[modulated_gammas(8192), G_last]):
        with pytest.raises(NonPositiveField, match=r"rate scale 2 gamma \(2 Gamma_i\)\^3 coth"):
            free_spins_times(G, beta, gamma=gamma)
    # a subnormal cube whose member rate 2 cube / tanh is a normal float keeps finite times
    assert math.isfinite(free_spins_times([1e-104], 1.0).tau)


def test_ensemble_sums_beyond_the_float_range_are_refused():
    # each member's rates are finite, their sum over three copies is not: the closed
    # forms gave tau_Q 0, the explicit route a RuntimeWarning and tau_Q 0
    with pytest.raises(NonPositiveField, match=r"rate scale 2 gamma \(2 Gamma_i\)\^3 coth"):
        free_spins_times([1.0] * 3, 1e-3, gamma=1.001e304)
    for route in (ensemble_times, ensemble_times_numeric):
        with pytest.raises(NonPositiveField, match="the rates formed from the member escape rates"):
            route(EnsembleSpec((spin_member(1.0, gamma=1e304, count=3),), beta=1e-3))


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


def test_free_spins_times_of_1e5_spins_holds_under_four_arrays_of_n():
    # Gamma, B_min and per_member_mu2 at full length, the rest in slices; a
    # whole-array pass (and building the law out of place) held 8 arrays of N
    N = 10**5
    tracemalloc.start()
    try:
        free_spins_times(modulated_gammas(N), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * N * np.dtype(float).itemsize


def test_numeric_path_matches_analytic():
    Gs = 1.0 + np.sin(np.arange(6) * np.pi / np.sqrt(2.0)) / 2.0
    spec = EnsembleSpec(tuple(spin_member(G) for G in Gs), beta=1.0)
    numeric = ensemble_times_numeric(spec)
    analytic = free_spins_times(Gs, beta=1.0)
    assert numeric.tau_P == pytest.approx(analytic.tau_P, rel=1e-9)
    assert numeric.tau_Q == pytest.approx(analytic.tau_Q, rel=1e-12)


@st.composite
def dense_species(draw):
    """One or two (M, count) species of ``synthetic_system`` members whose product
    has dimension at most DENSE_EIG_LIMIT."""
    species, room = [], ensemble.DENSE_EIG_LIMIT
    for _ in range(draw(st.integers(1, 2))):
        if room < 2:
            break
        M = draw(st.integers(2, min(room, 6)))
        count = draw(st.integers(1, max(n for n in range(1, 7) if M**n <= room)))
        species.append((M, count))
        room //= M**count
    return species


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), species=dense_species(),
       log_beta=st.floats(min_value=-3.0, max_value=4.0))
@example(seed=7, species=[(3, 1)], log_beta=0.0)  # one member, one copy
def test_dense_branch_is_the_mu2_of_compose_rate_matrix(seed, species, log_beta):
    # the dense branch builds S alone; its tau_P must be that of the composed A, bit for bit
    rng, beta = np.random.default_rng(seed), 10.0 ** log_beta
    members = tuple(EnsembleMember(*synthetic_system(rng, M), count=n) for M, n in species)
    assert math.prod(M ** n for M, n in species) <= ensemble.DENSE_EIG_LIMIT
    pms = [pauli_matrix(thermal_rates(m.spectrum, m.dipole, beta), m.spectrum)
           for m in members for _ in range(m.count)]
    tau_P = ensemble_times_numeric(EnsembleSpec(members, beta=beta)).tau_P
    assert tau_P.hex() == (1.0 / compose_rate_matrix(pms).mu2).hex()


def test_numeric_path_respects_cap(monkeypatch):
    monkeypatch.setattr(ensemble, "NUMERIC_CAP", 8)
    spec = EnsembleSpec((spin_member(1.0, count=4),), beta=1.0)
    with pytest.raises(CapExceeded):
        ensemble_times_numeric(spec)


def test_numeric_cap_names_the_factors_not_their_product():
    # 2^15000 has more than 4300 decimal digits, past what Python prints
    spec = EnsembleSpec((spin_member(1.0, count=15000),), beta=1.0)
    with pytest.raises(CapExceeded, match=r"product dimension 2\^15000 exceeds cap 8192") as exc:
        ensemble_times_numeric(spec)
    assert len(str(exc.value)) < 200


ENTRIES = (ensemble_times, ensemble_times_numeric)


def bits(times):
    """Every field of an EnsembleTimes, for an exact comparison."""
    return (times.tau_P, times.tau_Q, times.tau, times.B_min_total, times.min_second_gap,
            times.per_member_mu2.tolist())


def fresh_bits(entry, spectrum, dipole, count, beta):
    """``entry``'s times for a member built anew from ``spectrum`` and ``dipole``."""
    return bits(entry(EnsembleSpec((EnsembleMember(spectrum, dipole, count),), beta)))


def count_analyses(monkeypatch):
    """The betas of the member analyses (``thermal_rates`` as ``ensemble`` calls it)."""
    betas, rates = [], ensemble.thermal_rates

    def counted(spectrum, dipole, beta):
        betas.append(beta)
        return rates(spectrum, dipole, beta)

    monkeypatch.setattr(ensemble, "thermal_rates", counted)
    return betas


def test_a_member_is_analysed_once_per_beta(monkeypatch):
    spectrum, dipole = free_spin_system(1.3)
    want = {(entry, beta): fresh_bits(entry, spectrum, dipole, 1, beta)
            for entry in ENTRIES for beta in (0.5, 2.0)}
    betas = count_analyses(monkeypatch)
    member = EnsembleMember(spectrum, dipole)
    for beta in (0.5, 2.0, 0.5, 2.0):
        for entry in ENTRIES:
            assert bits(entry(EnsembleSpec((member,), beta))) == want[entry, beta]
    assert betas == [0.5, 2.0]


def test_a_copy_with_another_count_shares_the_analysis(monkeypatch):
    spectrum, dipole = free_spin_system(1.3)
    want = {entry: fresh_bits(entry, spectrum, dipole, 3, 1.0) for entry in ENTRIES}
    betas = count_analyses(monkeypatch)
    member = EnsembleMember(spectrum, dipole)
    ensemble_times(EnsembleSpec((member,), 1.0))
    for entry in ENTRIES:
        assert bits(entry(EnsembleSpec((replace(member, count=3),), 1.0))) == want[entry]
    assert betas == [1.0]


@pytest.mark.parametrize("changes", [
    lambda b: {"spectrum": b.spectrum, "dipole": b.dipole},
    lambda b: {"spectrum": b.spectrum},
    lambda b: {"dipole": b.dipole},
], ids=["both", "spectrum", "dipole"])
def test_a_copy_with_another_spectrum_or_dipole_is_analysed_anew(monkeypatch, changes):
    # a memo that replace passed on unchecked gave such a copy the original's times: a spin
    # at Gamma = 1 given the spectrum and dipole of one at Gamma = 2 read tau_P 0.0476, not 0.00753
    a, b = spin_member(1.0), EnsembleMember(*synthetic_system(np.random.default_rng(5), 2))
    copy = replace(a, **changes(b))
    want = {entry: fresh_bits(entry, copy.spectrum, copy.dipole, 1, 1.0) for entry in ENTRIES}
    own = {entry: fresh_bits(entry, a.spectrum, a.dipole, 1, 1.0) for entry in ENTRIES}
    assert want[ensemble_times][0] != own[ensemble_times][0]
    betas = count_analyses(monkeypatch)
    for member, times in ((a, own), (copy, want), (a, own)):
        for entry in ENTRIES:
            assert bits(entry(EnsembleSpec((member,), 1.0))) == times[entry]
        if member is copy:
            assert betas == [1.0, 1.0]
    # the member read again finds its own entry beside the copy's: it analyses nothing
    assert betas == [1.0, 1.0]


def test_the_member_memo_is_not_part_of_its_value():
    spectrum, dipole = free_spin_system(1.3)
    member = EnsembleMember(spectrum, dipole)
    ensemble_times(EnsembleSpec((member,), 1.0))
    assert member == EnsembleMember(spectrum, dipole)
    assert repr(member) == repr(EnsembleMember(spectrum, dipole))
    with pytest.raises(TypeError):
        EnsembleMember(spectrum, dipole, 1, {})


def test_numeric_size_is_checked_before_any_member_is_analysed(monkeypatch):
    # the library entry analysed every member before its size rule: 20000 distinct
    # spins took 3.3 s before CapExceeded
    calls = []
    monkeypatch.setattr(ensemble, "thermal_rates", lambda *args: calls.append(args))
    members = (tuple(spin_member(G) for G in modulated_gammas(14)), (spin_member(1.0, count=20000),))
    for spec in (EnsembleSpec(m, beta=1.0) for m in members):
        with pytest.raises(CapExceeded, match="exceeds cap 8192"):
            ensemble_times_numeric(spec)
    assert calls == []


@pytest.mark.parametrize("M, count, accepted", [(2, 13, True), (2, 14, False),
                                                (3, 8, True), (3, 9, False)])
def test_numeric_cap_edges(M, count, accepted):
    # 2^13 = 8192 is the cap itself, 3^8 = 6561 the largest power of 3 under it
    member = EnsembleMember(*synthetic_system(np.random.default_rng(M), M), count=count)
    spec = EnsembleSpec((member,), beta=1.0)
    if accepted:
        assert math.isfinite(ensemble_times_numeric(spec).tau_P)
    else:
        with pytest.raises(CapExceeded, match=rf"{M}\^{count} exceeds"):
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


@pytest.mark.parametrize("N", [7, 8, 10, 13])
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


def _assert_operator_is_the_chained_sum(mats, x):
    """S x and c of ``ensemble._kronecker_operator`` against the chained sparse products,
    to a rounding bound: each side sums at most k = max(BLOCK_LIMIT, M) + n products of
    x per entry, so each is within k eps of sum_i |I (x) X_i (x) I| |x| (the diagonal of S
    may cancel, so |S| |x| is not a bound)."""
    apply, c = ensemble._kronecker_operator(mats)
    reference = chained_kronecker_sum(mats)
    magnitude = chained_kronecker_sum([np.abs(X) for X in mats])
    k = max(ensemble.BLOCK_LIMIT, *(len(X) for X in mats)) + len(mats)
    bound = 2 * k * np.finfo(float).eps
    y = apply(x)
    assert y.shape == x.shape
    assert np.all(np.abs(y - reference @ x) <= bound * (magnitude @ np.abs(x)))
    row_sums = abs(reference).sum(axis=1)
    assert abs(c - row_sums.max()) <= bound * magnitude.sum(axis=1).max()
    return apply, c


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=13))
@example(seed=0, sizes=[2] * 13)  # 16, 16, 32 at NUMERIC_CAP
@example(seed=1, sizes=[3] * 8)  # 9, 27, 27
@example(seed=2, sizes=[40, 3, 2])  # a factor above BLOCK_LIMIT is a block alone
@example(seed=3, sizes=[3, 2, 40])
def test_kronecker_operator_matches_the_chained_sum(seed, sizes):
    # nonsymmetric factors with zero entries, some with a zero diagonal, on products up
    # to NUMERIC_CAP (the longest prefix of the drawn sizes that fits under it)
    while math.prod(sizes) > ensemble.NUMERIC_CAP:
        sizes = sizes[:-1]
    rng = np.random.default_rng(seed)
    mats = []
    for M in sizes:
        X = rng.normal(size=(M, M))
        X[rng.random((M, M)) < 0.3] = 0.0
        if rng.random() < 0.3:
            X[np.diag_indices_from(X)] = 0.0
        mats.append(X)
    _assert_operator_is_the_chained_sum(mats, rng.normal(size=math.prod(sizes)))


@pytest.mark.parametrize("beta", [1.0, 1e4])
@pytest.mark.parametrize("N", [7, 13])
def test_kronecker_operator_at_lanczos_sizes(N, beta, monkeypatch):
    # at beta = 1e4 every off-diagonal entry of S underflows and S is its diagonal; the
    # blocks are as even as BLOCK_LIMIT allows, and sqrt(Gibbs) is S's null vector
    dims, build = [], model._kronecker_sum
    monkeypatch.setattr(ensemble, "_kronecker_sum",
                        lambda mats: dims.append(math.prod(len(X) for X in mats)) or build(mats))
    pms = [spin_pauli(G, beta)[0] for G in modulated_gammas(N)]
    x = np.random.default_rng(N).normal(size=2**N)
    apply, c = _assert_operator_is_the_chained_sum([pm.S for pm in pms], x)
    assert dims == {7: [8, 16], 13: [16, 16, 32]}[N]
    q = np.sqrt(gibbs_state(functools.reduce(np.add.outer, [pm.energies for pm in pms]).ravel(), beta))
    assert np.abs(apply(q)).max() <= 1e-12 * c
    if beta == 1e4:
        diagonal = chained_kronecker_sum([pm.S for pm in pms]).diagonal()
        assert np.allclose(apply(x), diagonal * x, rtol=1e-14, atol=0)


def test_kronecker_sum_is_a_fresh_array():
    # the dense sum is filled into new zeros, so what a caller does to its S never reaches
    # the next call; a single factor is copied, and its -0.0 entries come back as +0.0
    rng = np.random.default_rng(44)
    mats = [_random_symmetric_factor(rng, M) for M in (2, 3, 2)]
    S = model._kronecker_sum(mats)
    first = S.copy()
    S[...] = 0
    assert np.array_equal(model._kronecker_sum(mats), first)
    X = np.array([[1.0, -0.0], [-0.0, -2.0]])
    one = model._kronecker_sum([X])
    assert not np.shares_memory(one, X)
    assert np.array_equal(one, X)
    assert np.signbit(one).tolist() == [[False, False], [False, True]]  # only -2.0


RITZ_THETA_BOUND = 4.0  # |theta - referee| <= 4 k eps ||T|| for a k x k tridiagonal


def _assert_ritz_pair_matches(alpha, beta, theta, s_last, reference, s_rtol=0.0, s_atol=0.0):
    """theta within RITZ_THETA_BOUND k eps ||T|| of the referee's, s within its bounds."""
    ref_theta, ref_s = reference
    norm = np.abs(alpha).max() + 2.0 * np.abs(beta).max(initial=0.0)
    assert abs(theta - ref_theta) <= RITZ_THETA_BOUND * len(alpha) * np.finfo(float).eps * norm
    assert abs(s_last - ref_s) <= s_rtol * ref_s + s_atol


def _ritz_pair(alpha, beta):
    theta, s_last, _ = ensemble._smallest_ritz_pair(alpha.tolist(), (beta * beta).tolist())
    return theta, s_last


def test_smallest_ritz_pair_equals_eigh_tridiagonal():
    # split blocks included: off-diagonals of exactly 0 and of 1e-300 (whose square is 0);
    # LAPACK's dstebz and dstein, through scipy, within the bound of the 50-digit referee
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(47)
    for n in range(1, 151):
        for split in (0.0, 1e-300, None):
            alpha, beta = rng.normal(size=n), rng.normal(size=n - 1)
            if split is not None:
                beta[rng.random(n - 1) < 0.2] = split
            w, v = eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
            _assert_ritz_pair_matches(alpha, beta, *_ritz_pair(alpha, beta),
                                      (w[0], abs(v[-1, 0])), s_atol=1e-12)


def test_smallest_ritz_pair_matches_the_50_digit_referee():
    # random tridiagonals, split ones included, n = 1..150 (every n to 10, then every 7th)
    rng = np.random.default_rng(48)
    for n in [*range(1, 11), *range(11, 151, 7)]:
        for split in (0.0, 1e-300, None):
            alpha, beta = rng.normal(size=n), rng.normal(size=n - 1)
            if split is not None:
                beta[rng.random(n - 1) < 0.2] = split
            _assert_ritz_pair_matches(alpha, beta, *_ritz_pair(alpha, beta),
                                      oracles.mp_jacobi_smallest(alpha, beta), s_atol=1e-12)


def test_smallest_ritz_pair_keeps_a_converged_s_to_relative_accuracy(monkeypatch):
    # the tridiagonals of a table's N = 7 and 8 Lanczos runs where |s| < 1e-12, near their
    # stop: the stopping test |beta_k s| <= tol needs s itself, not s to within eps
    kernel, seen = ensemble._smallest_ritz_pair, []

    def recorded(alpha, beta2, *args):
        out = kernel(alpha, beta2, *args)
        seen.append((np.array(alpha), np.sqrt(beta2), out[1]))
        return out

    monkeypatch.setattr(ensemble, "_smallest_ritz_pair", recorded)
    for N in (7, 8):
        for beta in (1e-3, 1.0, 100.0):
            ensemble_times_numeric(_spin_ensemble(modulated_gammas(N), beta))
    converged = [(alpha, beta) for alpha, beta, s_last in seen if s_last < 1e-12]
    assert len(converged) >= 6
    for alpha, beta in converged:
        _assert_ritz_pair_matches(alpha, beta, *_ritz_pair(alpha, beta),
                                  oracles.mp_jacobi_smallest(alpha, beta), s_rtol=1e-9)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_smallest_ritz_pair_raises_a_typed_error_on_a_lapack_failure(monkeypatch, routine):
    # the kernel does the work of LAPACK's dstebz (a cold start: the Sturm count brackets
    # theta) and of dstein (a caller's trial point just above theta: the twisted null
    # vector refines it); cut short at the pass cap, either raises NoConvergence
    alpha, beta2 = [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
    x = None if routine == "dstebz" else ensemble._smallest_ritz_pair(alpha, beta2)[0] + 1e-3
    monkeypatch.setattr(ensemble, "_RITZ_MAX_PASSES", 1)
    with pytest.raises(NoConvergence, match=r"4 x 4 Lanczos tridiagonal .* 1 passes"):
        ensemble._smallest_ritz_pair(alpha, beta2, x=x)


def test_lanczos_converges_on_random_custom_members():
    # products of dimension 125..256; with a stopping tolerance of eps * scale
    # instead of sqrt(n) eps * scale, 6 of these 150 never stopped, the Ritz
    # estimate of the converged mu2 hovering at that rounding floor
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for M, count in ((4, 4), (3, 5), (5, 3)):
            spec, dip = synthetic_system(rng, M)
            for beta in (1e-3, 0.1, 1.0, 10.0, 100.0):
                _assert_routes_agree(EnsembleSpec((EnsembleMember(spec, dip, count=count),), beta=beta))


def test_lanczos_step_cap_raises_a_typed_error(monkeypatch):
    lanczos = ensemble._lanczos_smallest
    monkeypatch.setattr(ensemble, "_lanczos_smallest",
                        lambda apply, v, scale, max_steps: lanczos(apply, v, scale, 12))
    with pytest.raises(NoConvergence, match=r"dimension 512 took 12 steps.*Ritz estimate"):
        ensemble_times_numeric(_spin_ensemble(modulated_gammas(9), 1.0))


def test_lanczos_stops_on_an_invariant_subspace():
    # a start vector in the span of two eigenvectors gives beta_2 ~ 1e-16: the
    # recurrence stops there with the smaller eigenvalue, never dividing by it
    diagonal = np.arange(1.0, 9.0)
    v = np.zeros(8)
    v[[0, 7]] = 1.0 / math.sqrt(2.0)
    applied = []

    def apply(x):
        applied.append(x)
        return diagonal * x

    assert ensemble._lanczos_smallest(apply, v, 8.0, 8) == pytest.approx(1.0, rel=1e-15)
    assert len(applied) == 2


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
