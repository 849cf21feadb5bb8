import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermotimes.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    ErgodicityViolation,
    InvalidDensityMatrix,
    NegativeTime,
    NonPositiveBeta,
    NonPositiveField,
    ThermotimesError,
)
from thermotimes.lba import (
    decoherence_rates,
    evolve,
    gibbs_state,
    lba_liouvillian,
    pauli_matrix,
    symmetrized_rate_matrix,
    thermal_rates,
    thermalization_times,
)
from thermotimes.model import (
    DipoleData,
    EnergySpectrum,
    QubitSystem,
    diagonalize,
    dipole_data,
    free_spin_system,
)

from oracles import (
    fit_coherence_decay,
    fit_slowest_decay,
    random_density_matrix,
    synthetic_system,
)


def free_spin_rates(Gamma=1.0, gamma=1.0, beta=1.0):
    spec, dip = free_spin_system(Gamma, gamma)
    return spec, dip, thermal_rates(spec, dip, beta)


def three_level_case(scale=1.0):
    # E = scale * (0, 1, 2.3) with unit off-diagonal dipole couplings
    E = scale * np.array([0.0, 1.0, 2.3])
    spec = EnergySpectrum(M=3, energies=E, eigenbasis=np.eye(3, dtype=complex),
                          degeneracy_tol=1e-9 * E[-1])
    # every coupling on one axis, so D is one off the diagonal
    d = (np.ones((3, 3)) - np.eye(3)).astype(complex)
    zero = np.zeros((3, 3), dtype=complex)
    dip = DipoleData(d_x=d, d_y=zero, d_z=zero, gamma=1.0)
    return spec, dip


def test_thermal_rates_free_spin_paper_value():
    _, _, rates = free_spin_rates()
    expected = 16.0 / (math.e - 1.0 / math.e)  # 2 gamma (2 Gamma)^3 / (e - 1/e)
    assert rates.C[0, 1] == pytest.approx(expected, rel=1e-12)
    assert rates.C[0, 1] == pytest.approx(6.80734502591457, rel=1e-12)
    assert rates.C[0, 0] == rates.C[1, 1] == 0.0


def test_thermal_rates_zero_dipole():
    spec, _ = free_spin_system(1.0)
    zero = np.zeros((2, 2), dtype=complex)
    dip = DipoleData(d_x=zero, d_y=zero, d_z=zero, gamma=1.0)
    rates = thermal_rates(spec, dip, 1.0)
    assert np.all(rates.C == 0.0) and np.all(rates.L2 == 0.0) and np.all(rates.B == 0.0)


def test_thermal_rates_requires_positive_beta():
    spec, dip = free_spin_system(1.0)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(NonPositiveBeta):
            thermal_rates(spec, dip, bad)


def test_thermal_rates_requires_nondegenerate():
    spec, dip = free_spin_system(1.0)
    squeezed = EnergySpectrum(M=2, energies=np.array([0.0, 1e-12]),
                              eigenbasis=spec.eigenbasis, degeneracy_tol=1e-9)
    with pytest.raises(DegenerateSpectrum):
        thermal_rates(squeezed, dip, 1.0)


def test_detailed_balance_random_system():
    rng = np.random.default_rng(123)
    spec, dip = synthetic_system(rng, 4)
    beta = 0.8
    rates = thermal_rates(spec, dip, beta)
    E = spec.energies
    lhs = rates.L2 * np.exp(-beta * E[None, :])
    rhs = rates.L2.T * np.exp(-beta * E[:, None])
    assert np.abs(lhs - rhs).max() <= 1e-12 * lhs.max()


def test_rate_parametrizations_agree():
    rng = np.random.default_rng(7)
    spec, dip = synthetic_system(rng, 5)
    rates = thermal_rates(spec, dip, 1.3)
    E = spec.energies
    boltz = np.exp(-1.3 * (E[:, None] - E[None, :]) / 2.0)
    mask = rates.L2 > 0
    assert np.abs((rates.C * boltz)[mask] / rates.L2[mask] - 1.0).max() < 1e-12


def test_escape_rates_are_column_sums():
    rng = np.random.default_rng(8)
    spec, dip = synthetic_system(rng, 4)
    rates = thermal_rates(spec, dip, 1.0)
    np.testing.assert_array_equal(rates.B, rates.L2.sum(axis=0))


def test_thermal_weight_extreme_gaps_finite():
    # beta*|dE| far beyond exp overflow must not produce nan/inf
    E = np.array([0.0, 1e-12, 2500.0])
    spec = EnergySpectrum(M=3, energies=E, eigenbasis=np.eye(3, dtype=complex),
                          degeneracy_tol=1e-13)
    d = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)
    zero = np.zeros((3, 3), dtype=complex)
    dip = DipoleData(d_x=d, d_y=zero, d_z=zero, gamma=1.0)
    rates = thermal_rates(spec, dip, 1.0)
    assert np.all(np.isfinite(rates.L2)) and np.all(np.isfinite(rates.C))
    assert np.all(rates.L2 >= 0.0)
    # the nearly-degenerate pair uses the small-gap series: rate ~ dE^2/beta
    assert rates.L2[1, 0] == pytest.approx(1e-24, rel=1e-6)


def test_pauli_matrix_free_spin_closed_form():
    spec, _, rates = free_spin_rates()
    pm = pauli_matrix(rates, spec)
    pref = 16.0 / (math.e - 1.0 / math.e)
    expected = pref * np.array([[1.0 / math.e, -math.e], [-1.0 / math.e, math.e]])
    np.testing.assert_allclose(pm.A, expected, rtol=1e-12)
    np.testing.assert_allclose(pm.eigenvalues, [0.0, 16.0 / math.tanh(1.0)],
                               atol=1e-12 * 16 / math.tanh(1.0))


def test_pauli_matrix_zero_rates():
    spec, _ = free_spin_system(1.0)
    zero = np.zeros((2, 2), dtype=complex)
    dip = DipoleData(d_x=zero, d_y=zero, d_z=zero, gamma=1.0)
    pm = pauli_matrix(thermal_rates(spec, dip, 1.0), spec)
    assert np.all(pm.A == 0.0) and np.all(pm.eigenvalues == 0.0)


def test_pauli_dual_solver_three_levels():
    spec, dip = three_level_case()
    rates = thermal_rates(spec, dip, 1.0)
    pm = pauli_matrix(rates, spec)
    raw = np.linalg.eigvals(pm.A)
    assert np.abs(raw.imag).max() < 1e-12 * np.abs(raw).max()
    generic = np.sort(raw.real)
    assert np.abs(pm.eigenvalues - generic).max() < 1e-9


def test_symmetrization_identity_and_real_spectrum():
    rng = np.random.default_rng(21)
    for M in (3, 4, 6):
        spec, dip = synthetic_system(rng, M)
        rates = thermal_rates(spec, dip, 0.9)
        pm = pauli_matrix(rates, spec)
        P = np.exp(0.9 * spec.energies / 2.0)
        similar = pm.A * (P[:, None] / P[None, :])
        S = symmetrized_rate_matrix(rates)
        assert np.abs(similar - S).max() <= 1e-12 * np.abs(S).max()
        assert np.abs(S - S.T).max() <= 1e-12 * np.abs(S).max()
        # all eigenvalues real and nonnegative up to round-off
        assert pm.eigenvalues.min() >= -1e-10 * pm.eigenvalues.max()


def test_column_sums_vanish():
    rng = np.random.default_rng(22)
    spec, dip = synthetic_system(rng, 5)
    pm = pauli_matrix(thermal_rates(spec, dip, 1.1), spec)
    assert np.abs(pm.A.sum(axis=0)).max() < 1e-10


@pytest.mark.parametrize("energies", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_gibbs_state_refuses_nonfinite_energies(energies):
    # [0, nan] gave [nan, nan] and [-inf, 0] gave nan in silence
    with pytest.raises(DimensionMismatch, match="energies must be finite"):
        gibbs_state(energies, 1.0)


def test_stationary_state_is_gibbs_kernel():
    rng = np.random.default_rng(23)
    spec, dip = synthetic_system(rng, 4)
    rates = thermal_rates(spec, dip, 1.0)
    pm = pauli_matrix(rates, spec)
    assert np.abs(pm.A @ pm.stationary).max() < 1e-10 * np.abs(pm.A).max()
    # kernel vector from an SVD null space agrees with the Gibbs formula
    _, _, Vh = np.linalg.svd(pm.A)
    kernel = np.abs(Vh[-1]) / np.abs(Vh[-1]).sum()
    assert np.abs(kernel - pm.stationary).max() < 1e-10


def test_thermalization_times_free_spin_row():
    spec, _, rates = free_spin_rates()
    times = thermalization_times(pauli_matrix(rates, spec), rates)
    assert times.tau_P == pytest.approx(math.tanh(1.0) / 16.0, rel=1e-12)
    assert times.tau_P == pytest.approx(0.04760, abs=1e-5)
    assert times.tau_Q == pytest.approx(0.09520, abs=1e-5)
    assert times.tau == times.tau_Q


def test_two_level_trace_identity():
    # for M=2 the trace of A equals mu2, hence tau_Q = 2 tau_P
    rng = np.random.default_rng(31)
    for _ in range(5):
        G, g, b = rng.uniform(0.3, 2.0, size=3)
        spec, dip = free_spin_system(G, g)
        rates = thermal_rates(spec, dip, b)
        times = thermalization_times(pauli_matrix(rates, spec), rates)
        assert times.tau_Q == pytest.approx(2.0 * times.tau_P, rel=1e-12)


def test_times_against_matrix_exponential_fit():
    spec, dip = three_level_case()
    rates = thermal_rates(spec, dip, 1.0)
    pm = pauli_matrix(rates, spec)
    times = thermalization_times(pm, rates)
    p0 = np.array([1.0, 0.0, 0.0])
    t1, t2 = 8.0 * times.tau_P, 12.0 * times.tau_P
    rate = fit_slowest_decay(pm.A, p0, pm.stationary, t1, t2)
    assert 1.0 / rate == pytest.approx(times.tau_P, rel=1e-6)
    # slowest coherence decay fitted from the full vectorized generator
    L = lba_liouvillian(spec, dip, 1.0)
    rho0 = random_density_matrix(np.random.default_rng(0), 3)
    t1, t2 = 4.0 * times.tau_Q, 6.0 * times.tau_Q
    rate_q = fit_coherence_decay(L, rho0, 3, t1, t2)
    assert 2.0 / (2.0 * rate_q) == pytest.approx(times.tau_Q, rel=1e-6)


def test_ergodicity_violation_detected():
    spec, _ = free_spin_system(1.0)
    zero = np.zeros((2, 2), dtype=complex)
    dip = DipoleData(d_x=zero, d_y=zero, d_z=zero, gamma=1.0)
    rates = thermal_rates(spec, dip, 1.0)
    with pytest.raises(ErgodicityViolation):
        thermalization_times(pauli_matrix(rates, spec), rates)


def test_thermal_rates_refuse_rates_beyond_the_float_range():
    # a cube |dE|^3 past the float range gave NaN rates and a raw LinAlgError, a
    # vanishing one an ErgodicityViolation; both name the rate scale now
    wide = QubitSystem(K=1, H=np.diag([1e300, -1e300]))
    spec = diagonalize(wide)
    for system in (free_spin_system(1e103), free_spin_system(1e300), free_spin_system(1e-120),
                   free_spin_system(1e3, gamma=1e300), (spec, dipole_data(wide, spec)),
                   free_spin_system(1e3, gamma=1.5e298), free_spin_system(1.0, gamma=1e-315)):
        with pytest.raises(NonPositiveField, match="rate scale gamma max W~"):
            thermal_rates(*system, 1.0)
    # a coupling whose squared dipoles overflow is refused where D is formed
    with pytest.raises(NonPositiveField, match="the rates formed from gamma"):
        free_spin_system(1.0, gamma=1e308)
    # just inside the range the rates are finite
    assert np.isfinite(thermal_rates(*free_spin_system(1e102), 1.0).B).all()


def test_decoherence_rates_free_spin():
    spec, _, rates = free_spin_rates()
    times = thermalization_times(pauli_matrix(rates, spec), rates)
    mu = decoherence_rates(rates)
    assert mu[0, 1].real == pytest.approx(1.0 / times.tau_Q, rel=1e-12)
    assert mu[0, 1].imag == 0.0
    assert mu[0, 0] == 0.0


def test_decoherence_rates_equal_levels_purely_real():
    rng = np.random.default_rng(41)
    spec, dip = synthetic_system(rng, 4)
    rates = thermal_rates(spec, dip, 1.0)
    mu = decoherence_rates(rates, eff_energies=np.full(4, 2.5))
    assert np.abs(mu.imag).max() == 0.0


def test_decoherence_rates_rotate_with_levels():
    spec, _, rates = free_spin_rates()
    mu = decoherence_rates(rates, eff_energies=spec.energies)
    assert mu[0, 1].imag == pytest.approx(-2.0)
    assert mu[1, 0].imag == pytest.approx(2.0)


def test_evolve_coherence_closed_form():
    spec, dip = three_level_case()
    rates = thermal_rates(spec, dip, 1.0)
    pm = pauli_matrix(rates, spec)
    mu = decoherence_rates(rates, eff_energies=spec.energies)
    rho0 = random_density_matrix(np.random.default_rng(2), 3)
    for t in (0.1, 1.0):
        rho_t = evolve(pm, mu, rho0, t)
        for m in range(3):
            for n in range(3):
                if m != n:
                    expected = abs(rho0[m, n]) * math.exp(-mu[m, n].real * t)
                    assert abs(abs(rho_t[m, n]) - expected) < 1e-10


def test_evolve_gibbs_is_fixed_point():
    spec, dip = three_level_case()
    rates = thermal_rates(spec, dip, 1.0)
    pm = pauli_matrix(rates, spec)
    mu = decoherence_rates(rates)
    rho0 = np.diag(pm.stationary).astype(complex)
    for t in (0.0, 0.5, 5.0):
        rho_t = evolve(pm, mu, rho0, t)
        assert np.abs(rho_t - rho0).max() < 1e-12


def test_evolve_two_level_hand_solution():
    # starting from |1><1| the excited population fills in as
    # p2(t) = p2_eq (1 - exp(-mu2 t))
    spec, _, rates = free_spin_rates()
    pm = pauli_matrix(rates, spec)
    mu = decoherence_rates(rates)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    mu2 = pm.eigenvalues[1]
    for t in (0.01, 0.05, 0.2):
        rho_t = evolve(pm, mu, rho0, t)
        expected = pm.stationary[1] * (1.0 - math.exp(-mu2 * t))
        assert rho_t[1, 1].real == pytest.approx(expected, rel=1e-10)


def test_evolve_reaches_gibbs():
    spec, dip = three_level_case()
    rates = thermal_rates(spec, dip, 1.0)
    pm = pauli_matrix(rates, spec)
    times = thermalization_times(pm, rates)
    mu = decoherence_rates(rates, eff_energies=spec.energies)
    rho0 = random_density_matrix(np.random.default_rng(9), 3)
    rho_t = evolve(pm, mu, rho0, 50.0 * times.tau)
    assert np.abs(rho_t - np.diag(pm.stationary)).max() < 1e-8


def test_evolve_probability_conservation_and_monotonicity():
    spec, dip = three_level_case()
    beta = 1.0
    rates = thermal_rates(spec, dip, beta)
    pm = pauli_matrix(rates, spec)
    mu = decoherence_rates(rates)
    rho0 = random_density_matrix(np.random.default_rng(10), 3)
    weights = np.exp(beta * spec.energies / 2.0)
    prev = math.inf
    for t in np.linspace(0.0, 1.0, 10):
        rho_t = evolve(pm, mu, rho0, float(t))
        p = np.diag(rho_t).real
        assert abs(p.sum() - 1.0) < 1e-10
        dist = np.linalg.norm(weights * (p - pm.stationary))
        assert dist <= prev + 1e-12
        prev = dist


@pytest.mark.parametrize("beta", [400.0, 2000.0, 1e4])
def test_evolve_keeps_trace_at_low_temperature(beta):
    # a similarity transform by exp(beta E / 2) lost the ground-state
    # population here (trace 0.852 at beta = 400, NaN from beta = 2000 on)
    spec, _, rates = free_spin_rates(beta=beta)
    pm = pauli_matrix(rates, spec)
    mu = decoherence_rates(rates)
    rho0 = np.diag([0.0, 1.0]).astype(complex)  # the excited level
    for t in (0.01, 0.1, 10.0):
        rho_t = evolve(pm, mu, rho0, t)
        assert abs(np.trace(rho_t).real - 1.0) <= 1e-12
        assert np.diag(rho_t).real.min() >= 0.0
    assert np.abs(np.diag(rho_t) - pm.stationary).max() <= 1e-12


@pytest.mark.parametrize("beta, t", [(1.0, 1e8), (1.0, 1e300), (30.0, 1e38)])
def test_evolve_keeps_trace_at_late_times(beta, t):
    # expm(-A t) lost 1.6e-8 of the trace at t = 1e8 and gave NaN populations at
    # t = 1e300 (beta 1) and from t = 1e38 (beta 30); long after tau_P it is the Gibbs state
    spec, _, rates = free_spin_rates(beta=beta)
    pm = pauli_matrix(rates, spec)
    rho_t = evolve(pm, decoherence_rates(rates), np.full((2, 2), 0.5, dtype=complex), t)
    p = np.diag(rho_t).real
    assert np.isfinite(rho_t).all() and p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 4 * np.finfo(float).eps
    assert np.array_equal(p, pm.stationary)


@settings(max_examples=50, deadline=None)
@given(
    log_beta=st.floats(min_value=-3.0, max_value=4.0),
    log_Gamma=st.floats(min_value=-3.0, max_value=3.0),
    t_over_tau=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
    three_levels=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evolve_property(log_beta, log_Gamma, t_over_tau, three_levels, seed):
    # one spin of field Gamma, or three levels Gamma * (0, 1, 2.3), from a
    # random initial state: the evolved state is a density matrix
    beta, Gamma = 10.0 ** log_beta, 10.0 ** log_Gamma
    spec, dip = three_level_case(Gamma) if three_levels else free_spin_system(Gamma)
    rho0 = random_density_matrix(np.random.default_rng(seed), spec.M)
    try:
        rates = thermal_rates(spec, dip, beta)
        pm = pauli_matrix(rates, spec)
        tau = thermalization_times(pm, rates).tau
        rho_t = evolve(pm, decoherence_rates(rates), rho0, t_over_tau * tau)
    except ThermotimesError:
        return  # a typed refusal is an allowed outcome
    assert np.isfinite(rho_t).all()
    assert abs(np.trace(rho_t) - 1.0) <= 1e-10
    assert np.abs(rho_t - rho_t.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho_t).min() >= -1e-10


def test_evolve_rejects_bad_inputs():
    spec, _, rates = free_spin_rates()
    pm = pauli_matrix(rates, spec)
    mu = decoherence_rates(rates)
    good = np.eye(2, dtype=complex) / 2.0
    # t = nan gave an all-NaN state and t = inf a raw RuntimeWarning
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(NegativeTime):
            evolve(pm, mu, good, t)
    with pytest.raises(InvalidDensityMatrix):
        evolve(pm, mu, np.array([[1.0, 0.5], [-0.5, 0.0]]), 1.0)  # not Hermitian
    with pytest.raises(InvalidDensityMatrix):
        evolve(pm, mu, np.eye(2, dtype=complex), 1.0)  # trace 2
    with pytest.raises(InvalidDensityMatrix):
        evolve(pm, mu, np.diag([1.5, -0.5]).astype(complex), 1.0)  # not PSD


@pytest.mark.parametrize("entry, value", [((0, 0), math.nan), ((0, 1), math.nan),
                                          ((1, 1), math.inf)])
def test_evolve_refuses_a_nonfinite_rho0(entry, value):
    # NaN passed the Hermitian, trace and PSD comparisons and came out as a NaN state
    spec, _, rates = free_spin_rates()
    rho0 = np.eye(2, dtype=complex) / 2.0
    rho0[entry] = value
    with pytest.raises(InvalidDensityMatrix, match="finite"):
        evolve(pauli_matrix(rates, spec), decoherence_rates(rates), rho0, 1.0)


def test_evolve_refuses_a_nonfinite_mu():
    spec, _, rates = free_spin_rates()
    mu = decoherence_rates(rates)
    mu[0, 1] = math.nan
    with pytest.raises(DimensionMismatch, match="mu must be finite"):
        evolve(pauli_matrix(rates, spec), mu, np.eye(2, dtype=complex) / 2.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_decoherence_rates_refuse_nonfinite_eff_energies(value):
    _, _, rates = free_spin_rates()
    with pytest.raises(DimensionMismatch, match="eff_energies must be finite"):
        decoherence_rates(rates, [1.0, value])


def test_gibbs_state_refuses_an_empty_spectrum():
    # the max of an empty array raised a raw ValueError
    with pytest.raises(DimensionMismatch, match="M must be an integer >= 1"):
        gibbs_state([], 1.0)


def test_gibbs_state_uniform_at_beta_zero():
    np.testing.assert_allclose(gibbs_state(np.array([0.0, 1.0, 5.0]), 0.0),
                               np.full(3, 1.0 / 3.0))


def test_gibbs_state_two_level():
    spec, _ = free_spin_system(1.0)
    p = gibbs_state(spec, 1.0)
    Z = math.e + 1.0 / math.e
    np.testing.assert_allclose(p, [math.e / Z, 1.0 / (math.e * Z)], rtol=1e-14)


def test_gibbs_state_overflow_safe():
    p = gibbs_state(np.array([0.0, 2000.0]), 1.0)
    assert p[0] == 1.0 and p[1] == 0.0
    p = gibbs_state(np.array([0.0, 2000.0]), -1.0)  # formal negative beta
    assert p[1] == 1.0
    assert abs(gibbs_state(np.arange(5.0), 3.0).sum() - 1.0) < 1e-14


def test_lba_liouvillian_structure():
    spec, dip = three_level_case()
    rates = thermal_rates(spec, dip, 1.0)
    pm = pauli_matrix(rates, spec)
    L = lba_liouvillian(spec, dip, 1.0)
    M = 3
    diag_rows = [m * M + m for m in range(M)]
    # population block is -A, coherences sit alone on the diagonal
    np.testing.assert_allclose(L[np.ix_(diag_rows, diag_rows)].real, -pm.A, atol=1e-12)
    mu = decoherence_rates(rates, eff_energies=spec.energies)
    for m in range(M):
        for n in range(M):
            if m != n:
                idx = m * M + n
                assert L[idx, idx] == pytest.approx(-mu[m, n])
                row = L[idx].copy()
                row[idx] = 0.0
                assert np.abs(row).max() == 0.0
