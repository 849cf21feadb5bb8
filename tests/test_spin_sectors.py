"""The uniform-field QOME by total-spin sector, refereed by the gather route and the composite.

For identical spins the generator acts on each (J, J') coherence sector as
L_JJ' (x) 1, so the composite 2^N register, the gathered generator of one
copy of each J cut by sector pair (``oracles.sector_eigenvalues``) and the
Jacobi blocks of ``uniform_spin_spectrum`` must give the same spectrum once
every sector-pair eigenvalue is counted d_J d_J' times.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from thermotimes import cli, model, qome
from thermotimes.errors import CapExceeded, NoDissipativeEigenvalue
from thermotimes.lba import SMALL_X, _blackbody_weight
from thermotimes.model import (
    QubitSystem,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
)
from thermotimes.qome import (
    _classify,
    _spin_pairs,
    build_liouvillian,
    qome_spectrum,
    uniform_spin_spectrum,
)

from oracles import (
    absorption_rate,
    cold_qome_tau_Q,
    pair_qome_tau_Q,
    sector_blocks,
    sector_eigenvalues,
    spin_sector_system,
    uniform_qome_tau_P,
)

EPS = np.finfo(float).eps

GRID = [(beta, Gamma) for beta in (1e-3, 1.0, 1e4) for Gamma in (1e-3, 1.0, 1e3)]


def catalan(N):
    return math.comb(2 * N, N) // (N + 1)


def composite_system(N, Gamma):
    system = QubitSystem(K=N, H=free_spin_chain([Gamma] * N))
    spec = diagonalize(system)
    return spec, dipole_data(system, spec)


@functools.lru_cache(maxsize=None)
def composite_route(N, beta, Gamma):
    L = build_liouvillian(*composite_system(N, Gamma), beta)
    return L, qome_spectrum(L)


def jacobi_route(N, beta, Gamma, energy_tol=None):
    return uniform_spin_spectrum(N, Gamma, beta, energy_tol=energy_tol)


def jacobi_eigenvalues(N, beta, Gamma):
    """The Jacobi route's eigenvalues in block order, omega = 0 mask and weights."""
    *_, bohr, weight = _spin_pairs(N)
    return jacobi_route(N, beta, Gamma).eigenvalues, bohr == 0, weight


def gather_route(N, beta, Gamma):
    return _classify(*sector_eigenvalues(N, Gamma, beta))


def assert_routes_agree(ref, got):
    assert got.zero_multiplicity == ref.zero_multiplicity
    assert got.tau_P_multiplicity == ref.tau_P_multiplicity
    assert got.tau_P == pytest.approx(ref.tau_P, rel=1e-12, abs=0)
    assert math.isinf(got.tau_Q) == math.isinf(ref.tau_Q)
    if math.isfinite(ref.tau_Q):
        # a coherence rate is resolved to round-off of the spectral scale, which
        # far below the scale (deep cold or weak field) is all the two can share
        assert abs(1.0 / got.tau_Q - 1.0 / ref.tau_Q) <= 1e-12 * ref.scale


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("beta, Gamma", [(1.0, 1.0), (1e-3, 1e3)])
def test_full_spectrum_is_the_weighted_union_of_sector_spectra(N, beta, Gamma):
    _, ref = composite_route(N, beta, Gamma)
    ev, _, weight = jacobi_eigenvalues(N, beta, Gamma)
    weighted = np.repeat(ev, weight.astype(int))
    assert len(weighted) == len(ref.eigenvalues) == 4**N
    cost = np.abs(ref.eigenvalues[:, None] - weighted[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * ref.scale
    got = jacobi_route(N, beta, Gamma)
    assert got.scale == pytest.approx(ref.scale, rel=1e-12)
    assert got.zero_multiplicity == ref.zero_multiplicity == catalan(N)


@pytest.mark.parametrize("N", range(1, 9))
@pytest.mark.parametrize("beta, Gamma", [(1.0, 1.0), (1e-3, 1e3), (30.0, 1.0), (1e-5, 1e-4)])
def test_jacobi_blocks_match_the_gather_referee(N, beta, Gamma):
    # the same weighted eigenvalue multiset: an eigenvalue is matched only to one
    # of the same weight d_J d_J'
    ref_ev, ref_static, ref_w = sector_eigenvalues(N, Gamma, beta)
    ev, static, weight = jacobi_eigenvalues(N, beta, Gamma)
    assert len(ev) == len(ref_ev) and sum(weight) == sum(ref_w) == 4**N
    assert sum(weight[static]) == sum(ref_w[ref_static])
    cost = np.abs(ref_ev[:, None] - ev[None, :])
    cost[ref_w[:, None] != weight[None, :]] = np.inf
    rows, cols = linear_sum_assignment(cost)
    ref, got = _classify(ref_ev, ref_static, ref_w), jacobi_route(N, beta, Gamma)
    assert cost[rows, cols].max() <= 1e-12 * ref.scale
    assert got.scale == pytest.approx(ref.scale, rel=1e-12)
    assert_routes_agree(ref, got)


@pytest.mark.parametrize("N", range(1, 9))
def test_times_match_the_gather_referee_where_its_blocks_are_far_from_normal(N):
    # at beta Gamma = 5 the gathered blocks are similar to symmetric ones only
    # through a diagonal scaling that spans e^(5 N): at N = 5 their nonsymmetric
    # eigensolve misplaces an eigenvalue by 5.9e-11 (1.2e-10 of scale), while
    # the Jacobi eigenvalues stay within 6e-17 of a 50-digit mpmath solve of
    # the same blocks; the times still agree
    assert_routes_agree(gather_route(N, 100.0, 0.05), jacobi_route(N, 100.0, 0.05))


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("beta, Gamma", GRID)
def test_times_match_the_composite(N, beta, Gamma):
    ref, got = composite_route(N, beta, Gamma)[1], jacobi_route(N, beta, Gamma)
    assert_routes_agree(ref, got)
    assert got.tau_Q == pytest.approx(ref.tau_Q, rel=1e-12, abs=0)


def test_six_spins_match_the_composite_at_the_hot_strong_corner():
    # one composite solve at N = 6 (a 924 x 924 population block) takes seconds
    ref, got = composite_route(6, 1e-3, 1e3)[1], jacobi_route(6, 1e-3, 1e3)
    assert_routes_agree(ref, got)
    assert got.tau_Q == pytest.approx(ref.tau_Q, rel=1e-12, abs=0)
    assert got.zero_multiplicity == 132


@pytest.mark.parametrize("N", range(1, 5))
def test_small_gap_series_regime(N):
    # beta 2 Gamma = 2e-9 < SMALL_X: every weight comes from the small-gap series
    beta, Gamma = 1e-5, 1e-4
    assert beta * 2 * Gamma < SMALL_X
    got = jacobi_route(N, beta, Gamma)
    assert_routes_agree(composite_route(N, beta, Gamma)[1], got)
    assert_routes_agree(gather_route(N, beta, Gamma), got)


@pytest.mark.parametrize("N", range(1, 5))
def test_cold_limit_where_the_uphill_weight_underflows(N):
    # beta Gamma = 700: w_up = W~(2 Gamma) underflows to 0, so every coupling
    # vanishes and the Jacobi blocks are diagonal; the gathered blocks are
    # triangular with the same diagonal
    beta, Gamma = 700.0, 1.0
    assert _blackbody_weight(np.array([2.0 * Gamma]), beta, detailed_balance=True)[0] == 0.0
    got = jacobi_route(N, beta, Gamma)
    assert_routes_agree(composite_route(N, beta, Gamma)[1], got)
    assert_routes_agree(gather_route(N, beta, Gamma), got)
    assert got.zero_multiplicity == catalan(N)


@pytest.mark.parametrize("N", range(1, 15))
def test_catalan_count_is_exact_to_the_size_cap(N):
    # N = 14 has sum_J (2J + 1) = 64 levels, the most the QOME size rule admits
    got = jacobi_route(N, 1.0, 1.0)
    assert type(got.zero_multiplicity) is int and got.zero_multiplicity == catalan(N)


def test_fifteen_spins_exceed_the_size_cap():
    # 72 levels, refused before anything is built
    with pytest.raises(CapExceeded):
        jacobi_route(15, 1.0, 1.0)


def test_size_rule_counts_the_levels_in_closed_form():
    # (N/2 + 1)^2 levels for even N, counted without a pass over the sectors
    with pytest.raises(CapExceeded, match=r"QOME dimension 250000001000000001\^2 exceeds cap"):
        jacobi_route(10**9, 1.0, 1.0)


@pytest.mark.parametrize("N", range(2, 5))
@pytest.mark.parametrize("factor", [2.5, 10.0])
def test_wide_energy_tol_gives_the_same_outcome(N, factor):
    # a tolerance beyond the level spacing 2 Gamma merges every level, and the
    # generator vanishes on both routes
    Gamma = 0.37
    with pytest.raises(NoDissipativeEigenvalue):
        qome_spectrum(build_liouvillian(*composite_system(N, Gamma), 1.0,
                                        energy_tol=factor * Gamma))
    with pytest.raises(NoDissipativeEigenvalue):
        jacobi_route(N, 1.0, Gamma, energy_tol=factor * Gamma)


@pytest.mark.parametrize("Gamma", [1.0, 0.37])
def test_energy_tol_merges_the_levels_exactly_at_the_spacing(Gamma):
    # the gathered sector route classed rounded gaps: at Gamma = 0.37 the
    # tolerance one ulp below 2 Gamma merged some gaps and gave 7 steady states
    # and tau_Q = inf; the spacing now decides, whatever the rounding
    default = jacobi_route(3, 1.0, Gamma)
    with pytest.raises(NoDissipativeEigenvalue, match="level spacing"):
        jacobi_route(3, 1.0, Gamma, energy_tol=2 * Gamma)
    for energy_tol in (math.nextafter(2 * Gamma, 0), 1e-3 * Gamma, 0.0):
        got = jacobi_route(3, 1.0, Gamma, energy_tol=energy_tol)
        assert np.array_equal(got.eigenvalues, default.eigenvalues)
        assert (got.tau_P, got.tau_Q, got.zero_multiplicity, got.tau_P_multiplicity) == \
            (default.tau_P, default.tau_Q, 5, default.tau_P_multiplicity)


@settings(max_examples=20, deadline=None)
@given(
    log_beta=st.floats(min_value=-3.0, max_value=4.0),
    log_Gamma=st.floats(min_value=-3.0, max_value=3.0),
    N=st.integers(min_value=1, max_value=5),
)
def test_sector_route_property(log_beta, log_Gamma, N):
    beta, Gamma = 10.0 ** log_beta, 10.0 ** log_Gamma
    ref = qome_spectrum(build_liouvillian(*composite_system(N, Gamma), beta))
    assert_routes_agree(ref, jacobi_route(N, beta, Gamma))


# the range of the closed-form checks: Gamma in [1e-3, 1e3], beta Gamma in [1e-6, 11], gamma
# in [0.1, 10]; where w_up falls under 1e-8 of the rate scale, the zero cut can misfile the
# slowest coherence (tau_Q prints inf), so nothing is asserted there
PAIR_INPUTS = dict(
    log_Gamma=st.floats(min_value=-3.0, max_value=3.0),
    log_beta_Gamma=st.floats(min_value=-6.0, max_value=math.log10(11.0)),
    log_gamma=st.floats(min_value=-1.0, max_value=1.0),
)


@settings(max_examples=200, deadline=None)
@given(**PAIR_INPUTS)
def test_two_spins_decohere_at_the_absorption_rate(log_Gamma, log_beta_Gamma, log_gamma):
    Gamma, gamma = 10.0 ** log_Gamma, 10.0 ** log_gamma
    beta = 10.0 ** log_beta_Gamma / Gamma
    got = uniform_spin_spectrum(2, Gamma, beta, gamma)
    w_up = absorption_rate(Gamma, beta, gamma)
    assume(w_up >= 1e-8 * got.scale)
    assert abs(got.tau_Q / pair_qome_tau_Q(Gamma, beta, gamma) - 1.0) <= 4 * EPS


@settings(max_examples=50, deadline=None)
@given(**PAIR_INPUTS)
def test_two_spin_composite_decoheres_at_the_absorption_rate(log_Gamma, log_beta_Gamma,
                                                             log_gamma):
    # the composite's nonsymmetric eigensolve resolves a coherence rate to round-off
    # of the rate scale (at most 2.9 eps of it over 1500 random inputs), not of itself
    Gamma, gamma = 10.0 ** log_Gamma, 10.0 ** log_gamma
    beta = 10.0 ** log_beta_Gamma / Gamma
    system = QubitSystem(K=2, H=free_spin_chain([Gamma] * 2), gamma=gamma)
    spec = diagonalize(system)
    got = qome_spectrum(build_liouvillian(spec, dipole_data(system, spec), beta))
    w_up = absorption_rate(Gamma, beta, gamma)
    assume(w_up >= 1e-8 * got.scale)
    assert abs(1.0 / got.tau_Q - w_up) <= 8 * EPS * got.scale


@settings(max_examples=30, deadline=None)
@given(N=st.integers(min_value=3, max_value=8), Gamma=st.sampled_from([1.0, 100.0]),
       log_gamma=st.floats(min_value=-1.0, max_value=1.0))
def test_cold_spins_decohere_at_the_cold_law(N, Gamma, log_gamma):
    # at beta Gamma = 6 the ratio reads 0.999986 (N = 3) to 0.999992 (N = 8)
    gamma, beta = 10.0 ** log_gamma, 6.0 / Gamma
    got = uniform_spin_spectrum(N, Gamma, beta, gamma)
    assert 0.99998 <= got.tau_Q / cold_qome_tau_Q(N, Gamma, beta, gamma) <= 1.0


@settings(max_examples=100, deadline=None)
@given(N=st.integers(min_value=1, max_value=14),
       log_Gamma=st.floats(min_value=-2.0, max_value=math.log10(30.0)),
       log_beta_Gamma=PAIR_INPUTS["log_beta_Gamma"], log_gamma=PAIR_INPUTS["log_gamma"])
def test_uniform_spins_dissipate_at_the_one_spin_rate(N, log_Gamma, log_beta_Gamma, log_gamma):
    # tau_P (w_up + w_dn) = 1 at every N; at most 2 eps off over 400 random inputs
    Gamma, gamma = 10.0 ** log_Gamma, 10.0 ** log_gamma
    beta = 10.0 ** log_beta_Gamma / Gamma
    got = uniform_spin_spectrum(N, Gamma, beta, gamma)
    assert abs(got.tau_P / uniform_qome_tau_P(Gamma, beta, gamma) - 1.0) <= 4 * EPS


def test_uniform_tau_P_multiplicity():
    # the slowest population mode's copies; at odd N the square of d_{1/2}, the J = 1/2 count
    counts = [uniform_spin_spectrum(N, 1.0, 1.0).tau_P_multiplicity for N in range(1, 15)]
    assert counts == [1, 2, 4, 12, 25, 90, 196, 784, 1764, 7560, 17424, 78408, 184041, 858858]
    assert all(counts[N - 1] == catalan((N + 1) // 2) ** 2 for N in range(1, 15, 2))


@pytest.mark.parametrize("N", range(1, 41))
def test_sector_bookkeeping_is_exact(N):
    spec, dip, (level_sector, mult) = spin_sector_system(N, 1.0)
    assert all(type(d) is int for d in mult)
    sizes = np.bincount(level_sector)
    assert sizes.tolist() == [N - 2 * k + 1 for k in range(N // 2 + 1)]
    assert sum(int(size) * d for size, d in zip(sizes, mult)) == 2**N
    assert sum(d * d for d in mult) == catalan(N)
    assert np.all(np.diff(spec.energies) >= 0)


def test_one_spin_sector_system_is_the_free_spin():
    spec, dip, (level_sector, mult) = spin_sector_system(1, 0.7, gamma=1.3)
    ref_spec, ref_dip = free_spin_system(0.7, gamma=1.3)
    assert np.array_equal(spec.energies, ref_spec.energies)
    assert np.array_equal(dip.D, ref_dip.D)
    assert level_sector.tolist() == [0, 0] and mult == (1,)
    for beta in (1e-3, 1.0, 100.0):
        ref = qome_spectrum(build_liouvillian(ref_spec, ref_dip, beta))
        assert_routes_agree(ref, uniform_spin_spectrum(1, 0.7, beta, gamma=1.3))


def test_slow_coherence_rate_keeps_its_own_precision():
    # the slowest coherence rate here, 1.8e-8, sits in a block with |omega| = 0.1;
    # solved with its -i omega diagonal in place it was resolved only to round-off
    # of |omega| (tau_Q 55060064.7301). Reference: a 40-digit mpmath eigensolve of
    # the same coherence blocks.
    spectrum = jacobi_route(6, 100.0, 0.05)
    assert spectrum.tau_Q == pytest.approx(55060064.64391887, rel=1e-11, abs=0)


def test_one_eigvalsh_per_block_size(monkeypatch):
    # 8 spins hold 625 level pairs in 165 blocks of 9 sizes: one eigvalsh each
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    eigvalsh = qome.np.linalg.eigvalsh
    monkeypatch.setattr(qome.np.linalg, "eigvalsh", counted)
    jacobi_route(8, 1.0, 1.0)
    sizes = {len(block) for _, _, block in sector_blocks(8, 1.0, 1.0)}
    assert len(calls) == len(sizes) == 9
    assert sorted(shape[-1] for shape in calls) == sorted(sizes)
    assert sum(shape[0] for shape in calls) == len(sector_blocks(8, 1.0, 1.0))


def test_uniform_analyze_never_gathers(tmp_path, monkeypatch):
    # the uniform QOME goes through the Jacobi blocks alone: no gathered
    # generator, no float classes of gaps, no nonsymmetric eigensolve
    def refuse(*args, **kwargs):
        raise AssertionError("the gather route ran")

    for module, name in [(qome, "build_liouvillian"), (qome, "_composite"),
                         (qome, "_gap_structure"), (model, "_gap_structure"),
                         (np.linalg, "eigvals")]:
        monkeypatch.setattr(module, name, refuse)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"family": "free_spins_uniform", "Gamma": 1.0, "N_list": [1, 2, 3, 4, 5, 6],'
                   ' "methods": ["qome"], "tolerances": {"energy_tol": 1e-3}}')
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[5]) for row in rows] == [catalan(N) for N in range(1, 7)]


def test_spin_pairs_are_built_once_and_read_only():
    # every uniform_spin_spectrum call of one N shares one read-only layout, so no
    # caller can change what the next one reads
    _spin_pairs.cache_clear()
    first = _spin_pairs(4)
    blocks, *arrays = first
    assert isinstance(blocks, tuple)
    for x in (*blocks, *arrays):
        with pytest.raises(ValueError):
            x[...] = 0
    assert _spin_pairs(4) is first
    fresh = _spin_pairs.__wrapped__(4)
    assert len(fresh[0]) == len(blocks)
    for got, want in zip((*blocks, *arrays), (*fresh[0], *fresh[1:])):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_spin_pair_weights_are_exact_int64():
    # the composite route counts every eigenvalue with an int64 one, the sector route
    # with d_J d_J'; they add up to 4^N, exact in int64 up to the size cap N = 14
    weight = _spin_pairs(14)[-1]
    assert weight.dtype == np.int64
    assert int(weight.sum()) == 4**14
