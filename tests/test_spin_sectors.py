"""The uniform-field QOME by total-spin sector, refereed by the composite block solver.

For identical spins the generator acts on each (J, J') coherence sector as
L_JJ' (x) 1, so the composite 2^N register and the sector system (one copy
of each J) must give the same spectrum once every sector-pair eigenvalue is
counted d_J d_J' times.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from thermotimes.errors import NoDissipativeEigenvalue
from thermotimes.model import (
    QubitSystem,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
    spin_sector_system,
)
from thermotimes.qome import build_liouvillian, qome_spectrum

CATALAN = (1, 2, 5, 14, 42, 132)
GRID = [(beta, Gamma) for beta in (1e-3, 1.0, 1e4) for Gamma in (1e-3, 1.0, 1e3)]


def composite_system(N, Gamma):
    system = QubitSystem(K=N, H=free_spin_chain([Gamma] * N))
    spec = diagonalize(system, require_nondegenerate=False)
    return spec, dipole_data(system, spec)


@functools.lru_cache(maxsize=None)
def composite_route(N, beta, Gamma):
    L = build_liouvillian(*composite_system(N, Gamma), beta)
    return L, qome_spectrum(L)


def sector_route(N, beta, Gamma, energy_tol=None):
    spec, dip, sectors = spin_sector_system(N, Gamma)
    L = build_liouvillian(spec, dip, beta, energy_tol=energy_tol, sectors=sectors)
    return L, qome_spectrum(L)


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
    L_sec, got = sector_route(N, beta, Gamma)
    sizes = [len(idx) for _, idx, _ in L_sec.blocks]
    weighted = np.repeat(got.eigenvalues, np.repeat(L_sec.weights, sizes))
    assert len(weighted) == len(ref.eigenvalues) == 4**N
    cost = np.abs(ref.eigenvalues[:, None] - weighted[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * ref.scale
    assert got.scale == pytest.approx(ref.scale, rel=1e-12)
    assert got.zero_multiplicity == ref.zero_multiplicity == CATALAN[N - 1]


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("beta, Gamma", GRID)
def test_times_match_the_composite(N, beta, Gamma):
    ref, got = composite_route(N, beta, Gamma)[1], sector_route(N, beta, Gamma)[1]
    assert_routes_agree(ref, got)
    assert got.tau_Q == pytest.approx(ref.tau_Q, rel=1e-12, abs=0)


def test_six_spins_match_the_composite_at_the_hot_strong_corner():
    # one composite solve at N = 6 (a 924 x 924 population block) takes seconds
    ref, got = composite_route(6, 1e-3, 1e3)[1], sector_route(6, 1e-3, 1e3)[1]
    assert_routes_agree(ref, got)
    assert got.tau_Q == pytest.approx(ref.tau_Q, rel=1e-12, abs=0)
    assert got.zero_multiplicity == 132


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
        sector_route(N, 1.0, Gamma, energy_tol=factor * Gamma)


@settings(max_examples=20, deadline=None)
@given(
    log_beta=st.floats(min_value=-3.0, max_value=4.0),
    log_Gamma=st.floats(min_value=-3.0, max_value=3.0),
    N=st.integers(min_value=1, max_value=5),
)
def test_sector_route_property(log_beta, log_Gamma, N):
    beta, Gamma = 10.0 ** log_beta, 10.0 ** log_Gamma
    ref = qome_spectrum(build_liouvillian(*composite_system(N, Gamma), beta))
    assert_routes_agree(ref, sector_route(N, beta, Gamma)[1])


@pytest.mark.parametrize("N", range(1, 41))
def test_sector_bookkeeping_is_exact(N):
    spec, dip, (level_sector, mult) = spin_sector_system(N, 1.0)
    assert all(type(d) is int for d in mult)
    sizes = np.bincount(level_sector)
    assert sizes.tolist() == [N - 2 * k + 1 for k in range(N // 2 + 1)]
    assert sum(int(size) * d for size, d in zip(sizes, mult)) == 2**N
    assert sum(d * d for d in mult) == math.comb(2 * N, N) // (N + 1)
    assert np.all(np.diff(spec.energies) >= 0)


def test_one_spin_sector_system_is_the_free_spin():
    spec, dip, (level_sector, mult) = spin_sector_system(1, 0.7, gamma=1.3)
    ref_spec, ref_dip = free_spin_system(0.7, gamma=1.3)
    assert np.array_equal(spec.energies, ref_spec.energies)
    assert np.array_equal(dip.D, ref_dip.D)
    assert level_sector.tolist() == [0, 0] and mult == (1,)
