"""The member route of the QOME, refereed by the composite block solver.

When no transition frequency of one member lies within the energy tolerance
of a frequency of another, every jump operator acts on one member and the
mixture's generator is the Kronecker sum of the member generators: its
spectrum is the multiset of all sums of one eigenvalue per member.
"""

import functools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from thermotimes.cli import modulated_gammas
from thermotimes.ensemble import free_spins_times
from thermotimes.errors import EmptyEnsemble, ResonantMembers
from thermotimes.model import (
    DipoleData,
    EnergySpectrum,
    QubitSystem,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
)
from thermotimes.qome import (
    _member_tolerance,
    build_liouvillian,
    mixture_spectrum,
    qome_spectrum,
)

from oracles import synthetic_system

BETAS = (1e-3, 1.0, 1e4)


def spins(Gammas):
    return [free_spin_system(G) for G in Gammas]


@functools.lru_cache(maxsize=None)
def composite_route(N, beta):
    system = QubitSystem(K=N, H=free_spin_chain(modulated_gammas(N)))
    spec = diagonalize(system, require_nondegenerate=False)
    return qome_spectrum(build_liouvillian(spec, dipole_data(system, spec), beta))


def all_sums(mixture):
    """Every sum of one eigenvalue per member, the spectrum of the Kronecker sum."""
    return functools.reduce(np.add.outer, [m.eigenvalues for m in mixture.members]).ravel()


def assert_same_multiset(ref, got, scale):
    assert len(got) == len(ref)
    cost = np.abs(ref[:, None] - got[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * scale


def assert_times_agree(ref, got):
    assert got.zero_multiplicity == ref.zero_multiplicity
    assert got.tau_P == pytest.approx(ref.tau_P, rel=1e-12, abs=0)
    assert got.tau_Q == pytest.approx(ref.tau_Q, rel=1e-12, abs=0)


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("beta", BETAS)
def test_full_spectrum_is_the_sum_of_member_spectra(N, beta):
    ref = composite_route(N, beta)
    got = mixture_spectrum(spins(modulated_gammas(N)), beta)
    assert_same_multiset(ref.eigenvalues, all_sums(got), ref.scale)
    assert_times_agree(ref, got)
    assert got.zero_multiplicity == 1


@pytest.mark.parametrize("beta", BETAS)
def test_times_match_the_composite_at_six_spins(beta):
    got = mixture_spectrum(spins(modulated_gammas(6)), beta)
    assert_times_agree(composite_route(6, beta), got)
    # the decoherence pathology in closed form: tau_Q = 2 max_i tau_P,i, the detailed-balance tau_P doubled
    assert got.tau_P == pytest.approx(free_spins_times(modulated_gammas(6), beta).tau_P, rel=1e-12)
    assert got.tau_Q == pytest.approx(2.0 * got.tau_P, rel=1e-12)


def test_modulated_spins_keep_a_wide_margin_up_to_thirteen():
    # the CLI takes the member route for modulated spins at the default tolerance:
    # their closest frequencies of two spins stay a millionfold farther apart
    for N in range(2, 14):
        spectra = [spec for spec, _ in spins(modulated_gammas(N))]
        _member_tolerance(spectra, 1e6 * _member_tolerance(spectra))


def product_system(members):
    """The mixture as one system: product levels sorted ascending, local dipoles d (x) 1 + 1 (x) d."""
    (s1, d1), (s2, d2) = members
    E = np.add.outer(s1.energies, s2.energies).ravel()
    order = np.argsort(E, kind="stable")
    amps = [(np.kron(a, np.eye(s2.M)) + np.kron(np.eye(s1.M), b))[np.ix_(order, order)]
            for a, b in zip(d1.amplitudes, d2.amplitudes)]
    spec = EnergySpectrum(M=len(E), energies=E[order], eigenbasis=np.eye(len(E)))
    return spec, DipoleData(d_x=amps[0], d_y=amps[1], d_z=amps[2])


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("beta", BETAS)
def test_synthetic_members_with_disjoint_frequencies(seed, beta):
    rng = np.random.default_rng(seed)
    members = [synthetic_system(rng, 3), synthetic_system(rng, 2, span=9.0)]
    spectra = [spec for spec, _ in members]
    _member_tolerance(spectra, 1e3 * _member_tolerance(spectra))
    ref = qome_spectrum(build_liouvillian(*product_system(members), beta))
    got = mixture_spectrum(members, beta)
    assert_same_multiset(ref.eigenvalues, all_sums(got), ref.scale)
    assert_times_agree(ref, got)


def test_premise_fails_for_two_equal_fields():
    with pytest.raises(ResonantMembers, match=r"members 0 and 2 share the transition frequency 2 ~ 2"):
        mixture_spectrum(spins([1.0, 1.25, 1.0]), 1.0)
    # within the default tolerance (1e-9 of the spread 4) is the same as equal
    with pytest.raises(ResonantMembers, match="energy_tol 4e-09"):
        _member_tolerance([spec for spec, _ in spins([1.0, 1.0 + 1e-9])])
    # an exact tolerance refuses only exact equality
    assert _member_tolerance([spec for spec, _ in spins([1.0, 1.0 + 1e-9])], 0.0) == 0.0
    with pytest.raises(ResonantMembers):
        _member_tolerance([spec for spec, _ in spins([1.0, 1.0])], 0.0)
    with pytest.raises(EmptyEnsemble):
        mixture_spectrum([], 1.0)


def test_premise_is_checked_before_anything_is_built(monkeypatch):
    from thermotimes import qome

    def refuse(*args, **kwargs):
        raise AssertionError("a member generator was built")

    monkeypatch.setattr(qome, "build_liouvillian", refuse)
    with pytest.raises(ResonantMembers):
        mixture_spectrum(spins([1.0, 1.0]), 1.0)


def test_tolerance_is_the_composites():
    # two spins whose frequencies 2 and 3 are 1 apart
    assert _member_tolerance([spec for spec, _ in spins([1.0, 1.5])], 0.5) == 0.5
    with pytest.raises(ResonantMembers, match="1 apart, energy_tol 1"):
        _member_tolerance([spec for spec, _ in spins([1.0, 1.5])], 1.0)
    # the default: DEGENERACY_RTOL times the summed spread, at least 1; one member leaves nothing to resonate
    assert _member_tolerance([spec for spec, _ in spins([1.0, 1.5])]) == pytest.approx(5e-9, rel=1e-15)
    assert _member_tolerance([free_spin_system(1.0)[0]]) == 2e-9
