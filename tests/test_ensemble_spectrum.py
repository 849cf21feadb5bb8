"""The one QOME entry of an EnsembleSpec, refereed by the eigh-built register.

``ensemble_spectrum`` picks the route: the total-spin sectors for copies of a
coupled two-level member, the member generators for several members at the
default tolerance, and otherwise one composite register built in the product
eigenbasis from the members' levels and amplitudes. The referee of each is the
composite of the old command line: the register's Hamiltonian, the Kronecker
sum of the copies' Hamiltonians, diagonalized by ``eigh``, with its dipoles
taken in that eigenbasis. The slowest rates are compared to round-off of the
spectral scale, not tau to a relative bound: where tau_Q / tau_P is about 1e7
the nonsymmetric eigensolve places the slowest coherence rate only to
round-off of the scale.
"""

import functools
import math

import numpy as np
import pytest

from thermotimes import qome
from thermotimes.cli import modulated_gammas
from thermotimes.ensemble import EnsembleMember, EnsembleSpec
from thermotimes.errors import NoDissipativeEigenvalue
from thermotimes.model import (
    DipoleData,
    EnergySpectrum,
    QubitSystem,
    _kronecker_sum,
    _product_sum,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
)
from thermotimes.qome import (
    LiouvillianSpectrum,
    MixtureSpectrum,
    _spin_pairs,
    build_liouvillian,
    ensemble_spectrum,
    qome_spectrum,
)

from oracles import random_hermitian

BETAS = (0.1, 1.0, 10.0)


def member(H, count=1, gamma=1.0):
    """An EnsembleMember of ``count`` copies of the qubit system H, diagonalized by eigh."""
    system = QubitSystem(K=int(math.log2(len(H))), H=H, gamma=gamma)
    spec = diagonalize(system)
    return EnsembleMember(spec, dipole_data(system, spec), count)


def eigh_register(H, beta, energy_tol=None, gamma=1.0):
    """The referee: the register of Hamiltonian H diagonalized by eigh, solved by blocks."""
    system = QubitSystem(K=int(math.log2(len(H))), H=H, gamma=gamma)
    spec = diagonalize(system)
    return qome_spectrum(build_liouvillian(spec, dipole_data(system, spec), beta, energy_tol))


def refuse(*args, **kwargs):
    raise AssertionError("a route other than the expected one ran")


def assert_same_times(ref, got):
    assert got.zero_multiplicity == ref.zero_multiplicity
    assert got.tau_P_multiplicity == ref.tau_P_multiplicity
    assert math.isinf(got.tau_Q) == math.isinf(ref.tau_Q)
    for new, old in ((got.tau_P, ref.tau_P), (got.tau_Q, ref.tau_Q)):
        assert abs(1.0 / new - 1.0 / old) <= 1e-13 * ref.scale


@functools.lru_cache(maxsize=None)
def two_level_hamiltonians():
    rng = np.random.default_rng(7)
    return tuple(random_hermitian(rng, 2) for _ in range(6))


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("beta", BETAS)
def test_two_level_copies_take_the_sectors(monkeypatch, k, N, beta):
    H = two_level_hamiltonians()[k]
    ref = eigh_register(_kronecker_sum([H] * N), beta)
    monkeypatch.setattr(qome, "build_liouvillian", refuse)  # the sectors build no generator
    got = ensemble_spectrum(EnsembleSpec([member(H, N)], beta))
    assert len(got.eigenvalues) == len(_spin_pairs(N)[-1])
    assert_same_times(ref, got)


@pytest.mark.parametrize("N, energy_tol, beta", [
    (N, tol, beta) for N in range(2, 7) for tol in (1e-6, 1e-3, 0.3)
    # modulated N = 6 at 0.3 has a Bohr block of 1066: one temperature only
    for beta in (BETAS if (N, tol) != (6, 0.3) else (1.0,))
] + [
    # the widest tolerances of the CLI tests: at 0.75 dipole-free gaps of N = 3 chain
    # into two spins' classes, and 1.0 is table1's explicit tolerance
    (N, tol, beta) for N, tol in [(3, 0.75), (2, 1.0), (3, 1.0), (4, 1.0)] for beta in BETAS
])
def test_modulated_spins_at_an_explicit_tolerance(N, energy_tol, beta):
    spins = [free_spin_system(G) for G in modulated_gammas(N)]
    got = ensemble_spectrum(EnsembleSpec(spins, beta), energy_tol)
    assert len(got.eigenvalues) == 4**N
    assert_same_times(eigh_register(free_spin_chain(modulated_gammas(N)), beta, energy_tol), got)


# three copies hold 64 levels, 4096 level pairs in Bohr blocks of up to 256: one member only
@pytest.mark.parametrize("seed, count", [(2, 2), (5, 2), (2, 3)])
@pytest.mark.parametrize("beta", BETAS)
def test_copies_of_a_four_level_member(seed, count, beta):
    H = random_hermitian(np.random.default_rng(seed), 4)
    got = ensemble_spectrum(EnsembleSpec([member(H, count)], beta))
    assert len(got.eigenvalues) == 16**count
    assert_same_times(eigh_register(_kronecker_sum([H] * count), beta), got)


@pytest.mark.parametrize("beta", BETAS)
def test_counts_inside_a_mixture(monkeypatch, beta):
    # three spins of field 1 and two of field 1.37: two sector routes, no register
    spins = [(*free_spin_system(1.0), 3), (*free_spin_system(1.37), 2)]
    ref = eigh_register(free_spin_chain([1.0] * 3 + [1.37] * 2), beta)
    monkeypatch.setattr(qome, "_composite", refuse)
    got = ensemble_spectrum(EnsembleSpec(spins, beta))
    assert isinstance(got, MixtureSpectrum)
    sectors = [len(_spin_pairs(n)[-1]) for n in (3, 2)]
    assert [len(part.eigenvalues) for part in got.members] == sectors
    assert_same_times(ref, got)


def test_a_register_of_mixed_couplings_keeps_each_coupling():
    # with the first member's gamma for both, the register read tau_P 0.0476, not 2.1358
    spins = EnsembleSpec([free_spin_system(1.0, 1.0), free_spin_system(1.37, 0.01)], 1.0)
    members = ensemble_spectrum(spins)
    register = ensemble_spectrum(spins, energy_tol=1e-9)
    assert isinstance(members, MixtureSpectrum) and isinstance(register, LiouvillianSpectrum)
    assert members.tau_P == pytest.approx(2.1358, rel=1e-4)
    assert_same_times(register, members)


def test_equal_couplings_leave_the_amplitudes_bit_for_bit():
    # the coupling factor sqrt(gamma_i / gamma) is exactly 1.0 for equal couplings
    spins = [EnsembleMember(*free_spin_system(G, 0.3)) for G in modulated_gammas(3)]
    _, dip = qome._composite(spins)
    order = np.argsort(_product_sum([m.spectrum.energies for m in spins]), kind="stable")
    assert dip.gamma == 0.3
    for got, axis in zip(dip.amplitudes, zip(*(m.dipole.amplitudes for m in spins))):
        assert got.tobytes() == _kronecker_sum(axis)[np.ix_(order, order)].tobytes()


@pytest.mark.parametrize("count", [1, 3])
def test_a_decoupled_two_level_member_has_no_dissipation(count):
    # D[0, 1] = 0: the composite of its copies, whose populations never relax,
    # not the sector route, which would refuse the coupling D[0, 1] / 2 = 0
    spec = EnergySpectrum(M=2, energies=np.array([-1.0, 1.0]), eigenbasis=np.eye(2))
    z = np.zeros((2, 2))
    dip = DipoleData(d_x=np.diag([1.0, -1.0]), d_y=z, d_z=z)
    assert dip.D[0, 1] == 0.0
    with pytest.raises(NoDissipativeEigenvalue):
        ensemble_spectrum(EnsembleSpec([(spec, dip, count)], 1.0))

