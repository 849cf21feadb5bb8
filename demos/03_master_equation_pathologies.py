#!/usr/bin/env python3
"""Where the textbook quantum optical master equation goes wrong.

The microscopically derived master equation builds its jump operators by
grouping dyads |m><n| with equal transition frequency. For one nondegenerate
system that grouping is trivial and the equation agrees exactly with the
detailed-balance construction. An ensemble unavoidably breaks it: equal
subsystems produce degenerate levels, and even unequal two-level subsystems
produce degenerate gaps (each spin's splitting appears on both parity
branches). The frequency grouping then couples matrix elements that should
stay independent, and three symptoms appear:

  * several steady states (zero eigenvalue of the Liouvillian degenerates),
  * a decoherence time that refuses to fall off as 1/N,
  * for strong degeneracy, undamped coherences.

This script prints the jump-operator grouping, the Liouvillian spectrum
summary and the side-by-side comparison for a uniform pair/triple and for
the nonuniform pair.

Run: python demos/03_master_equation_pathologies.py
"""

import numpy as np

from thermotimes import (
    QubitSystem,
    build_liouvillian,
    compare,
    degeneracy_report,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spins_times,
    jump_operator_groups,
    qome_spectrum,
)


def composite(Gammas, beta=1.0):
    system = QubitSystem(K=len(Gammas), H=free_spin_chain(Gammas))
    spec = diagonalize(system)
    return spec, build_liouvillian(spec, dipole_data(system, spec), beta)


def show(name, Gammas, series=None):
    spec, L = composite(Gammas)
    spectrum = qome_spectrum(L)
    deg = degeneracy_report(spec.energies, L.energy_tol)
    lba = free_spins_times(Gammas, beta=1.0)
    report = compare(lba, spectrum, qome_series=series)
    report_pathologies(name, spec, deg, spectrum, lba, report)
    return spectrum


def report_pathologies(name, spec, deg, spectrum, lba, report):
    print(f"\n=== {name} ===")
    print("levels:", np.round(spec.energies, 4))
    print(f"level degeneracy: {deg.has_level_degeneracy}, "
          f"gap degeneracy: {deg.has_gap_degeneracy}")
    print("jump-operator groups (omega: #dyads):",
          {round(w, 4): len(p) for w, p in jump_operator_groups(spec.energies) if w > 0})
    print(f"zero-eigenvalue multiplicity: {spectrum.zero_multiplicity}")
    print(f"detailed balance: tau_P = {lba.tau_P:.5f}  tau_Q = {lba.tau_Q:.5f}")
    print(f"microscopic:      tau_P = {spectrum.tau_P:.5f}  tau_Q = {spectrum.tau_Q:.5f}")
    print(f"agree on tau_P: {report.agree_P}, on tau_Q: {report.agree_Q}")
    print("pathology flags:", report.pathology_flags)


print("single spin: no degeneracies, the two routes must coincide")
show("one spin, Gamma = 1", [1.0])

print("\nuniform ensembles: level AND gap degeneracies")
series = []
for N in (2, 3):
    spectrum = show(f"{N} equal spins, Gamma = 1", [1.0] * N)
    series.append((N, spectrum.tau_P, spectrum.tau_Q))

# with results for two sizes the comparison can also judge the N-scaling
combined = compare(free_spins_times([1.0] * 3, beta=1.0), spectrum, qome_series=series)
print("\nsize-dependence flags from the uniform series:", combined.pathology_flags)

print("\nnonuniform pair: levels fine, gaps degenerate by parity")
i = np.arange(1, 3)
Gs = 1.0 + np.sin((i - 1) * np.pi / np.sqrt(2.0)) / 2.0
show("2 spins, modulated field", list(Gs))

print("""
Summary: the uniform ensembles develop extra steady states (multiplicity
grows with N) and their decoherence time *increases* with N. The nonuniform
pair keeps a unique steady state and the correct dissipation time, but its
decoherence time stays pinned at the single-spin value instead of falling
as 1/N. The detailed-balance route shows none of these artifacts.""")
