#!/usr/bin/env python3
"""How the characteristic times scale with the ensemble size N.

N noninteracting, distinguishable copies of a system share the radiation
bath but not a Hamiltonian coupling. In the product eigenbasis the ensemble
rate matrix is a Kronecker sum, which pins the slowest population rate to
the single-system value: the dissipation time does not depend on N. The
coherences tell a different story: the slowest pair of product-space escape
rates grows linearly with N, so the decoherence time falls off as O(1/N),

    tau_Q = 2 / ((2N - 1) B_(1) + B_(2)).

This script prints both times for uniform ensembles of increasing size,
checks the analytic values against the explicit product-space construction
(Kronecker sum plus escape-rate enumeration) while it is small enough, and
shows the crossover where decoherence stops being the bottleneck.

Run: python demos/02_ensemble_size_scaling.py
"""

import numpy as np

from thermotimes import (
    EnsembleMember,
    EnsembleSpec,
    ensemble_times,
    ensemble_times_numeric,
    free_spin_system,
    free_spins_times,
)

Gamma, beta = 1.0, 1.0

print("uniform field, Gamma = beta = gamma = 1")
print(" N      tau_P      tau_Q     N*tau_Q   explicit check")
for N in [1, 2, 3, 5, 8, 12, 50, 1000]:
    times = ensemble_times(EnsembleSpec((EnsembleMember(*free_spin_system(Gamma), count=N),), beta=beta))
    check = ""
    if 2**N <= 4096:
        numeric = ensemble_times_numeric(
            EnsembleSpec((EnsembleMember(*free_spin_system(Gamma), count=N),), beta=beta)
        )
        dev = max(
            abs(numeric.tau_P - times.tau_P) / times.tau_P,
            abs(numeric.tau_Q - times.tau_Q) / times.tau_Q,
        )
        check = f"dev {dev:.1e}"
    print(f"{N:5d}   {times.tau_P:.5f}   {times.tau_Q:.5f}   {N * times.tau_Q:.5f}   {check}")

print("\ntau_P is flat, N*tau_Q approaches 1/B_(1): decoherence wins at large N.")

print("\nmixture of two species (Gamma = 0.8 and 1.7), growing counts")
print(" n_each   tau_P      tau_Q")
for n in [1, 2, 4, 8]:
    spec = EnsembleSpec(
        (
            EnsembleMember(*free_spin_system(0.8), count=n),
            EnsembleMember(*free_spin_system(1.7), count=n),
        ),
        beta=beta,
    )
    times = ensemble_times(spec)
    print(f"  {n:4d}   {times.tau_P:.5f}   {times.tau_Q:.5f}")
print("\nFor mixtures tau_P locks onto the slowest species while tau_Q keeps")
print("shrinking with the total size.")

# spatially periodic field: the family behind the reference table
i = np.arange(1, 14)
Gs = 1.0 + np.sin((i - 1) * np.pi / np.sqrt(2.0)) / 2.0
print("\nspatially periodic field Gamma_i = 1 + sin((i-1) pi / sqrt 2)/2")
print(" N      tau_P      tau_Q")
for N in [1, 2, 3, 6, 13]:
    times = free_spins_times(Gs[:N], beta=beta)
    print(f"{N:5d}   {times.tau_P:.5f}   {times.tau_Q:.5f}")
print("\ntau_P jumps whenever a weaker field enters the ensemble (smaller gaps")
print("relax slower) and then saturates; tau_Q keeps its O(1/N) trend.")
