#!/usr/bin/env python3
"""Rebuild the reference table for spins in a spatially periodic field.

Field law: Gamma_i = 1 + sin((i-1) pi / sqrt(2)) / 2 at beta = gamma = 1.
Three routes fill the columns:

  * analytic closed forms (any N, microseconds),
  * explicit product-space construction: symmetrized Kronecker-sum rate
    matrix (dense eigensolve up to product dimension 64, i.e. N = 6, an
    unrestarted three-term Lanczos recurrence on the Gibbs-deflated matrix,
    applied as a sum of small dense blocks, from N = 7) plus escape-rate
    enumeration (N <= 13),
  * the quantum optical master equation, through each spin's own 4 x 4
    Liouvillian (no two fields share a transition frequency, so the
    ensemble generator is the Kronecker sum of the member generators),
    diagonalized one Bohr-frequency block at a time (N <= 5 here).

The same table is available from the command line as `thermotimes table1`.

Run: python demos/04_reference_table.py
"""

import time

from thermotimes.cli import table1_rows

MAX_QOME_N = 5

t0 = time.perf_counter()
rows = table1_rows(max_qome_n=MAX_QOME_N)
elapsed = time.perf_counter() - t0


def cell(value, width=12):
    if value is None:
        return " " * width
    if isinstance(value, float):
        return f"{value:<{width}.5g}"
    return f"{value:<{width}}"


header = ["N", "lba_tauP", "lba_tauQ", "num_tauP", "num_tauQ",
          "num_cpu_s", "qome_tauP", "qome_tauQ", "qome_cpu_s"]
print("".join(f"{h:<12}" for h in header))
for row in rows:
    print("".join([
        cell(row["N"]),
        cell(row["lba_tauP"]), cell(row["lba_tauQ"]),
        cell(row["lba_num_tauP"]), cell(row["lba_num_tauQ"]),
        cell(row["lba_cpu_s"]),
        cell(row["qome_tauP"]), cell(row["qome_tauQ"]),
        cell(row["qome_cpu_s"]),
    ]))

print(f"\nfull table in {elapsed:.1f} s")
print("Read it column by column: the analytic and explicit routes agree to")
print("every printed digit; the microscopic route matches tau_P (unique")
print("steady state in the nonuniform field) but its tau_Q sticks to twice")
print("tau_P instead of decaying with N.")
