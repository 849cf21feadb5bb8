"""Byte-for-byte golden outputs of the command line.

The files under ``tests/golden/`` pin seven CSV reports: the default
``table1`` (its two timing columns blanked), the README ``analyze`` config
(modulated spins, N = 1..3, all methods), the same config for uniform
spins (Gamma = 1, N = 1..5, the total-spin sector route) and four ``sweep``
runs on uniform spins: a beta grid through the QOME at N = 4, a Gamma grid
through the explicit rate matrix at N = 3, and, through the QOME at N = 5,
a beta grid from 1e-3 to 600 at Gamma = 1 (its cold rows have tau_Q = inf)
and a Gamma grid from 1e-3 to 1e3 at beta = 0.5. A refactor that keeps every
number must keep every byte. ``lba_numeric_lanczos.json`` holds, as ``repr``
strings, tau_P and tau_Q of ``ensemble_times_numeric`` on products above
DENSE_EIG_LIMIT (the Lanczos branch): modulated spins N = 7..13 at five
temperatures, uniform spins at N = 11 and five copies of a random three-level
member, compared bit for bit. ``dense_and_uniform.json`` pins, the same way,
the dense branch (products up to DENSE_EIG_LIMIT: modulated and uniform spins
at N = 2..6 and one to three copies of the random three-level member, each at
five temperatures) and ``uniform_spin_spectrum`` (tau_P, tau_Q and both
multiplicities for N = 1..8 on a beta x Gamma grid that reaches
beta Gamma = 1e5). ``closed_forms.json`` pins ``free_spins_times`` on
``modulated_gammas``: the ``.hex()`` of tau_P, tau_Q, B_min_total and
min_second_gap and a SHA-256 of per_member_mu2 (and of the field strengths)
for N from 1 to 10^5, across the slice size of 8192, for two field laws,
four temperatures and two couplings.
``composite_qome.json`` pins the composite QOME route, ``qome_spectrum`` on
``build_liouvillian``: tau_P and tau_Q as ``repr``, both multiplicities and a
SHA-256 of the eigenvalues' bit patterns in ascending order, for modulated
spins N = 1..6 at three energy tolerances, uniform spins N = 1..5 and one to
three copies of three random 4 x 4 members at two, each at four temperatures,
with a SHA-256 of each ``_gap_structure`` array of every spectrum and tolerance.
Those bits also depend on the BLAS kernels (dot, axpy and matrix product, which
OpenBLAS picks per CPU), the LAPACK build and numpy's
SIMD math functions: the four files were made with Python 3.11.7, numpy 2.4.6 and
scipy 1.17.1 on x86-64 (the versions the CI workflow pins), and must be
regenerated with any other numpy or scipy. To regenerate the goldens after a
change that is meant to move a number, run

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from thermotimes.cli import TABLE1_COLUMNS, main, modulated_gammas
from thermotimes.ensemble import (
    EnsembleMember,
    EnsembleSpec,
    ensemble_times_numeric,
    free_spins_times,
)
from thermotimes.model import (
    QubitSystem,
    _gap_structure,
    _kronecker_sum,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
)
from thermotimes.qome import (
    _default_energy_tol,
    build_liouvillian,
    qome_spectrum,
    uniform_spin_spectrum,
)

from oracles import random_hermitian, synthetic_system

GOLDEN = Path(__file__).resolve().parent / "golden"

#: The wall-clock columns of table1, blanked before the comparison.
TIMING_COLUMNS = ("lba_cpu_s", "qome_cpu_s")

README_CONFIG = {
    "family": "free_spins_modulated",
    "N_list": [1, 2, 3],
    "beta": 1.0,
    "gamma": 1.0,
    "methods": ["lba_analytic", "lba_numeric", "qome"],
    "output": "csv",
    "include_timings": False,
}
UNIFORM_CONFIG = {**README_CONFIG, "family": "free_spins_uniform", "Gamma": 1.0,
                  "N_list": [1, 2, 3, 4, 5]}
SWEEP_BETA_CONFIG = {"family": "free_spins_uniform", "Gamma": 1.0, "N": 4,
                     "beta_grid": [0.01, 1.0, 100.0], "methods": ["qome"]}
SWEEP_GAMMA_CONFIG = {"family": "free_spins_uniform", "Gamma": 1.0, "N": 3,
                      "Gamma_grid": [0.1, 1.0, 10.0], "methods": ["lba_numeric"]}
# the QOME of uniform spins deep in the cold (tau_Q = inf rows) and at far fields
SWEEP_COLD_CONFIG = {"family": "free_spins_uniform", "Gamma": 1.0, "N": 5,
                     "beta_grid": [1e-3, 1.0, 12.0, 100.0, 600.0], "methods": ["qome"]}
SWEEP_FIELD_CONFIG = {"family": "free_spins_uniform", "Gamma": 1.0, "beta": 0.5, "N": 5,
                      "Gamma_grid": [1e-3, 1.0, 1e3], "methods": ["qome"]}


def _run(argv):
    assert main(argv) == 0


def table1_csv(tmp: Path) -> bytes:
    out = tmp / "table1.csv"
    _run(["table1", "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TABLE1_COLUMNS
    blank = [TABLE1_COLUMNS.index(c) for c in TIMING_COLUMNS]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    for row in rows[1:]:
        writer.writerow(["" if i in blank else cell for i, cell in enumerate(row)])
    return buf.getvalue().encode()


def config_csv(tmp: Path, command: str, config: dict) -> bytes:
    cfg, out = tmp / "config.json", tmp / "report.csv"
    cfg.write_text(json.dumps(config))
    _run([command, "--config", str(cfg), "--out", str(out)])
    return out.read_bytes()


CASES = {
    "table1_default.csv": table1_csv,
    "analyze_readme_modulated.csv": lambda tmp: config_csv(tmp, "analyze", README_CONFIG),
    "analyze_uniform_sectors.csv": lambda tmp: config_csv(tmp, "analyze", UNIFORM_CONFIG),
    "sweep_uniform_beta_qome.csv": lambda tmp: config_csv(tmp, "sweep", SWEEP_BETA_CONFIG),
    "sweep_uniform_gamma_lba_numeric.csv":
        lambda tmp: config_csv(tmp, "sweep", SWEEP_GAMMA_CONFIG),
    "sweep_uniform_beta_qome_cold.csv": lambda tmp: config_csv(tmp, "sweep", SWEEP_COLD_CONFIG),
    "sweep_uniform_gamma_qome.csv": lambda tmp: config_csv(tmp, "sweep", SWEEP_FIELD_CONFIG),
}


LANCZOS_GOLDEN = GOLDEN / "lba_numeric_lanczos.json"
DENSE_UNIFORM_GOLDEN = GOLDEN / "dense_and_uniform.json"
CLOSED_FORMS_GOLDEN = GOLDEN / "closed_forms.json"
COMPOSITE_QOME_GOLDEN = GOLDEN / "composite_qome.json"

#: The temperatures of both full-precision pins.
BETAS = (1e-3, 1.0, 12.0, 100.0, 1e4)


def _times(specs: dict) -> dict:
    times = {name: ensemble_times_numeric(spec) for name, spec in specs.items()}
    return {name: {"tau_P": repr(t.tau_P), "tau_Q": repr(t.tau_Q)} for name, t in times.items()}


def dense_and_uniform_times() -> dict:
    """repr times of ``dense_and_uniform.json``: the dense branch of ``ensemble_times_numeric``
    and ``uniform_spin_spectrum``, with its two multiplicities."""
    specs = {}
    for beta in BETAS:
        for N in range(2, 7):
            members = tuple(EnsembleMember(*free_spin_system(G)) for G in modulated_gammas(N))
            specs[f"modulated N={N} beta={beta!r}"] = EnsembleSpec(members, beta=beta)
            specs[f"uniform N={N} beta={beta!r}"] = EnsembleSpec(
                (EnsembleMember(*free_spin_system(1.0), count=N),), beta=beta)
        spec, dip = synthetic_system(np.random.default_rng(7), 3)
        for count in (1, 2, 3):
            specs[f"random M=3 x {count} beta={beta!r}"] = EnsembleSpec(
                (EnsembleMember(spec, dip, count=count),), beta=beta)
    out = _times(specs)
    for N in range(1, 9):
        for beta in BETAS:
            for Gamma in (1e-3, 1.0, 10.0):
                s = uniform_spin_spectrum(N, Gamma, beta)
                out[f"uniform_spin_spectrum N={N} beta={beta!r} Gamma={Gamma!r}"] = {
                    "tau_P": repr(s.tau_P), "tau_Q": repr(s.tau_Q),
                    "zero_multiplicity": s.zero_multiplicity,
                    "tau_P_multiplicity": s.tau_P_multiplicity,
                }
    return out


def _sha256(values: np.ndarray) -> str:
    assert values.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _multiset_sha256(values: np.ndarray) -> str:
    """SHA-256 of the multiset of a complex array's bit patterns: its (re, im) int64 pairs
    in ascending order, which no input order can change (a sort of the values can, since
    +0.0 and -0.0 compare equal)."""
    bits = np.ascontiguousarray(values, dtype=complex).view(np.int64).reshape(-1, 2)
    return hashlib.sha256(bits[np.lexsort((bits[:, 1], bits[:, 0]))].tobytes()).hexdigest()


def _closed_form_bits(t) -> dict:
    return {"tau_P": t.tau_P.hex(), "tau_Q": t.tau_Q.hex(), "B_min_total": t.B_min_total.hex(),
            "min_second_gap": t.min_second_gap.hex(), "per_member_mu2": _sha256(t.per_member_mu2)}


def closed_forms_times() -> dict:
    """Bits of ``closed_forms.json``: ``free_spins_times`` on ``modulated_gammas`` on each
    side of the 8192-spin slice."""
    laws = {"default": {}, "base=2 amplitude=1.3 frequency=0.7":
            {"base": 2.0, "amplitude": 1.3, "frequency": 0.7}}
    out = {}
    for N in (1, 5, 13, 100, 8191, 8192, 8193, 10**4, 10**5):
        for name, law in laws.items():
            G = modulated_gammas(N, **law)
            out[f"Gamma N={N} law={name}"] = _sha256(G)
            for beta in (1e-3, 1.0, 100.0, 1e4):
                for gamma in (1.0, 0.7):
                    out[f"N={N} law={name} beta={beta!r} gamma={gamma!r}"] = \
                        _closed_form_bits(free_spins_times(G, beta, gamma))
    return out


def composite_qome_times() -> dict:
    """Bits of ``composite_qome.json``: the composite registers' ``_gap_structure`` arrays
    (ids as floats) per energy tolerance, and their QOME times, multiplicities and sorted
    eigenvalues per tolerance and temperature."""
    systems = [(f"modulated N={N}", QubitSystem(K=N, H=free_spin_chain(modulated_gammas(N))),
                (None, 1e-6, 0.3)) for N in range(1, 7)]
    systems += [(f"uniform N={N}", QubitSystem(K=N, H=free_spin_chain(np.ones(N))), (None,))
                for N in range(1, 6)]
    for seed in range(3):
        H = random_hermitian(np.random.default_rng(seed), 4)
        systems += [(f"random 4x4 seed={seed} x {count}",
                     QubitSystem(K=2 * count, H=_kronecker_sum([H] * count)), (None, 1e-3))
                    for count in (1, 2, 3)]
    out = {}
    for name, system, tols in systems:
        spec = diagonalize(system)
        dip = dipole_data(system, spec)
        E = spec.energies
        for tol in tols:
            case = f"{name} energy_tol={tol!r}"
            structure = _gap_structure(E, _default_energy_tol(E[-1] - E[0]) if tol is None else tol)
            for label, values in zip(("lev_ids", "gap_ids", "gap_rep"), structure):
                out[f"{case} {label}"] = _sha256(values.astype(float))
            for beta in (1e-3, 1.0, 100.0, 1e4):
                s = qome_spectrum(build_liouvillian(spec, dip, beta, energy_tol=tol))
                out[f"{case} beta={beta!r}"] = {
                    "tau_P": repr(s.tau_P), "tau_Q": repr(s.tau_Q),
                    "zero_multiplicity": s.zero_multiplicity,
                    "tau_P_multiplicity": s.tau_P_multiplicity,
                    "eigenvalues": _multiset_sha256(s.eigenvalues),
                }
    return out


def lanczos_times() -> dict:
    """repr tau_P and tau_Q of the Lanczos-sized ensembles of ``lba_numeric_lanczos.json``."""
    specs = {}
    for N in range(7, 14):
        for beta in BETAS:
            members = tuple(EnsembleMember(*free_spin_system(G)) for G in modulated_gammas(N))
            specs[f"modulated N={N} beta={beta!r}"] = EnsembleSpec(members, beta=beta)
    specs["uniform N=11 beta=1.0"] = EnsembleSpec(
        (EnsembleMember(*free_spin_system(1.0), count=11),), beta=1.0)
    spec, dip = synthetic_system(np.random.default_rng(7), 3)
    specs["random M=3 x 5 beta=1.0"] = EnsembleSpec(
        (EnsembleMember(spec, dip, count=5),), beta=1.0)
    return _times(specs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert CASES[name](tmp_path) == (GOLDEN / name).read_bytes()


def test_lanczos_times_match_golden():
    assert lanczos_times() == json.loads(LANCZOS_GOLDEN.read_text())


def test_dense_and_uniform_times_match_golden():
    assert dense_and_uniform_times() == json.loads(DENSE_UNIFORM_GOLDEN.read_text())


def test_closed_forms_match_golden():
    assert closed_forms_times() == json.loads(CLOSED_FORMS_GOLDEN.read_text())


def test_composite_qome_matches_golden():
    assert composite_qome_times() == json.loads(COMPOSITE_QOME_GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in CASES.items():
            (GOLDEN / name).write_bytes(build(Path(tmp)))
            print(GOLDEN / name, file=sys.stderr)
    for path, times in ((LANCZOS_GOLDEN, lanczos_times),
                        (DENSE_UNIFORM_GOLDEN, dense_and_uniform_times),
                        (CLOSED_FORMS_GOLDEN, closed_forms_times),
                        (COMPOSITE_QOME_GOLDEN, composite_qome_times)):
        path.write_text(json.dumps(times(), indent=1) + "\n")
        print(path, file=sys.stderr)
