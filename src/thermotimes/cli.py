"""Command-line front end: analyze, table1 and sweep subcommands.

Configurations are JSON files; outputs are CSV (RFC 4180 quoting) or JSON
validating against ``schemas/analyze_report.schema.json``. All physics
numbers are reproducible bit for bit between runs with the same
configuration and build; wall-clock columns are the one exception and are
left empty unless timings are requested.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .ensemble import (
    EnsembleMember,
    EnsembleSpec,
    ensemble_times,
    ensemble_times_numeric,
    free_spins_times,
)
from .errors import CapExceeded, ConfigError, ThermotimesError
from .model import (
    QubitSystem,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
    single_site_operator,
    system_from_json,
)
from .qome import LIOUVILLIAN_CAP, TOL_IMAG, TOL_ZERO, build_liouvillian, qome_spectrum

FAMILIES = ("free_spins_uniform", "free_spins_modulated", "custom_hamiltonian")
METHODS = ("lba_analytic", "lba_numeric", "qome")

#: Field-strength law of the reference table: Gamma_i = 1 + sin((i-1) pi / sqrt(2)) / 2.
MODULATION_FREQUENCY = math.pi / math.sqrt(2.0)

TABLE1_SMALL_N = range(1, 14)
TABLE1_LARGE_N = (100, 1000, 10000, 100000)
TABLE1_COLUMNS = (
    "N", "lba_tauP", "lba_tauQ", "lba_num_tauP", "lba_num_tauQ",
    "lba_cpu_s", "qome_tauP", "qome_tauQ", "qome_cpu_s", "warnings",
)


def modulated_gammas(
    N: int,
    base: float = 1.0,
    amplitude: float = 0.5,
    frequency: float = MODULATION_FREQUENCY,
) -> np.ndarray:
    """Spatially periodic field strengths Gamma_i = base + amplitude*sin((i-1)*frequency)."""
    i = np.arange(1, N + 1, dtype=float)
    return base + amplitude * np.sin((i - 1) * frequency)


@dataclass
class RunConfig:
    """Validated configuration of an analyze/sweep run."""

    family: str
    N_list: tuple
    beta: float
    gamma: float = 1.0
    methods: tuple = ("lba_analytic",)
    Gamma: Optional[float] = None
    law: dict = field(default_factory=dict)
    hamiltonian: Optional[dict] = None
    energy_tol: Optional[float] = None
    tol_zero: float = TOL_ZERO
    tol_imag: float = TOL_IMAG
    output: str = "csv"
    include_timings: bool = False
    beta_grid: Optional[tuple] = None
    Gamma_grid: Optional[tuple] = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        family = raw.get("family")
        if family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")
        if "N_list" in raw:
            N_list = tuple(int(n) for n in raw["N_list"])
        else:
            N_list = (int(raw.get("N", 1)),)
        if not N_list or any(n < 1 for n in N_list):
            raise ConfigError(f"ensemble sizes must be >= 1, got {N_list}")
        beta = float(raw.get("beta", 1.0))
        if not (math.isfinite(beta) and beta > 0):
            raise ConfigError(f"beta must be positive and finite, got {beta}")
        gamma = float(raw.get("gamma", 1.0))
        if gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {gamma}")
        methods = tuple(raw.get("methods", ("lba_analytic",)))
        bad = [m for m in methods if m not in METHODS]
        if bad or not methods:
            raise ConfigError(f"methods must be a nonempty subset of {METHODS}, got {methods}")
        Gamma = raw.get("Gamma")
        if family == "free_spins_uniform":
            if Gamma is None or float(Gamma) <= 0:
                raise ConfigError("free_spins_uniform requires Gamma > 0")
            Gamma = float(Gamma)
        hamiltonian = raw.get("hamiltonian")
        if family == "custom_hamiltonian" and hamiltonian is None:
            raise ConfigError("custom_hamiltonian requires a 'hamiltonian' object")
        tols = raw.get("tolerances", {})
        output = raw.get("output", "csv")
        if output not in ("csv", "json"):
            raise ConfigError(f"output must be 'csv' or 'json', got {output!r}")
        grid = {}
        for key in ("beta_grid", "Gamma_grid"):
            if key in raw:
                grid[key] = tuple(float(x) for x in raw[key])
        return cls(
            family=family,
            N_list=N_list,
            beta=beta,
            gamma=gamma,
            methods=methods,
            Gamma=Gamma,
            law=dict(raw.get("law", {})),
            hamiltonian=hamiltonian,
            energy_tol=tols.get("energy_tol"),
            tol_zero=float(tols.get("tol_zero", TOL_ZERO)),
            tol_imag=float(tols.get("tol_imag", TOL_IMAG)),
            output=output,
            include_timings=bool(raw.get("include_timings", False)),
            beta_grid=grid.get("beta_grid"),
            Gamma_grid=grid.get("Gamma_grid"),
        )


def _field_strengths(config: RunConfig, N: int) -> np.ndarray:
    if config.family == "free_spins_uniform":
        return np.full(N, config.Gamma, dtype=float)
    law = config.law
    return modulated_gammas(
        N,
        base=float(law.get("base", 1.0)),
        amplitude=float(law.get("amplitude", 0.5)),
        frequency=float(law.get("frequency", MODULATION_FREQUENCY)),
    )


def _custom_member(config: RunConfig):
    sys_ = system_from_json(config.hamiltonian, gamma=config.gamma)
    spec = diagonalize(sys_)
    return sys_, spec, dipole_data(sys_, spec)


def _ensemble_spec(config: RunConfig, N: int) -> EnsembleSpec:
    if config.family == "custom_hamiltonian":
        _, spec, dip = _custom_member(config)
        members = (EnsembleMember(spec, dip, count=N),)
    elif config.family == "free_spins_uniform":
        spec, dip = free_spin_system(config.Gamma, config.gamma)
        members = (EnsembleMember(spec, dip, count=N),)
    else:
        members = tuple(
            EnsembleMember(*free_spin_system(G, config.gamma))
            for G in _field_strengths(config, N)
        )
    return EnsembleSpec(members=members, beta=config.beta)


def _composite_system(config: RunConfig, N: int) -> QubitSystem:
    """The ensemble as one composite qubit register (QOME route)."""
    if config.family == "custom_hamiltonian":
        member, _, _ = _custom_member(config)
        H_total = sum(single_site_operator(N, i, member.H) for i in range(N))
        return QubitSystem(K=member.K * N, H=H_total, gamma=config.gamma)
    return QubitSystem(K=N, H=free_spin_chain(_field_strengths(config, N)), gamma=config.gamma)


def _run_qome(config: RunConfig, N: int):
    system = _composite_system(config, N)
    if system.dim**2 > LIOUVILLIAN_CAP:
        raise CapExceeded(
            f"QOME dimension {system.dim**2} for N={N} exceeds cap {LIOUVILLIAN_CAP}"
        )
    spec = diagonalize(system, require_nondegenerate=False)
    dip = dipole_data(system, spec)
    t0 = time.perf_counter()
    L = build_liouvillian(spec, dip, config.beta, energy_tol=config.energy_tol)
    spectrum = qome_spectrum(L, tol_zero=config.tol_zero, tol_imag=config.tol_imag)
    wall = time.perf_counter() - t0
    return spectrum, wall


def _run_method(config: RunConfig, N: int, method: str) -> dict:
    record = {"N": N, "method": method, "qome_zero_multiplicity": None, "wall_s": None}
    if method == "lba_analytic":
        t0 = time.perf_counter()
        if config.family in ("free_spins_uniform", "free_spins_modulated"):
            times = free_spins_times(_field_strengths(config, N), config.beta, config.gamma)
        else:
            times = ensemble_times(_ensemble_spec(config, N))
        wall = time.perf_counter() - t0
        record.update(tau_P=times.tau_P, tau_Q=times.tau_Q, tau=times.tau)
    elif method == "lba_numeric":
        spec = _ensemble_spec(config, N)
        t0 = time.perf_counter()
        times = ensemble_times_numeric(spec)
        wall = time.perf_counter() - t0
        record.update(tau_P=times.tau_P, tau_Q=times.tau_Q, tau=times.tau)
    elif method == "qome":
        spectrum, wall = _run_qome(config, N)
        tau = None
        if spectrum.tau_P is not None and spectrum.tau_Q is not None:
            tau = max(spectrum.tau_P, spectrum.tau_Q)
        record.update(
            tau_P=spectrum.tau_P, tau_Q=spectrum.tau_Q, tau=tau,
            qome_zero_multiplicity=spectrum.zero_multiplicity,
        )
    else:
        raise ConfigError(f"unknown method {method!r}")
    record["wall_s"] = round(wall, 6) if config.include_timings else None
    return record


def analyze_records(config: RunConfig) -> list:
    """One record per (N, method), ordered by N and then by method."""
    return [_run_method(config, N, m) for N in config.N_list for m in config.methods]


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """CSV cell: 5 significant figures for floats, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.5g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


def write_records_csv(records: Sequence[dict], path: str) -> None:
    columns = ("N", "method", "tau_P", "tau_Q", "tau", "qome_zero_multiplicity", "wall_s")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec.get(c)) for c in columns])


def write_records_json(records: Sequence[dict], config: RunConfig, path: str) -> None:
    doc = {
        "config": {
            "family": config.family,
            "N_list": list(config.N_list),
            "beta": config.beta,
            "gamma": config.gamma,
            "Gamma": config.Gamma,
            "methods": list(config.methods),
        },
        "records": [
            {key: _jsonable(val) for key, val in rec.items()} for rec in records
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(config_path: str, out_path: Optional[str] = None) -> str:
    """Run the configured methods over the configured sizes; write the report."""
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    config = RunConfig.from_dict(raw)
    records = analyze_records(config)
    if out_path is None:
        out_path = "analyze_report." + ("json" if config.output == "json" else "csv")
    if config.output == "json":
        write_records_json(records, config, out_path)
    else:
        write_records_csv(records, out_path)
    return out_path


def table1_rows(
    max_qome_n: int = 6,
    energy_tol: Optional[float] = None,
    beta: float = 1.0,
    gamma: float = 1.0,
) -> list:
    """Reference-table rows for the modulated free-spin family.

    Sizes 1..13 carry the analytic and the explicit-matrix route, sizes up to
    ``max_qome_n`` additionally the quantum optical master equation; the four
    large sizes are analytic only. The warnings cell flags degenerate steady
    states and undamped coherences of the microscopic route.
    """
    config = RunConfig(
        family="free_spins_modulated", N_list=(1,), beta=beta, gamma=gamma,
        energy_tol=energy_tol,
    )
    rows = []
    for N in list(TABLE1_SMALL_N) + list(TABLE1_LARGE_N):
        row = {c: None for c in TABLE1_COLUMNS}
        row["N"] = N
        warnings = []
        times = free_spins_times(_field_strengths(config, N), beta, gamma)
        row["lba_tauP"], row["lba_tauQ"] = times.tau_P, times.tau_Q
        if N in TABLE1_SMALL_N:
            t0 = time.perf_counter()
            num = ensemble_times_numeric(_ensemble_spec(config, N))
            row["lba_cpu_s"] = round(time.perf_counter() - t0, 3)
            row["lba_num_tauP"], row["lba_num_tauQ"] = num.tau_P, num.tau_Q
        if N in TABLE1_SMALL_N and N <= max_qome_n:
            spectrum, wall = _run_qome(config, N)
            row["qome_tauP"], row["qome_tauQ"] = spectrum.tau_P, spectrum.tau_Q
            row["qome_cpu_s"] = round(wall, 3)
            if spectrum.zero_multiplicity > 1:
                warnings.append("qome_multiple_steady_states")
            if spectrum.tau_Q is not None and math.isinf(spectrum.tau_Q):
                warnings.append("qome_undamped_coherence")
        row["warnings"] = ";".join(warnings) if warnings else None
        rows.append(row)
    return rows


def cmd_table1(
    out_path: str = "table1.csv",
    max_qome_n: int = 6,
    energy_tol: Optional[float] = None,
) -> str:
    """Emit the reference table as CSV."""
    if 4**max_qome_n > LIOUVILLIAN_CAP:
        raise CapExceeded(f"QOME dimension 4**{max_qome_n} exceeds cap {LIOUVILLIAN_CAP}")
    rows = table1_rows(max_qome_n=max_qome_n, energy_tol=energy_tol)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE1_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in TABLE1_COLUMNS])
    return out_path


def sweep_records(config: RunConfig) -> list:
    """One row per grid point, computed independently and sorted by grid key."""
    if config.beta_grid is not None and config.Gamma_grid is not None:
        raise ConfigError("provide either beta_grid or Gamma_grid, not both")
    if config.beta_grid is not None:
        key, grid = "beta", sorted(config.beta_grid)
        if any(b <= 0 for b in grid):
            raise ConfigError("all beta grid points must be > 0")
    elif config.Gamma_grid is not None:
        key, grid = "Gamma", sorted(config.Gamma_grid)
        if any(g <= 0 for g in grid):
            raise ConfigError("all Gamma grid points must be > 0")
    else:
        raise ConfigError("sweep needs a beta_grid or a Gamma_grid")
    if not grid:
        raise ConfigError("the sweep grid is empty")
    if len(config.methods) != 1:
        raise ConfigError("sweep supports exactly one method per run")
    method = config.methods[0]

    def run_point(value):
        point = replace(
            config,
            beta=value if key == "beta" else config.beta,
            Gamma=value if key == "Gamma" else config.Gamma,
            beta_grid=None,
            Gamma_grid=None,
        )
        rec = _run_method(point, point.N_list[0], method)
        return {key: value, **{k: rec[k] for k in ("tau_P", "tau_Q", "tau", "wall_s")}}

    return [run_point(value) for value in grid]


def cmd_sweep(config_path: str, out_path: Optional[str] = None) -> str:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    config = RunConfig.from_dict(raw)
    records = sweep_records(config)
    key = "beta" if config.beta_grid is not None else "Gamma"
    if out_path is None:
        out_path = "sweep_report.csv"
    columns = (key, "tau_P", "tau_Q", "tau", "wall_s")
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec.get(c)) for c in columns])
    return out_path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermotimes",
        description="Thermalization, dissipation and decoherence times of "
                    "dipole-coupled ensembles in blackbody radiation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the methods given in a JSON config")
    p_analyze.add_argument("--config", required=True)
    p_analyze.add_argument("--out", default=None)

    p_table = sub.add_parser("table1", help="reference table for the modulated spin family")
    p_table.add_argument("--max-qome-n", type=int, default=6)
    p_table.add_argument("--out", default="table1.csv")
    p_table.add_argument("--energy-tol", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="sweep a beta or Gamma grid from a JSON config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            out = cmd_analyze(args.config, args.out)
        elif args.command == "table1":
            out = cmd_table1(args.out, max_qome_n=args.max_qome_n, energy_tol=args.energy_tol)
        else:
            out = cmd_sweep(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ThermotimesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
