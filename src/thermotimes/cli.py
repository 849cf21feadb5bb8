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
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .ensemble import (
    EnsembleSpec,
    _ensemble_times,
    _ensemble_times_numeric,
    _member_analysis,
    free_spins_times,
)
from .errors import CapExceeded, ConfigError, ResonantMembers, ThermotimesError
from .model import (
    QubitSystem,
    _kronecker_sum,
    diagonalize,
    dipole_data,
    free_spin_chain,
    free_spin_system,
    system_from_json,
)
from .qome import (
    TOL_ZERO,
    _check_qome_size,
    build_liouvillian,
    mixture_spectrum,
    qome_spectrum,
    uniform_spin_spectrum,
)

FAMILIES = ("free_spins_uniform", "free_spins_modulated", "custom_hamiltonian")
METHODS = ("lba_analytic", "lba_numeric", "qome")

#: Field-strength law of the reference table: Gamma_i = 1 + sin((i-1) pi / sqrt(2)) / 2.
MODULATION_FREQUENCY = math.pi / math.sqrt(2.0)

#: Keys of the optional ``law`` object of free_spins_modulated (see modulated_gammas).
LAW_KEYS = {"base", "amplitude", "frequency"}

#: Config keys that one family reads and the others would ignore.
_FAMILY_KEYS = {"Gamma": "free_spins_uniform", "Gamma_grid": "free_spins_uniform",
                "law": "free_spins_modulated", "hamiltonian": "custom_hamiltonian"}

TABLE1_SMALL_N = range(1, 14)
TABLE1_LARGE_N = (100, 1000, 10000, 100000)
TABLE1_COLUMNS = (
    "N", "lba_tauP", "lba_tauQ", "lba_num_tauP", "lba_num_tauQ",
    "lba_cpu_s", "qome_tauP", "qome_tauQ", "qome_cpu_s", "warnings",
)
ANALYZE_COLUMNS = ("N", "method", "tau_P", "tau_Q", "tau", "qome_zero_multiplicity", "wall_s")


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
    output: str = "csv"
    include_timings: bool = False
    beta_grid: Optional[tuple] = None
    Gamma_grid: Optional[tuple] = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        tols = raw.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigError("tolerances must be a JSON object")
        law = raw.get("law", {})
        if not isinstance(law, dict):
            raise ConfigError("law must be a JSON object")
        tol_keys = {"energy_tol", "tol_zero"}
        top_keys = {f.name for f in fields(cls)} - tol_keys | {"N", "tolerances"}
        unknown = sorted(set(raw) - top_keys) \
            + sorted(f"tolerances.{k}" for k in set(tols) - tol_keys) \
            + sorted(f"law.{k}" for k in set(law) - LAW_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        family = raw.get("family")
        if family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")
        ignored = sorted(k for k, owner in _FAMILY_KEYS.items() if k in raw and owner != family)
        if ignored:
            raise ConfigError(f"{family} does not read {', '.join(ignored)}")
        if "beta" in raw and "beta_grid" in raw:
            raise ConfigError("give beta or beta_grid, not both: each grid point replaces beta")
        if "N_list" in raw:
            N_list = _numbers(raw, "N_list", integer=True)
            if "N" in raw:
                raise ConfigError("give N or N_list, not both")
        else:
            N_list = (_number("N", raw.get("N", 1), integer=True),)
        methods = raw.get("methods", ["lba_analytic"])
        if not isinstance(methods, list) or not methods or any(m not in METHODS for m in methods):
            raise ConfigError(f"methods must be a nonempty subset of {METHODS}, got {methods!r}")
        Gamma = raw.get("Gamma")
        if Gamma is not None:
            Gamma = _number("Gamma", Gamma)
        elif family == "free_spins_uniform":
            raise ConfigError("free_spins_uniform requires Gamma > 0")
        gamma = _number("gamma", raw.get("gamma", 1.0))
        hamiltonian = raw.get("hamiltonian")
        if family == "custom_hamiltonian":
            if hamiltonian is None:
                raise ConfigError("custom_hamiltonian requires a 'hamiltonian' object")
            try:
                system_from_json(hamiltonian, gamma=gamma)
            except ThermotimesError as exc:
                raise ConfigError(f"hamiltonian: {exc}") from exc
        energy_tol = tols.get("energy_tol")
        if energy_tol is not None:
            energy_tol = _number("tolerances.energy_tol", energy_tol, ">= 0")
        output = raw.get("output", "csv")
        if output not in ("csv", "json"):
            raise ConfigError(f"output must be 'csv' or 'json', got {output!r}")
        include_timings = raw.get("include_timings", False)
        if not isinstance(include_timings, bool):
            raise ConfigError(f"include_timings must be true or false, got {include_timings!r}")
        return cls(
            family=family,
            N_list=N_list,
            beta=_number("beta", raw.get("beta", 1.0)),
            gamma=gamma,
            methods=tuple(methods),
            Gamma=Gamma,
            law={key: _number(f"law.{key}", value, "") for key, value in law.items()},
            hamiltonian=hamiltonian,
            energy_tol=energy_tol,
            tol_zero=_number("tolerances.tol_zero", tols.get("tol_zero", TOL_ZERO)),
            output=output,
            include_timings=include_timings,
            beta_grid=_numbers(raw, "beta_grid") if "beta_grid" in raw else None,
            Gamma_grid=_numbers(raw, "Gamma_grid") if "Gamma_grid" in raw else None,
        )


_RULES = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0, "": lambda x: True}


def _number(key: str, value, rule: str = "> 0", integer: bool = False):
    """The one rule for config numbers: a finite JSON number (never a bool or
    a string), an integer if ``integer``, that satisfies ``rule``."""
    try:
        ok = isinstance(value, int if integer else (int, float)) \
            and not isinstance(value, bool) and math.isfinite(value) and _RULES[rule](value)
    except OverflowError:  # an integer literal beyond the float range
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{key} must be {kind} {rule}".rstrip() + f", got {value!r}")
    return value if integer else float(value)


def _numbers(raw: dict, key: str, integer: bool = False) -> tuple:
    """A nonempty JSON array of numbers, each checked by ``_number`` as ``key[i]``."""
    values = raw[key]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key} must be a nonempty JSON array, got {values!r}")
    return tuple(_number(f"{key}[{i}]", x, integer=integer) for i, x in enumerate(values))


def _field_strengths(config: RunConfig, N: int) -> np.ndarray:
    if config.family == "free_spins_uniform":
        return np.full(N, config.Gamma, dtype=float)
    return modulated_gammas(N, **config.law)


def _run_members(config: RunConfig, N_max: int):
    """``members(N)``, N <= N_max: the N-ensemble's ``ensemble._member_analysis`` parts,
    built and analysed on the first call. Gamma_i is set by i alone, so modulated spins
    give the first N of N_max; a uniform or custom member gets count N."""
    parts = []

    def members(N: int) -> list:
        if not parts:
            if config.family == "custom_hamiltonian":
                system = system_from_json(config.hamiltonian, gamma=config.gamma)
                spec = diagonalize(system)
                pairs = [(spec, dipole_data(system, spec))]
            elif config.family == "free_spins_uniform":
                pairs = [free_spin_system(config.Gamma, config.gamma)]
            else:
                pairs = [free_spin_system(G, config.gamma) for G in _field_strengths(config, N_max)]
            parts.extend(_member_analysis(EnsembleSpec(members=pairs, beta=config.beta)))
        if config.family == "free_spins_modulated":
            return parts[:N]
        (member, *analysis), = parts
        return [(replace(member, count=N), *analysis)]

    return members


def _composite_system(config: RunConfig, N: int) -> QubitSystem:
    """The ensemble as one composite qubit register (QOME route of the custom
    family and of resonant modulated spins), size-checked first."""
    if config.family == "custom_hamiltonian":
        member = system_from_json(config.hamiltonian, gamma=config.gamma)
        _check_qome_size(member.dim, N)
        return QubitSystem(K=member.K * N, H=_kronecker_sum([member.H] * N), gamma=config.gamma)
    _check_qome_size(2, N)
    return QubitSystem(K=N, H=free_spin_chain(_field_strengths(config, N)), gamma=config.gamma)


def _run_qome(config: RunConfig, N: int, members):
    """QOME spectrum of N members: modulated spins at the default tolerance go
    through their own generators unless two share a transition frequency,
    identical spins through their total-spin sectors under that route's own
    size rule (N <= 14), every other ensemble through the composite register."""
    # An explicit tolerance can chain composite gaps or levels (dipole-free
    # ones too) that the premise, comparing member frequencies only, does not
    # see; the default one is far below such chains (the default law keeps the
    # member frequencies over 1e6 tolerances apart up to N = 13).
    if config.family == "free_spins_modulated" and config.energy_tol is None:
        try:
            return mixture_spectrum([(m.spectrum, m.dipole) for m, *_ in members(N)],
                                    config.beta, tol_zero=config.tol_zero)
        except ResonantMembers:
            pass
    if config.family == "free_spins_uniform":
        return uniform_spin_spectrum(N, config.Gamma, config.beta, config.gamma,
                                     energy_tol=config.energy_tol, tol_zero=config.tol_zero)
    system = _composite_system(config, N)
    spec = diagonalize(system)
    dip = dipole_data(system, spec)
    L = build_liouvillian(spec, dip, config.beta, energy_tol=config.energy_tol)
    return qome_spectrum(L, tol_zero=config.tol_zero)


def _run_method(config: RunConfig, N: int, method: str, members) -> dict:
    """One record from the run's shared ``members`` (``_run_members``). ``wall_s`` times the
    method, and the members' build and analysis if this record is the first to read them."""
    record = {"N": N, "method": method, "qome_zero_multiplicity": None, "wall_s": None}
    t0 = time.perf_counter()
    if method == "lba_analytic" and config.family in ("free_spins_uniform", "free_spins_modulated"):
        times = free_spins_times(_field_strengths(config, N), config.beta, config.gamma)
    elif method == "lba_analytic":
        times = _ensemble_times(members(N))
    elif method == "lba_numeric":
        times = _ensemble_times_numeric(members(N), config.beta)
    elif method == "qome":
        times = _run_qome(config, N, members)
        record["qome_zero_multiplicity"] = times.zero_multiplicity
    else:
        raise ConfigError(f"unknown method {method!r}")
    wall = time.perf_counter() - t0
    tau = None
    if times.tau_P is not None and times.tau_Q is not None:
        tau = max(times.tau_P, times.tau_Q)
    record.update(tau_P=times.tau_P, tau_Q=times.tau_Q, tau=tau,
                  wall_s=round(wall, 6) if config.include_timings else None)
    return record


def analyze_records(config: RunConfig) -> list:
    """One record per (N, method), ordered by N and then by method."""
    grids = [key for key in ("beta_grid", "Gamma_grid") if getattr(config, key) is not None]
    if grids:
        raise ConfigError(f"analyze does not read {', '.join(grids)}; sweep does")
    members = _run_members(config, max(config.N_list))
    return [_run_method(config, N, m, members) for N in config.N_list for m in config.methods]


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


def write_csv(rows: Sequence[dict], columns: Sequence[str], path: str) -> None:
    """One header line, then one line per row; missing cells are empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


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

def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig.from_dict(raw)


def cmd_analyze(config_path: str, out_path: Optional[str] = None) -> str:
    """Run the configured methods over the configured sizes; write the report."""
    config = _load_config(config_path)
    records = analyze_records(config)
    if out_path is None:
        out_path = "analyze_report." + config.output
    if config.output == "json":
        write_records_json(records, config, out_path)
    else:
        write_csv(records, ANALYZE_COLUMNS, out_path)
    return out_path


def table1_rows(
    max_qome_n: int = 6,
    energy_tol: Optional[float] = None,
    beta: float = 1.0,
) -> list:
    """Reference-table rows for the modulated free-spin family (gamma = 1).

    Sizes 1..13 carry the analytic and the explicit-matrix route, sizes up to
    ``max_qome_n`` additionally the quantum optical master equation (through
    the member generators at the default tolerance); the four large sizes
    are analytic only. ``lba_cpu_s`` and ``qome_cpu_s`` hold the wall-clock
    seconds of the explicit-matrix and the master-equation method; the 13
    members, which every row shares, are built and analysed before the first
    row, so no row charges them. The warnings cell flags degenerate steady
    states and undamped coherences of the microscopic route.
    """
    # every table reaches the Lanczos branch (N = 7..13): load its scipy modules
    # (the sparse S and the tridiagonal eigensolver) here, so that the first
    # Lanczos row does not time the import
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    config = RunConfig(
        family="free_spins_modulated", N_list=(1,), beta=beta,
        energy_tol=energy_tol, include_timings=True,
    )
    members = _run_members(config, TABLE1_SMALL_N[-1])
    members(1)  # build them here, so that no row times it
    rows = []
    for N in list(TABLE1_SMALL_N) + list(TABLE1_LARGE_N):
        lba = _run_method(config, N, "lba_analytic", members)
        row = {**dict.fromkeys(TABLE1_COLUMNS), "N": N,
               "lba_tauP": lba["tau_P"], "lba_tauQ": lba["tau_Q"]}
        warnings = []
        if N in TABLE1_SMALL_N:
            num = _run_method(config, N, "lba_numeric", members)
            row.update(lba_num_tauP=num["tau_P"], lba_num_tauQ=num["tau_Q"],
                       lba_cpu_s=round(num["wall_s"], 3))
        if N in TABLE1_SMALL_N and N <= max_qome_n:
            qome = _run_method(config, N, "qome", members)
            row.update(qome_tauP=qome["tau_P"], qome_tauQ=qome["tau_Q"],
                       qome_cpu_s=round(qome["wall_s"], 3))
            if qome["qome_zero_multiplicity"] > 1:
                warnings.append("qome_multiple_steady_states")
            if qome["tau_Q"] is not None and math.isinf(qome["tau_Q"]):
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
    max_qome_n = _number("--max-qome-n", max_qome_n, ">= 0", integer=True)
    if energy_tol is not None:
        energy_tol = _number("--energy-tol", energy_tol, ">= 0")
        # only the default tolerance takes the member route (see _run_qome)
        _check_qome_size(2, max_qome_n)
    write_csv(table1_rows(max_qome_n=max_qome_n, energy_tol=energy_tol), TABLE1_COLUMNS, out_path)
    return out_path


def sweep_records(config: RunConfig) -> list:
    """One row per grid point, computed independently and sorted by grid key."""
    if config.beta_grid is not None and config.Gamma_grid is not None:
        raise ConfigError("provide either beta_grid or Gamma_grid, not both")
    if config.beta_grid is not None:
        key, grid = "beta", sorted(config.beta_grid)
    elif config.Gamma_grid is not None:
        key, grid = "Gamma", sorted(config.Gamma_grid)
    else:
        raise ConfigError("sweep needs a beta_grid or a Gamma_grid")
    if len(config.methods) != 1:
        raise ConfigError("sweep supports exactly one method per run")
    if len(config.N_list) != 1:
        raise ConfigError("sweep runs one ensemble size: N_list must hold exactly one entry")
    if config.output != "csv":
        raise ConfigError(f"sweep writes CSV only: output must be 'csv', got {config.output!r}")
    method = config.methods[0]

    def run_point(value):
        point = replace(config, beta_grid=None, Gamma_grid=None, **{key: value})
        rec = _run_method(point, point.N_list[0], method, _run_members(point, point.N_list[0]))
        return {key: value, **{k: rec[k] for k in ("tau_P", "tau_Q", "tau", "wall_s")}}

    return [run_point(value) for value in grid]


def cmd_sweep(config_path: str, out_path: Optional[str] = None) -> str:
    config = _load_config(config_path)
    key = "beta" if config.beta_grid is not None else "Gamma"
    if out_path is None:
        out_path = "sweep_report.csv"
    write_csv(sweep_records(config), (key, "tau_P", "tau_Q", "tau", "wall_s"), out_path)
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
