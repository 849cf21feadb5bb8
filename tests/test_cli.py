import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from thermotimes import cli, ensemble, model, qome
from thermotimes.cli import (
    RunConfig,
    analyze_records,
    cmd_analyze,
    cmd_sweep,
    cmd_table1,
    main,
    modulated_gammas,
    sweep_records,
)
from thermotimes.ensemble import EnsembleSpec, ensemble_times_numeric
from thermotimes.errors import ConfigError
from thermotimes.model import (
    QubitSystem,
    _kronecker_sum,
    diagonalize,
    dipole_data,
    free_spin_system,
)
from thermotimes.qome import (
    LiouvillianSpectrum,
    _mixture_spectrum,
    build_liouvillian,
    ensemble_spectrum,
    qome_spectrum,
    uniform_spin_spectrum,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_modulated_gammas_law():
    G = modulated_gammas(3)
    np.testing.assert_allclose(
        G, 1.0 + np.sin(np.array([0.0, 1.0, 2.0]) * np.pi / np.sqrt(2.0)) / 2.0
    )


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"family": "nope", "N": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"family": "free_spins_uniform", "N": 1})  # no Gamma
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {"family": "free_spins_modulated", "N": 0}
        )
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {"family": "free_spins_modulated", "N": 1, "beta": -1.0}
        )
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {"family": "free_spins_modulated", "N": 1, "methods": ["magic"]}
        )


@pytest.mark.parametrize("extra, key", [
    ({"N_lsit": [1, 2, 3]}, "N_lsit"),
    ({"seed": 7}, "seed"),
    ({"caps": {"qome": 4096}}, "caps"),
    ({"tolerances": {"tol_imag": 1e-8}}, "tolerances.tol_imag"),
])
def test_unknown_config_keys_are_errors(tmp_path, extra, key):
    raw = {"family": "free_spins_uniform", "Gamma": 1.0, **extra}
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(raw)
    cfg = write_config(tmp_path, "c.json", raw)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("law, match", [
    ({"amplitde": 0.0}, "law.amplitde"),
    ([1, 2], "law must be a JSON object"),
    ({"amplitude": "0.5"}, "law.amplitude must be a finite number"),
    ({"base": float("nan")}, "law.base must be a finite number"),
    ({"frequency": True}, "law.frequency must be a finite number"),
])
def test_malformed_law_is_a_config_error(tmp_path, law, match):
    raw = {"family": "free_spins_modulated", "N": 3, "law": law}
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict(raw)
    cfg = write_config(tmp_path, "c.json", raw)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("method", ["lba_analytic", "lba_numeric", "qome"])
def test_law_reaching_a_nonpositive_field_is_a_config_error(tmp_path, capsys, method):
    # this exited 1 with "Gamma must be finite and > 0, got -0.8639...", naming no key
    raw = {"family": "free_spins_modulated", "N_list": [1, 3], "methods": [method],
           "law": {"base": 0.1, "amplitude": 1.0}}
    cfg = write_config(tmp_path, "c.json", raw)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert re.search(r"config error: law gives Gamma_3 = -0\.86\d*: every Gamma_i up to "
                     r"i = max\(N_list\) must be finite and > 0", capsys.readouterr().err)
    # the law is checked up to the largest N only: Gamma_1 = 0.1 and Gamma_2 = 0.896 are valid
    assert RunConfig.from_dict({**raw, "N_list": [2]}).law == raw["law"]
    with pytest.raises(ConfigError, match="law gives Gamma_1 = 0.0"):
        RunConfig.from_dict({**raw, "law": {"base": 0.0}})


def test_sweep_refuses_a_beta_its_grid_would_replace(tmp_path):
    # this ran with exit 0 and wrote the rows of the same grid without beta
    raw = {"family": "free_spins_uniform", "Gamma": 1.0, "N": 1, "beta": 5.0,
           "beta_grid": [0.5, 2.0], "methods": ["lba_analytic"]}
    with pytest.raises(ConfigError, match="beta or beta_grid"):
        RunConfig.from_dict(raw)
    cfg = write_config(tmp_path, "c.json", raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2
    # Gamma stays beside Gamma_grid: uniform spins require it
    gamma_grid = {"family": "free_spins_uniform", "Gamma": 1.0, "N": 1, "beta": 5.0,
                  "Gamma_grid": [0.5, 2.0], "methods": ["lba_analytic"]}
    assert len(sweep_records(RunConfig.from_dict(gamma_grid))) == 2


@pytest.mark.parametrize("method", ["lba_analytic", "lba_numeric", "qome"])
@pytest.mark.parametrize("raw", [
    {"family": "free_spins_uniform", "Gamma": 1e103, "N_list": [1]},
    {"family": "free_spins_uniform", "Gamma": 1e300, "N_list": [2]},
    {"family": "free_spins_uniform", "Gamma": 1e3, "gamma": 1e300, "N_list": [1]},
    {"family": "free_spins_uniform", "Gamma": 1e-120, "N_list": [1]},
    {"family": "custom_hamiltonian", "N_list": [1],
     "hamiltonian": {"dim": 2, "re": [[1e300, 0], [0, -1e300]]}},
    # a finite rate scale whose formed rates overflow; a subnormal one
    {"family": "free_spins_uniform", "Gamma": 1e3, "gamma": 1.5e298, "N_list": [1]},
    {"family": "free_spins_uniform", "Gamma": 1.0, "gamma": 1e-315, "N_list": [1]},
])
def test_rates_beyond_the_float_range_exit_1(tmp_path, capsys, raw, method):
    # these exited 0 with NaN, zero or infinite times, or 1 with a raw numpy traceback
    cfg = write_config(tmp_path, "c.json", {**raw, "methods": [method]})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
    assert re.match(r"error: (the rates formed from )?the rate scale .*gamma .* must be finite"
                    r"( and >= 2\.225e-308)?, got ", capsys.readouterr().err)


def test_lanczos_non_convergence_exits_1(tmp_path, monkeypatch, capsys):
    lanczos = ensemble._lanczos_smallest
    monkeypatch.setattr(ensemble, "_lanczos_smallest",
                        lambda apply, v, scale, max_steps: lanczos(apply, v, scale, 12))
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_modulated", "N": 7, "methods": ["lba_numeric"],
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
    assert "Lanczos on dimension 128 took 12 steps" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, key", [
    ("analyze", {"gamma": "nan"}, "gamma"),
    ("analyze", {"Gamma": "nan"}, "Gamma"),
    ("analyze", {"Gamma": "inf"}, "Gamma"),
    ("analyze", {"Gamma": float("inf")}, "Gamma"),
    ("analyze", {"tolerances": {"energy_tol": -1}}, "tolerances.energy_tol"),
    ("analyze", {"tolerances": {"tol_zero": "x"}}, "tolerances.tol_zero"),
    ("analyze", {"N_list": ["a"]}, "N_list[0]"),
    ("analyze", {"N_list": [2.7]}, "N_list[0]"),
    ("analyze", {"beta_grid": ["x"]}, "beta_grid[0]"),
    ("analyze", {"include_timings": "false"}, "include_timings"),
    ("sweep", {"beta_grid": [1.0, "inf"]}, "beta_grid[1]"),
])
def test_malformed_numbers_are_config_errors(tmp_path, command, extra, key):
    raw = {"family": "free_spins_uniform", "Gamma": 1.0, "N": 2, "methods": ["qome"], **extra}
    with pytest.raises(ConfigError, match=re.escape(key)):
        RunConfig.from_dict(raw)
    cfg = write_config(tmp_path, "c.json", raw)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("raw, builder", [
    # 72 sector levels: the route's own rule (at most 64) refuses N = 15
    ({"family": "free_spins_uniform", "Gamma": 1.0, "N": 15}, "_spin_pairs"),
    ({"family": "custom_hamiltonian", "N": 4,
      "hamiltonian": {"dim": 4, "re": np.diag([0.0, 1.0, 2.5, 4.2]).tolist()}},
     "_kronecker_sum"),
])
def test_qome_size_is_checked_before_anything_is_built(tmp_path, monkeypatch, raw, builder):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{builder} was reached before the size check")

    monkeypatch.setattr(qome, builder, refuse)
    monkeypatch.setattr(cli, "diagonalize", refuse)  # no custom member is built either
    cfg = write_config(tmp_path, "c.json", {**raw, "methods": ["qome"]})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 3


@pytest.mark.parametrize("command, raw, factors", [
    # the first N would run, but every member up to N = 20000 is built at its first call
    ("analyze", {"family": "free_spins_modulated", "N_list": [5, 20000]}, "2^20000"),
    ("analyze", {"family": "free_spins_uniform", "Gamma": 1.0, "N": 20000}, "2^20000"),
    ("analyze", {"family": "custom_hamiltonian", "N": 7,
                 "hamiltonian": {"dim": 4, "re": np.diag([0.0, 1.0, 2.5, 4.2]).tolist()}}, "4^7"),
    ("sweep", {"family": "free_spins_uniform", "Gamma": 1.0, "N": 20000,
               "beta_grid": [0.5, 2.0]}, "2^20000"),
])
def test_numeric_size_is_checked_before_any_member_is_built(tmp_path, monkeypatch, capsys,
                                                            command, raw, factors):
    def refuse(*args, **kwargs):
        raise AssertionError("a member was built before the size check")

    for target, name in ((cli, "free_spin_system"), (ensemble, "thermal_rates")):
        monkeypatch.setattr(target, name, refuse)
    cfg = write_config(tmp_path, "c.json", {**raw, "methods": ["lba_numeric"]})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 3
    assert f"size cap exceeded: product dimension {factors} exceeds cap 8192" \
        in capsys.readouterr().err


@pytest.mark.parametrize("hamiltonian", [
    {"dim": 2, "re": "x"},
    {"dim": 3, "re": np.eye(3).tolist()},
    {"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]},
    [[0.0, 1.0], [1.0, 0.0]],
    # the config number rule holds inside the matrix too: these ran as the free spin
    {"dim": "2", "re": [["0", "-1"], ["-1", "0"]]},
    {"dim": 2.7, "re": [[0, -1], [-1, 0]]},
    {"dim": True, "re": [[0]]},
    {"dim": 2, "re": [[0, -1], [-1, 0]], "im": [[False, 0], [0, 0]]},
])
def test_malformed_hamiltonian_is_a_config_error(tmp_path, hamiltonian):
    raw = {"family": "custom_hamiltonian", "N": 1, "hamiltonian": hamiltonian}
    with pytest.raises(ConfigError, match="hamiltonian"):
        RunConfig.from_dict(raw)
    cfg = write_config(tmp_path, "c.json", raw)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


def test_uniform_qome_never_builds_the_composite(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the composite register was built")

    for target, name in ((qome, "_composite"), (qome, "build_liouvillian"), (cli, "diagonalize"),
                         (model, "total_spin_operator")):
        monkeypatch.setattr(target, name, refuse)
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N_list": [1, 2, 3, 4, 5, 6],
        "methods": ["qome"], "output": "json",
    })
    out = str(tmp_path / "r.json")
    assert main(["analyze", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        records = json.load(fh)["records"]
    assert [r["qome_zero_multiplicity"] for r in records] == [1, 2, 5, 14, 42, 132]
    assert all(r["tau_P"] == pytest.approx(0.0476, abs=1e-4) for r in records)


def test_uniform_qome_takes_its_own_size_rule(tmp_path):
    # the sector route holds N <= 14 (64 levels); the 2^N register cap of the
    # composite stopped it at N = 6
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N_list": [7, 14],
        "methods": ["qome"], "output": "json",
    })
    out = str(tmp_path / "r.json")
    assert main(["analyze", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        records = json.load(fh)["records"]
    for record, N in zip(records, (7, 14)):
        want = uniform_spin_spectrum(N, 1.0, 1.0)
        assert (record["tau_P"], record["tau_Q"], record["qome_zero_multiplicity"]) == (
            want.tau_P, want.tau_Q, want.zero_multiplicity)
    assert [r["qome_zero_multiplicity"] for r in records] == [429, 2674440]


def test_modulated_qome_never_builds_the_composite(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the composite register was built")

    # each spin takes its total-spin sectors: no register and no generator is built
    for target, name in ((qome, "_composite"), (qome, "build_liouvillian"), (cli, "diagonalize"),
                         (cli, "dipole_data")):
        monkeypatch.setattr(target, name, refuse)
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_modulated", "N_list": list(range(1, 14)), "beta": 1.0,
        "methods": ["lba_analytic", "qome"], "output": "json",
    })
    out = str(tmp_path / "r.json")
    assert main(["analyze", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        records = json.load(fh)["records"]
    lba = {r["N"]: r for r in records if r["method"] == "lba_analytic"}
    for r in (r for r in records if r["method"] == "qome"):
        assert r["qome_zero_multiplicity"] == 1
        assert r["tau_P"] == pytest.approx(lba[r["N"]]["tau_P"], rel=1e-12)
        assert r["tau_Q"] == pytest.approx(2.0 * r["tau_P"], rel=1e-12)
    assert main(["table1", "--max-qome-n", "13", "--out", str(tmp_path / "t.csv")]) == 0
    rows = {int(r["N"]): r for r in read_csv(str(tmp_path / "t.csv"))}
    assert all(rows[N]["qome_tauP"] == rows[N]["lba_num_tauP"] for N in range(1, 14))
    assert all(rows[N]["qome_tauP"] == "" for N in (100, 1000, 10000, 100000))


def test_table1_checks_the_composite_size_before_anything_is_built(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("something was built")

    for target, name in ((cli, "free_spin_system"), (cli, "ensemble_times_numeric"),
                         (qome, "_composite"), (qome, "_kronecker_sum")):
        monkeypatch.setattr(target, name, refuse)
    # an explicit energy_tol, even an exact one, takes the composite route, capped at 6
    out = str(tmp_path / "t.csv")
    for tol in ("1.0", "0"):
        assert main(["table1", "--max-qome-n", "7", "--energy-tol", tol, "--out", out]) == 3
    assert main(["table1", "--max-qome-n", "20", "--energy-tol", "1.0", "--out", out]) == 3


@pytest.mark.parametrize("energy_tol", [0.3, 0.75])
def test_modulated_qome_at_an_explicit_tolerance_is_the_composites(tmp_path, energy_tol):
    # G = 1, 1.3978, 0.518: the spin frequencies stay 0.7956 apart, but from 0.24
    # the composite levels +-0.120 merge, and at 0.75 dipole-free composite gaps
    # chain 1.036 -> 2.0 and so join two spins' classes; the member route sees neither.
    # The register's referee is test_ensemble_spectrum's eigh-built one.
    spins = [free_spin_system(G) for G in modulated_gammas(3)]
    ref = ensemble_spectrum(EnsembleSpec(members=spins, beta=1.0), energy_tol)
    assert isinstance(ref, LiouvillianSpectrum)
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_modulated", "N": 3, "beta": 1.0, "tolerances": {"energy_tol": energy_tol},
        "methods": ["qome"], "output": "json",
    })
    out = str(tmp_path / "r.json")
    assert main(["analyze", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        (record,) = json.load(fh)["records"]
    assert (record["tau_P"], record["tau_Q"]) == (ref.tau_P, ref.tau_Q)
    assert record["qome_zero_multiplicity"] == ref.zero_multiplicity
    members = _mixture_spectrum(spins, 1.0)
    assert (ref.tau_P, ref.tau_Q) != (members.tau_P, members.tau_Q)


def test_modulated_members_at_n_are_the_first_n_at_13():
    # the premise that lets one table share its members across the sizes
    for N in range(1, 14):
        assert modulated_gammas(13)[:N].tobytes() == modulated_gammas(N).tobytes()


def fresh_spins(N):
    return [free_spin_system(G) for G in modulated_gammas(N)]


@pytest.mark.parametrize("beta", [1e-3, 1.0, 100.0, 1e4])
@pytest.mark.parametrize("energy_tol, max_qome_n", [(None, 5), (1.0, 4)])
def test_table1_rows_equal_the_per_n_public_route(beta, energy_tol, max_qome_n):
    # each row's shared members give what a fresh N-ensemble gives, bit for bit;
    # at an explicit tolerance the QOME columns come from one composite register
    rows = {row["N"]: row for row in cli.table1_rows(max_qome_n, energy_tol, beta)}
    for N in range(1, 14):
        times = ensemble_times_numeric(EnsembleSpec(members=fresh_spins(N), beta=beta))
        assert (rows[N]["lba_num_tauP"], rows[N]["lba_num_tauQ"]) == (times.tau_P, times.tau_Q)
    for N in range(1, max_qome_n + 1):
        if energy_tol is None:
            ref = _mixture_spectrum(fresh_spins(N), beta)
        else:
            ref = ensemble_spectrum(EnsembleSpec(members=fresh_spins(N), beta=beta), energy_tol)
        assert (rows[N]["qome_tauP"], rows[N]["qome_tauQ"]) == (ref.tau_P, ref.tau_Q)


def test_readme_config_examples_are_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(examples) >= 2
    for example in examples:
        RunConfig.from_dict(json.loads(example))


def test_law_keys_are_read():
    law = {"base": 2.0, "amplitude": 0, "frequency": 1.0}
    config = RunConfig.from_dict({"family": "free_spins_modulated", "N": 3, "law": law})
    uniform = RunConfig.from_dict({"family": "free_spins_uniform", "N": 3, "Gamma": 2.0})
    assert analyze_records(config) == analyze_records(uniform)


@pytest.mark.parametrize("raw, key", [
    ({"family": "free_spins_modulated", "Gamma": 5}, "Gamma"),
    ({"family": "free_spins_modulated", "Gamma_grid": [0.5, 2.0]}, "Gamma_grid"),
    ({"family": "free_spins_uniform", "Gamma": 1.0, "law": {"base": 3}}, "law"),
    ({"family": "free_spins_uniform", "Gamma": 1.0,
      "hamiltonian": {"dim": 2, "re": [[0.0, -1.0], [-1.0, 0.0]]}}, "hamiltonian"),
    ({"family": "custom_hamiltonian", "Gamma": 1.0,
      "hamiltonian": {"dim": 2, "re": [[0.0, -1.0], [-1.0, 0.0]]}}, "Gamma"),
    ({"family": "free_spins_uniform", "Gamma": 1.0, "N": 2, "N_list": [1, 2]}, "N_list"),
])
def test_keys_the_run_would_ignore_are_config_errors(tmp_path, raw, key):
    # each of these ran with exit 0 and printed the numbers of the run without the key
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(raw)
    for command, grid in (("analyze", {}), ("sweep", {"beta_grid": [1.0]})):
        cfg = write_config(tmp_path, "c.json", {**raw, **grid})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("command, extra, key", [
    ("analyze", {"beta_grid": [0.5, 2.0]}, "beta_grid"),
    ("analyze", {"Gamma_grid": [0.5, 2.0]}, "Gamma_grid"),
    ("sweep", {"beta_grid": [1.0], "N_list": [1, 2, 3]}, "N_list"),
    ("sweep", {"beta_grid": [1.0], "output": "json"}, "output"),
])
def test_keys_the_subcommand_does_not_read_are_config_errors(tmp_path, command, extra, key):
    # analyze ran at beta 1 past a beta_grid; sweep ran the first size of an
    # N_list only, and wrote CSV when asked for JSON
    raw = {"family": "free_spins_uniform", "Gamma": 1.0, "methods": ["lba_analytic"], **extra}
    records = {"analyze": analyze_records, "sweep": sweep_records}[command]
    with pytest.raises(ConfigError, match=key):
        records(RunConfig.from_dict(raw))
    cfg = write_config(tmp_path, "c.json", raw)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


def test_known_tolerance_keys_are_read():
    config = RunConfig.from_dict({
        "family": "free_spins_uniform", "Gamma": 1.0,
        "tolerances": {"energy_tol": 1e-6, "tol_zero": 1e-11},
    })
    assert (config.energy_tol, config.tol_zero) == (1e-6, 1e-11)


def test_analyze_uniform_single_row(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N": 1, "beta": 1.0,
        "methods": ["lba_analytic"],
    })
    out = cmd_analyze(cfg, str(tmp_path / "r.csv"))
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["tau_P"]) == pytest.approx(0.04760, abs=1e-5)
    assert float(rows[0]["tau_Q"]) == pytest.approx(0.09520, abs=1e-5)
    assert rows[0]["wall_s"] == ""  # timings off by default


def test_analyze_modulated_all_methods(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_modulated", "N_list": [1, 2, 3], "beta": 1.0,
        "methods": ["lba_analytic", "lba_numeric", "qome"],
    })
    out = cmd_analyze(cfg, str(tmp_path / "r.csv"))
    rows = read_csv(out)
    assert len(rows) == 9
    expected = {
        (1, "lba_analytic"): (0.04760, 0.09520),
        (2, "lba_analytic"): (0.04760, 0.07493),
        (3, "lba_analytic"): (0.21406, 0.13016),
        (1, "lba_numeric"): (0.04760, 0.09520),
        (2, "lba_numeric"): (0.04760, 0.07493),
        (3, "lba_numeric"): (0.21406, 0.13016),
        (1, "qome"): (0.04760, 0.09520),
        (2, "qome"): (0.04760, 0.09520),
        (3, "qome"): (0.21406, 0.42813),
    }
    for row in rows:
        key = (int(row["N"]), row["method"])
        tp, tq = expected[key]
        assert float(row["tau_P"]) == pytest.approx(tp, abs=2e-5)
        assert float(row["tau_Q"]) == pytest.approx(tq, abs=2e-5)
        if row["method"] == "qome":
            assert row["qome_zero_multiplicity"] == "1"
        else:
            assert row["qome_zero_multiplicity"] == ""


def test_analyze_runs_are_byte_identical(tmp_path):
    # N = 11 exercises the Lanczos path, which uses a fixed start vector
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_modulated", "N_list": [1, 3, 11], "beta": 1.0,
        "methods": ["lba_analytic", "lba_numeric"],
    })
    out1 = cmd_analyze(cfg, str(tmp_path / "a.csv"))
    out2 = cmd_analyze(cfg, str(tmp_path / "b.csv"))
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


@pytest.mark.parametrize("records, raw", [
    (analyze_records, {"family": "free_spins_uniform", "Gamma": 1.0, "beta": 1.0,
                       "N_list": [1, 2, 3, 4, 5],
                       "methods": ["lba_analytic", "lba_numeric", "qome"]}),
    (sweep_records, {"family": "free_spins_uniform", "Gamma": 1.0, "N": 5,
                     "beta_grid": [0.1, 1.0, 10.0], "methods": ["qome"]}),
])
def test_warm_runs_equal_cold_ones(records, raw):
    # the total-spin pairs are built at the first run of an N in a process; the
    # runs that find them built print the same
    config = RunConfig.from_dict(raw)
    qome._spin_pairs.cache_clear()
    cold = repr(records(config))
    assert qome._spin_pairs.cache_info().currsize  # the second run reads the cache
    assert repr(records(config)) == cold


def test_analyze_json_validates_against_schema(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N_list": [1, 2],
        "beta": 1.0, "methods": ["lba_analytic", "qome"], "output": "json",
    })
    out = cmd_analyze(cfg, str(tmp_path / "r.json"))
    doc = json.loads(Path(out).read_text())
    schema = json.loads(
        resources.files("thermotimes.schemas")
        .joinpath("analyze_report.schema.json")
        .read_text()
    )
    jsonschema.validate(doc, schema)
    assert len(doc["records"]) == 4
    qome_rows = [r for r in doc["records"] if r["method"] == "qome"]
    assert qome_rows[0]["qome_zero_multiplicity"] == 1
    # JSON carries full precision
    lba = [r for r in doc["records"] if r["method"] == "lba_analytic"][0]
    assert abs(lba["tau_P"] - math.tanh(1.0) / 16.0) < 1e-15


def test_analyze_custom_hamiltonian(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "family": "custom_hamiltonian",
        "hamiltonian": {"dim": 2, "re": [[0.0, -1.0], [-1.0, 0.0]]},
        "N": 1, "beta": 1.0,
        "methods": ["lba_analytic", "qome"],
    })
    rows = read_csv(cmd_analyze(cfg, str(tmp_path / "r.csv")))
    # H = -sigma^x written in the computational basis: the free spin again
    for row in rows:
        assert float(row["tau_P"]) == pytest.approx(0.04760, abs=1e-5)
        assert float(row["tau_Q"]) == pytest.approx(0.09520, abs=1e-5)


# sigma_1 . sigma_2 in the computational basis, and sigma^z_1 + sigma^z_2
HEISENBERG = np.array([[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=float)
FIELD = np.diag([2.0, 0.0, 0.0, -2.0])


@pytest.mark.parametrize("H", [
    np.diag([-2.0, 0.0, 0.0, 2.0]),  # two degenerate middle levels
    0.25 * HEISENBERG + FIELD,  # a Heisenberg pair in a field: its singlet is dark
], ids=["degenerate", "dark_singlet"])
def test_qome_alone_takes_members_the_detailed_balance_route_refuses(tmp_path, H):
    # thermal_rates refuses the degenerate spectrum and thermalization_times the
    # dark singlet's second steady state; the QOME reports both, so a qome-only
    # run never analyses its members and gives the eigh-built register's times
    cfg = write_config(tmp_path, "c.json", {
        "family": "custom_hamiltonian", "hamiltonian": {"dim": 4, "re": H.tolist()},
        "N_list": [1, 2], "beta": 1.0, "methods": ["qome"], "output": "json",
    })
    out = str(tmp_path / "r.json")
    assert main(["analyze", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        records = json.load(fh)["records"]
    assert main(["analyze", "--config", write_config(tmp_path, "lba.json", {
        "family": "custom_hamiltonian", "hamiltonian": {"dim": 4, "re": H.tolist()},
        "N": 1, "methods": ["lba_analytic"]}), "--out", str(tmp_path / "lba.csv")]) == 1
    for N, record in zip((1, 2), records):
        system = QubitSystem(K=2 * N, H=_kronecker_sum([H] * N))
        spec = diagonalize(system)
        ref = qome_spectrum(build_liouvillian(spec, dipole_data(system, spec), 1.0))
        assert record["qome_zero_multiplicity"] == ref.zero_multiplicity > 1
        for new, old in ((record["tau_P"], ref.tau_P), (float(record["tau_Q"]), ref.tau_Q)):
            assert math.isinf(new) == math.isinf(old)
            assert abs(1.0 / new - 1.0 / old) <= 1e-13 * ref.scale


def test_table1_columns_and_values(tmp_path):
    out = cmd_table1(str(tmp_path / "t.csv"), max_qome_n=2)
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = {int(r[0]): dict(zip(header, r)) for r in reader}
    assert header == [
        "N", "lba_tauP", "lba_tauQ", "lba_num_tauP", "lba_num_tauQ",
        "lba_cpu_s", "qome_tauP", "qome_tauQ", "qome_cpu_s", "warnings",
    ]
    assert set(rows) == set(range(1, 14)) | {100, 1000, 10000, 100000}
    assert float(rows[6]["lba_tauP"]) == pytest.approx(0.22800, abs=1e-5)
    assert float(rows[6]["lba_tauQ"]) == pytest.approx(0.06989, abs=1e-5)
    assert float(rows[6]["lba_num_tauP"]) == pytest.approx(0.22800, abs=1e-5)
    assert rows[6]["qome_tauP"] == ""  # beyond max_qome_n
    assert float(rows[2]["qome_tauP"]) == pytest.approx(0.04760, abs=1e-5)
    assert float(rows[2]["qome_tauQ"]) == pytest.approx(0.09520, abs=1e-5)
    assert float(rows[100]["lba_tauP"]) == pytest.approx(0.23104, abs=1e-5)
    assert float(rows[100]["lba_tauQ"]) == pytest.approx(0.004433, abs=1e-6)
    assert rows[100]["lba_num_tauP"] == "" and rows[100]["qome_tauP"] == ""
    assert float(rows[100000]["lba_tauQ"]) == pytest.approx(4.458e-6, abs=1e-9)
    # 5 significant figures in every populated numeric cell
    assert rows[1]["lba_tauP"] == "0.047600"[:len(rows[1]["lba_tauP"])]


def test_table1_widened_tolerance_flags_warnings(tmp_path):
    strict = cmd_table1(str(tmp_path / "strict.csv"), max_qome_n=2)
    wide = cmd_table1(str(tmp_path / "wide.csv"), max_qome_n=2, energy_tol=1.0)
    rows_strict = {r["N"]: r for r in read_csv(strict)}
    rows_wide = {r["N"]: r for r in read_csv(wide)}
    assert rows_strict["2"]["warnings"] == ""
    assert "qome_multiple_steady_states" in rows_wide["2"]["warnings"]
    assert rows_wide["2"]["qome_tauP"] != rows_strict["2"]["qome_tauP"]


def test_sweep_beta_grid(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N": 1,
        "beta_grid": [2.0, 0.5, 1.0], "methods": ["lba_analytic"],
    })
    rows = read_csv(cmd_sweep(cfg, str(tmp_path / "s.csv")))
    assert [float(r["beta"]) for r in rows] == [0.5, 1.0, 2.0]  # sorted by key
    for row in rows:
        beta = float(row["beta"])
        assert float(row["tau_P"]) == pytest.approx(math.tanh(beta) / 16.0, rel=1e-4)


def test_sweep_gamma_grid_ratio(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N": 1, "beta": 1.0,
        "Gamma_grid": [0.5, 1.0], "methods": ["lba_analytic"],
    })
    rows = read_csv(cmd_sweep(cfg, str(tmp_path / "s.csv")))
    ratio = float(rows[0]["tau_P"]) / float(rows[1]["tau_P"])
    assert ratio == pytest.approx((math.tanh(0.5) / 1.0) / (math.tanh(1.0) / 8.0),
                                  rel=1e-4)


def test_sweep_empty_grid_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N": 1,
        "beta_grid": [], "methods": ["lba_analytic"],
    })
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, str(tmp_path / "s.csv"))


def test_main_exit_codes(tmp_path):
    bad = write_config(tmp_path, "bad.json", {"family": "nope"})
    assert main(["analyze", "--config", bad]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
    capped = write_config(tmp_path, "capped.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N": 15, "beta": 1.0,
        "methods": ["qome"],
    })
    assert main(["analyze", "--config", capped,
                 "--out", str(tmp_path / "x.csv")]) == 3
    good = write_config(tmp_path, "good.json", {
        "family": "free_spins_uniform", "Gamma": 1.0, "N": 1, "beta": 1.0,
        "methods": ["lba_analytic"],
    })
    assert main(["analyze", "--config", good,
                 "--out", str(tmp_path / "ok.csv")]) == 0


@pytest.mark.parametrize("energy_tol", ["-1", "nan"])
def test_table1_energy_tol_follows_the_number_rule(tmp_path, energy_tol):
    out = str(tmp_path / "t.csv")
    assert main(["table1", "--max-qome-n", "2", "--energy-tol", energy_tol, "--out", out]) == 2


def test_table1_max_qome_n_follows_the_number_rule(tmp_path, capsys):
    # -1 ran with exit 0 as a table without the QOME columns
    out = str(tmp_path / "t.csv")
    assert main(["table1", "--max-qome-n", "-1", "--out", out]) == 2
    assert "--max-qome-n" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["table1", "--max-qome-n", "0", "--out", out]) == 0
    assert all(row["qome_tauP"] == "" for row in read_csv(out))


def counted(calls, key, fn):
    """``fn``, adding one to ``calls[key]`` on each call."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_member_work(monkeypatch):
    """Count member builds (``free_spin_system`` as the CLI calls it) and member
    analyses (``thermal_rates`` as ``ensemble`` calls it)."""
    calls = {"built": 0, "analysed": 0}
    monkeypatch.setattr(cli, "free_spin_system", counted(calls, "built", cli.free_spin_system))
    monkeypatch.setattr(ensemble, "thermal_rates",
                        counted(calls, "analysed", ensemble.thermal_rates))
    return calls


def test_dense_lba_numeric_record_builds_s_alone(monkeypatch):
    # below DENSE_EIG_LIMIT a record builds the dense S once and reads its second
    # eigenvalue: no composed rate matrix A, product energies or Gibbs state
    config = RunConfig.from_dict({"family": "free_spins_modulated", "N_list": [6], "beta": 1.0,
                                  "methods": ["lba_numeric"]})
    members = cli._run_members(config, 6)
    members(6)  # the shared build, which the record does not repeat
    calls = dict.fromkeys(("_kronecker_sum", "gibbs_state"), 0)
    for name in calls:
        monkeypatch.setattr(ensemble, name, counted(calls, name, getattr(ensemble, name)))
    record = cli._run_method(config, 6, "lba_numeric", members)
    assert calls == {"_kronecker_sum": 1, "gibbs_state": 0}
    assert record["tau_P"] == ensemble_times_numeric(EnsembleSpec(
        tuple(free_spin_system(G) for G in modulated_gammas(6)), beta=1.0)).tau_P


def test_cli_imports_no_private_name_from_ensemble():
    # the CLI reaches the detailed-balance route through its public entries alone, so a
    # tracer that wraps public names sees every call of that route
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.level == 1 and node.module == "ensemble" for alias in node.names]
    assert {"ensemble_times", "ensemble_times_numeric"} <= set(names)
    assert [name for name in names if name.startswith("_")] == []


def test_table1_builds_and_analyses_each_member_once(monkeypatch):
    # the modulated members at N are the first N at 13, so the rows share one
    # build and one analysis
    calls = count_member_work(monkeypatch)
    cli.table1_rows(max_qome_n=5)
    assert calls == {"built": 13, "analysed": 13}


def test_analyze_builds_each_member_once(monkeypatch):
    calls = count_member_work(monkeypatch)
    analyze_records(RunConfig.from_dict({
        "family": "free_spins_modulated", "N_list": [1, 2, 3, 4, 5, 6],
        "methods": ["lba_numeric", "qome"],
    }))
    assert calls == {"built": 6, "analysed": 6}
    calls.update(built=0, analysed=0)
    analyze_records(RunConfig.from_dict({
        "family": "free_spins_uniform", "Gamma": 1.0, "N_list": [1, 2, 3, 4, 5],
        "methods": ["lba_analytic", "lba_numeric", "qome"],
    }))
    assert calls == {"built": 1, "analysed": 1}


def test_members_are_built_only_when_a_method_reads_them(monkeypatch):
    calls = count_member_work(monkeypatch)
    analyze_records(RunConfig.from_dict({
        "family": "free_spins_modulated", "N_list": [1, 100000], "methods": ["lba_analytic"],
    }))
    assert calls == {"built": 0, "analysed": 0}
    sweep_records(RunConfig.from_dict({
        "family": "free_spins_uniform", "Gamma": 1.0, "N": 3, "Gamma_grid": [0.5, 2.0],
        "methods": ["lba_numeric"],
    }))
    # one build per grid point, since Gamma changes there
    assert calls == {"built": 2, "analysed": 2}


IMPORT_PROBE = """
import json, sys
module = sys.argv[1]
loaded = [module in sys.modules]
from thermotimes.cli import RunConfig, analyze_records
for config in json.loads(sys.argv[2]):
    analyze_records(RunConfig.from_dict(config))
    loaded.append(module in sys.modules)
print(json.dumps(loaded))
"""


def run_fresh(probe, *args):
    """The JSON that ``probe`` prints, run in a fresh interpreter on this checkout
    (this test process has imported scipy itself)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", probe, *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def loaded_after(module, configs):
    """Whether ``module`` is in sys.modules after importing thermotimes and after each
    analyze run."""
    return run_fresh(IMPORT_PROBE, module, json.dumps(configs))


UNIFORM_ALL_METHODS = {"family": "free_spins_uniform", "Gamma": 1.0, "beta": 1.0,
                       "N_list": [1, 2, 3, 4, 5],
                       "methods": ["lba_analytic", "lba_numeric", "qome"]}


def test_scipy_loads_only_for_large_products():
    # no product loads it: 2^7 = 128 > DENSE_EIG_LIMIT takes the numpy-only Lanczos branch
    modulated = {"family": "free_spins_modulated", "beta": 1.0, "methods": ["lba_numeric"]}
    assert loaded_after("scipy", [UNIFORM_ALL_METHODS, dict(modulated, N=6)]) == [False] * 3
    assert loaded_after("scipy", [dict(modulated, N=7)]) == [False, False]


def test_qome_routes_never_load_numpy_ma():
    # a flagless np.unique imports numpy.ma (about 8 ms in a fresh process); neither the
    # uniform sector route nor the modulated member route may reach one
    member_route = {"family": "free_spins_modulated", "beta": 1.0, "N_list": [1, 2, 3, 4, 5],
                    "methods": ["qome"]}
    assert loaded_after("numpy.ma", [UNIFORM_ALL_METHODS, member_route]) == [False] * 3


TABLE1_PROBE = """
import json, sys
from thermotimes import cli
loaded = []
run_method = cli._run_method
def record(*args):
    loaded.append({m: m in sys.modules for m in ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg")})
    return run_method(*args)
cli._run_method = record
cli.table1_rows(max_qome_n=0)
print(json.dumps([loaded[0], loaded[-1]]))
"""


def test_table1_loads_the_sparse_solver_before_its_first_record():
    # every table reaches the Lanczos branch (N = 7..13), which runs on numpy alone: S is
    # applied block by block and the Ritz pairs come from a Python kernel, so no record,
    # first or last, finds scipy.sparse or scipy.linalg loaded
    first, last = run_fresh(TABLE1_PROBE)
    assert first == last == {
        "scipy.sparse": False, "scipy.linalg": False, "scipy.sparse.linalg": False,
    }


CPU_PROBE = """
import glob, json, os, time
from thermotimes import cli

def pool_ticks():
    # CPU clock ticks (utime + stime) of this process's threads other than the main one
    ticks = 0
    for stat in glob.glob("/proc/self/task/*/stat"):
        if stat.split("/")[-2] != str(os.getpid()):
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
    return ticks

config = cli.RunConfig.from_dict({"family": "free_spins_modulated", "N_list": [13],
                                  "beta": 1.0, "methods": ["lba_numeric"]})
members = cli._run_members(config, 13)
cli._run_method(config, 13, "lba_numeric", members)  # builds and analyses the members
# numpy's OpenBLAS worker spins for about 0.1 s from the import on, with no BLAS call: the
# window opens once the other threads' ticks have stood still for five 10 ms polls (2 s at most)
last, still, deadline = pool_ticks(), 0, time.perf_counter() + 2.0
while still < 5 and time.perf_counter() < deadline:
    time.sleep(0.01)
    ticks = pool_ticks()
    still, last = (still + 1 if ticks == last else 0), ticks
wall, cpu = time.perf_counter(), time.process_time()
for _ in range(10):
    cli._run_method(config, 13, "lba_numeric", members)
print(json.dumps([time.perf_counter() - wall, time.process_time() - cpu]))
"""


def test_lanczos_records_keep_blas_on_the_calling_thread():
    # every GEMM of the block product stays under OpenBLAS's single-thread bound;
    # blocks of 64 and 128 at N = 13 woke its worker, which spun: process CPU
    # (all threads) read 1.98 times the wall time
    wall, cpu = run_fresh(CPU_PROBE)
    assert cpu < 1.3 * wall


def test_main_table1_runs(tmp_path):
    out = str(tmp_path / "t.csv")
    assert main(["table1", "--max-qome-n", "1", "--out", out]) == 0
    rows = read_csv(out)
    assert len(rows) == 17
