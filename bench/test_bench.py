"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The smoke runs start the benchmark the way it is meant to be run, from the
root of the checkout, and take a few minutes in all.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import design
from checks import check_job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from thermotimes import cli  # noqa: E402


def _run_bench(workload, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _input_bytes(workload, seed):
    rounds = [design.round_inputs(workload, seed, w, r)
              for w in range(design.WORKERS) for r in (0, 1)]
    return json.dumps(rounds, sort_keys=True).encode()


@pytest.mark.parametrize("workload", design.WORKLOADS)
def test_same_seed_same_input_bytes(workload):
    assert _input_bytes(workload, 11) == _input_bytes(workload, 11)
    assert _input_bytes(workload, 11) != _input_bytes(workload, 12)


def test_every_round_covers_every_beta_decade():
    for worker in range(design.WORKERS):
        decades = sorted(math.floor(math.log10(item["beta"]))
                         for item in design.round_inputs("analyze_uniform", 5, worker, 2))
        assert decades == list(range(-3, 4))


def test_gamma_cells_are_a_latin_hypercube():
    inputs = design.block_inputs("analyze_uniform", 5, 0)
    cells = sorted(int((math.log10(item["Gamma"]) + 3.0) / 6.0 * design.BLOCK) for item in inputs)
    assert cells == list(range(design.BLOCK))


def _failures(checked):
    return {key: (reasons, known) for key, reasons, known in checked if reasons}


def test_checker_passes_a_clean_table_and_flags_a_nan_tau_q():
    item = {"beta": 1.0}
    rows = cli.table1_rows(max_qome_n=0, beta=item["beta"])
    assert _failures(check_job("table1_lba", item, rows)) == {}
    rows[3]["lba_tauQ"] = float("nan")
    failures = _failures(check_job("table1_lba", item, rows))
    assert failures == {"N=4": (["analytic_not_finite", "analytic_vs_numeric"], False)}


def test_checker_flags_wrong_multiplicity_and_hidden_nan():
    item = {"beta": 1.0, "Gamma": 1.0}
    records = cli.analyze_records(cli.RunConfig.from_dict(design.analyze_config(item)))
    assert _failures(check_job("analyze_uniform", item, records)) == {}
    by = {(r["N"], r["method"]): r for r in records}
    by[(3, "qome")]["qome_zero_multiplicity"] = 4
    by[(2, "lba_analytic")]["tau_Q"] = float("nan")
    failures = _failures(check_job("analyze_uniform", item, records))
    assert failures == {
        "N=3/qome": (["qome_multiplicity"], False),
        "N=2/lba_analytic": (["analytic_not_finite", "analytic_vs_numeric", "tau_not_max"], False),
    }


def test_known_defects_are_counted_as_failures():
    item = {"beta": 1e-3, "Gamma": 1e3}
    records = cli.analyze_records(cli.RunConfig.from_dict(design.analyze_config(item)))
    assert _failures(check_job("analyze_uniform", item, records)) == {
        "N=5/qome": (["qome_tauP"], True)}
    item = {"beta": 2000.0}
    rows = cli.table1_rows(max_qome_n=0, beta=item["beta"])
    failures = _failures(check_job("table1_lba", item, rows))
    assert len(failures) == 17 and all(known for _, known in failures.values())


def test_a_raising_job_fails_every_record():
    checked = check_job("table1_lba", {"beta": 1.0}, ValueError("boom"))
    assert len(checked) == 17 and all(reasons and not known for _, reasons, known in checked)


@pytest.mark.parametrize("workload", design.WORKLOADS)
def test_smoke_run(workload):
    proc = _run_bench(workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == design.WORKERS * 7 * (17 if workload != "analyze_uniform" else 15)
    assert set(result["metrics"]) == {
        "setup_s", "job_s", "job_s_tail", "cpu_s_per_job", "peak_rss_mb", "failed_frac"}
    assert result["metrics"]["failed_frac"]["value"] > 0  # the baseline's known defects


def test_traced_smoke_run_of_the_lba_table_never_calls_the_qome():
    proc = _run_bench("table1_lba", trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    assert metrics["qome.qome_spectrum.calls"] == 0
    assert metrics["qome.build_liouvillian.calls"] == 0
    assert metrics["ensemble.ensemble_times_numeric.calls"] == 13
    assert metrics["ensemble.ensemble_times_numeric.lanczos_calls"] == 3


def test_traced_smoke_run_of_the_modulated_table_is_led_by_the_qome_eigensolve():
    proc = _run_bench("table1_modulated", trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "qome.qome_spectrum.self_s"
    assert metrics["qome.qome_spectrum.calls"] == 5
    assert metrics["qome.qome_spectrum.dim_max"] == 1024


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("table1_lba", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
