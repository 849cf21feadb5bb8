"""The thermotimes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
Every end-to-end metric of every workload, with its unit:

    for w in table1_modulated analyze_uniform table1_lba; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0 | tail -1
    done

Workloads (inputs in design.py, checks in checks.py):

* ``table1_modulated``: ``cli.table1_rows(max_qome_n=5, beta)``, the paper's
  reference table with both routes for N = 1..13, the QOME up to N = 5 and the
  closed forms for N = 100..1e5. About 80% of it is the dense QOME
  eigensolve at N = 4 and 5, on a nondegenerate spectrum with many small
  Bohr-frequency blocks: the best case of a block-diagonal QOME solver.
* ``analyze_uniform``: ``cli.analyze_records`` on ``free_spins_uniform``,
  N = 1..5, all three methods, Gamma in [1e-3, 1e3]. The same QOME layer on a
  heavily degenerate spectrum with few, large blocks, where a block solver
  gains least; and the only workload on the threaded analyze_records path.
* ``table1_lba``: ``cli.table1_rows(max_qome_n=0, beta)``, detailed-balance
  columns only. It never calls the QOME, so a QOME change should not move
  it; its time goes to ensemble_times_numeric on both sides of
  DENSE_EIG_LIMIT (dense eigvalsh up to N = 10, Lanczos from N = 11).

Untraced (``--trace 0``): WORKERS fresh processes run one after the other.
Each pays set-up (interpreter, import, inputs, one warm-up job), then runs
whole rounds, one job per beta decade. ``--seconds`` sets the number of
rounds through a nominal round time per workload (design.py), so the job
count of a run does not depend on how fast the program is. End-to-end
metrics, pooled over the workers:

* ``setup_s``: median over the workers of the time from spawning the
  interpreter to its first timed job.
* ``job_s``: median wall time of one job.
* ``job_s_tail``: the highest percentile of job wall time with at least ten
  samples beyond it; the percentile and sample count are printed beside it.
* ``cpu_s_per_job``: median process CPU time (all threads) of one job.
* ``peak_rss_mb``: median over the workers of the peak resident set.
* ``failed_frac``: records that fail a check or raise, over records attempted.

Traced (``--trace 1``): one process runs each input twice, untraced and
traced, and reports the per-layer metrics of spans.py, ``proc.cpu_util``
and ``trace.overhead_frac``.

The last line of standard output is the result, as one JSON object. The line
before it holds the details (machine record, samples, tail percentile). The
full summary, and the spans of a traced run, are written under .bench_out/.
A run is correct when every record failure is one of the baseline's known
defects (checks.py) and, when traced, the self times add up to the job time.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import design

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
#: The whole run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "job_s_tail": "s", "cpu_s_per_job": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "qome.qome_spectrum.calls": "count",
    "qome.qome_spectrum.self_s": "s",
    "qome.qome_spectrum.dim_max": "count",
    "qome.qome_spectrum.ops": "flop",
    "qome.build_liouvillian.calls": "count",
    "qome.build_liouvillian.self_s": "s",
    "qome.build_liouvillian.bytes": "B",
    "ensemble.ensemble_times_numeric.calls": "count",
    "ensemble.ensemble_times_numeric.self_s": "s",
    "ensemble.ensemble_times_numeric.dim_sum": "count",
    "ensemble.ensemble_times_numeric.lanczos_calls": "count",
    "ensemble.free_spins_times.calls": "count",
    "ensemble.free_spins_times.self_s": "s",
    "ensemble.free_spins_times.errors": "count",
    "lba.thermal_rates.calls": "count",
    "lba.thermal_rates.self_s": "s",
    "lba.pauli_matrix.calls": "count",
    "lba.pauli_matrix.self_s": "s",
    "model.diagonalize.calls": "count",
    "model.diagonalize.self_s": "s",
    "model.dipole_data.calls": "count",
    "model.dipole_data.self_s": "s",
    "model.free_spin_chain.self_s": "s",
    "cli.table1_rows.self_s": "s",
    "cli.analyze_records.self_s": "s",
    "cli.analyze_records.wait_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class RunFailed(Exception):
    pass


def _tail(walls: list) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile with >= 10 beyond.

    With ten or fewer samples no percentile qualifies; the maximum is given.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_worker(args, worker: int, rounds: int, deadline: float, spans_out=None) -> tuple:
    """Start one worker; returns (set-up seconds, its JSON report)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--worker", str(worker), "--rounds", str(rounds), "--trace", str(args.trace),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    t0 = time.perf_counter()
    # unbuffered, so readline takes the ready line and nothing beyond it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(deadline - time.perf_counter(), 0.0)):
                raise RunFailed(f"worker {worker} did not finish set-up in time")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not ready.strip():
            raise RunFailed(f"worker {worker} exited during set-up")
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {worker} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker {worker} exited with code {proc.returncode}")
    lines = rest.decode().strip().splitlines()
    if not lines:
        raise RunFailed(f"worker {worker} printed no report")
    return setup, json.loads(lines[-1])


def untraced(args, deadline: float) -> tuple:
    """End-to-end metrics from WORKERS fresh processes: (metrics, details, reports)."""
    rounds = design.rounds_per_worker(args.workload, args.seconds, design.WORKERS)
    setups, reports = [], []
    for worker in range(design.WORKERS):
        setup, report = run_worker(args, worker, rounds, deadline)
        setups.append(setup)
        reports.append(report)
    jobs = [j for r in reports for j in r["jobs"]]
    walls = [j["wall_s"] for j in jobs]
    tail, pct, beyond = _tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(walls),
        "job_s_tail": tail,
        "cpu_s_per_job": statistics.median(j["cpu_s"] for j in jobs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "failed_frac": sum(j["failed"] for j in jobs) / sum(j["records"] for j in jobs),
    }
    details = {
        "setups_s": setups,
        "jobs": len(jobs),
        "job_s_tail_percentile": pct,
        "job_s_tail_beyond": beyond,
    }
    return metrics, details, reports


def traced(args, deadline: float) -> tuple:
    """Per-layer metrics from one traced process: (metrics, details, reports)."""
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    rounds = design.rounds_per_worker(args.workload, args.seconds, 1, repeats=2)
    _, report = run_worker(args, 0, rounds, deadline, spans_out)
    plain = [j for j in report["jobs"] if not j["traced"]]
    pairs = list(zip(plain, [j for j in report["jobs"] if j["traced"]]))
    metrics = dict(report["layers"])
    metrics["proc.cpu_util"] = sum(j["cpu_s"] for j in plain) / sum(j["wall_s"] for j in plain)
    metrics["trace.overhead_frac"] = statistics.median(t["wall_s"] / p["wall_s"] for p, t in pairs) - 1.0
    # Self times minus parallel overlap must add up to the traced job wall,
    # within the tracing overhead (floored at 0.1% for runs where it is noise).
    tolerance = max(abs(metrics["trace.overhead_frac"]), 1e-3)
    details = {
        "jobs": len(pairs),
        "self_times_add_up": abs(metrics["trace.unattributed_frac"]) <= tolerance,
        "spans": spans_out,
    }
    return {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}, details, [report]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thermotimes benchmark")
    parser.add_argument("--workload", required=True, choices=design.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "thermotimes", "__init__.py")):
        print("run from the root of a thermotimes checkout: src/thermotimes is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        metrics, details, reports = (traced if args.trace else untraced)(args, deadline)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    jobs = [j for r in reports for j in r["jobs"]]
    unexpected = [u for j in jobs for u in j["unexpected"]]
    details["unexpected_failures"] = unexpected[:20]
    details["machine"] = reports[0]["machine"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not unexpected and details.get("self_times_add_up", True),
        "attempted": sum(j["records"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"args": vars(args), "result": result, "details": details,
                   "reports": reports}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
