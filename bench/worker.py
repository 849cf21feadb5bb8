"""One fresh benchmark process: set up, run timed rounds, check every record.

Started by run.py from the root of a checkout. Runs a fixed number of
rounds, each one job per beta decade. Prints one line when set-up is done
(import, inputs, one warm-up job) and, at the end, one JSON line with
every job's wall and CPU time, the record counts and, when traced, the
per-layer metrics. One client in a closed loop: the next job starts when the
previous one has returned. The process starts no thread of its own; the only
threads are the program's (the analyze_records pool and the BLAS threads).
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

import design
from checks import check_job

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def run_job(cli, workload: str, item: dict):
    """One call of the workload's entry point on one input."""
    if workload == "table1_modulated":
        return cli.table1_rows(max_qome_n=5, beta=item["beta"])
    if workload == "table1_lba":
        return cli.table1_rows(max_qome_n=0, beta=item["beta"])
    return cli.analyze_records(cli.RunConfig.from_dict(design.analyze_config(item)))


def timed_job(cli, workload: str, item: dict, tracer=None, job_id=None) -> dict:
    root = None
    t0 = time.perf_counter()
    c0 = time.process_time()
    if tracer is not None:
        tracer.job = job_id
        root = tracer.open("job")
    try:
        result = run_job(cli, workload, item)
    except Exception as exc:  # a failed job is counted, and the loop goes on
        result = exc
    finally:
        if root is not None:
            tracer.close(root)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    checked = check_job(workload, item, result)
    return {
        "input": item,
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "records": len(checked),
        "failed": sum(1 for _, reasons, _ in checked if reasons),
        "unexpected": [(key, reasons) for key, reasons, known in checked
                       if reasons and not known],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=design.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from thermotimes import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"thermotimes was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    rounds = [design.round_inputs(args.workload, args.seed, args.worker, r)
              for r in range(args.rounds)]
    run_job(cli, args.workload, design.warmup_input(args.workload))
    print(json.dumps({"ready": True}), flush=True)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    jobs = []
    for rnd in range(args.rounds):
        for k, item in enumerate(rounds[rnd]):
            if tracer is None:
                jobs.append(timed_job(cli, args.workload, item))
                continue
            # paired runs, untraced and traced, alternating which goes first
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                patches = spans.install(tracer) if traced else []
                try:
                    jobs.append(timed_job(cli, args.workload, item,
                                          tracer if traced else None, len(jobs)))
                finally:
                    spans.uninstall(patches)

    out = {
        "worker": args.worker,
        "rounds": args.rounds,
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_record(),
    }
    if tracer is not None:
        from thermotimes import ensemble

        walls = {i: j["wall_s"] for i, j in enumerate(jobs) if j["traced"]}
        out["layers"] = spans.layer_metrics(tracer.spans, walls, ensemble.DENSE_EIG_LIMIT)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
