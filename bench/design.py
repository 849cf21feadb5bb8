"""Seeded inputs of the three benchmark workloads.

Every workload draws beta log-uniformly over the valid domain [1e-3, 1e4]
(ROADMAP aim 3), stratified so that every run covers every stratum equally:
job time depends strongly on beta (a QOME table takes about 2 s at beta <= 30
and 0.4 s at beta = 1e4), so an unstratified draw would move the median job
time from seed to seed.

The inputs come in blocks of ``BLOCK`` = 21 cells. Cell i holds beta in the
i-th third of a decade; worker p of ``WORKERS`` takes the cells i = p (mod 3)
of a block, which is one cell per decade, so each worker's round covers all
seven decades once. Inside its cell the value is uniform in log, drawn from
the seed.

``analyze_uniform`` also draws Gamma log-uniformly over [1e-3, 1e3] as a
Latin hypercube: the 21 Gamma cells are each used once per block, paired with
the beta cells by the lattice permutation j = (5 i + 20) mod 21. That pairing
covers the domain corner (lowest beta, highest Gamma) and puts no cell across
the line beta * Gamma = 710 where the closed forms overflow, so every block
holds the same number of inputs on either side of it and the count of failing
records does not change from seed to seed.
"""

import math

import numpy as np

WORKLOADS = ("table1_modulated", "analyze_uniform", "table1_lba")

#: Fresh worker processes per untraced run; each pays set-up once.
WORKERS = 3
BLOCK = 21
LOG_BETA = (-3.0, 4.0)
LOG_GAMMA = (-3.0, 3.0)
GAMMA_STEP = 5
GAMMA_PHASE = 20

#: Nominal wall time of one worker's round (seven jobs) at the baseline. It
#: turns --seconds into a fixed number of rounds, so that two commits measure
#: the same inputs and the same job count even when one of them is faster.
NOMINAL_ROUND_S = {"table1_modulated": 14.0, "analyze_uniform": 12.0, "table1_lba": 5.0}

#: Ensemble sizes and methods of one analyze job.
ANALYZE_N = (1, 2, 3, 4, 5)
ANALYZE_METHODS = ("lba_analytic", "lba_numeric", "qome")

#: The warm-up job of set-up: a fixed input, so set-up does not depend on the
#: seed, at the top of the beta domain, where a job makes the same calls as
#: anywhere else but costs least (a QOME table 0.5 s instead of 2 s).
WARMUP_BETA = 1e4
WARMUP_GAMMA = 1.0


def _cell_value(lo: float, hi: float, cells: int, index: int, u: float) -> float:
    width = (hi - lo) / cells
    return 10.0 ** (lo + width * (index + u))


def block_inputs(workload: str, seed: int, block: int) -> list:
    """The 21 inputs of one block, in cell order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, block, WORKLOADS.index(workload)])
    u_beta = rng.random(BLOCK)
    u_gamma = rng.random(BLOCK)
    inputs = []
    for i in range(BLOCK):
        item = {"beta": _cell_value(*LOG_BETA, BLOCK, i, u_beta[i])}
        if workload == "analyze_uniform":
            j = (GAMMA_STEP * i + GAMMA_PHASE) % BLOCK
            item["Gamma"] = _cell_value(*LOG_GAMMA, BLOCK, j, u_gamma[i])
        inputs.append(item)
    return inputs


def round_inputs(workload: str, seed: int, worker: int, rnd: int) -> list:
    """Inputs of one round of one worker: one cell per beta decade, in seeded order."""
    block = block_inputs(workload, seed, rnd)
    mine = [block[i] for i in range(worker, BLOCK, WORKERS)]
    order = np.random.default_rng([seed, rnd, worker, 7]).permutation(len(mine))
    return [mine[k] for k in order]


def rounds_per_worker(workload: str, seconds: float, workers: int, repeats: int = 1) -> int:
    """Whole rounds each worker runs so the run measures about ``seconds``.

    ``repeats`` is how often each input is run (2 when traced: untraced and
    traced). At least one round, so every beta decade is covered.
    """
    return max(1, int(seconds // (workers * repeats * NOMINAL_ROUND_S[workload])))


def warmup_input(workload: str) -> dict:
    item = {"beta": WARMUP_BETA}
    if workload == "analyze_uniform":
        item["Gamma"] = WARMUP_GAMMA
    return item


def analyze_config(item: dict) -> dict:
    """The analyze configuration of one analyze_uniform job."""
    return {
        "family": "free_spins_uniform",
        "Gamma": item["Gamma"],
        "beta": item["beta"],
        "N_list": list(ANALYZE_N),
        "methods": list(ANALYZE_METHODS),
    }


def modulated_gammas(N: int) -> np.ndarray:
    """Field law of the reference table, Gamma_i = 1 + sin((i-1) pi / sqrt 2) / 2.

    Written out here rather than imported, so the checks do not trust the
    program for the inputs they judge it on.
    """
    i = np.arange(N, dtype=float)
    return 1.0 + 0.5 * np.sin(i * math.pi / math.sqrt(2.0))
