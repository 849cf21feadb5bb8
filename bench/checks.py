"""Per-record correctness checks: each route is refereed by the other.

A record is one row of a reference table or one (N, method) record of an
analyze job. Every record gets a list of failure reasons (empty when it
passes). Failures are never dropped: they all count in ``failed_frac``. A
failure is *known* when its reason and inputs match a defect the program is
known to have at this benchmark's baseline; a run with any other failure is
reported as not correct.
"""

import math

from design import ANALYZE_METHODS, ANALYZE_N, modulated_gammas

#: Agreement required between the two routes.
RTOL = 1e-9

#: Steady-state multiplicity of the QOME for N spins in a uniform field.
UNIFORM_MULTIPLICITY = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}

TABLE1_SMALL_N = tuple(range(1, 14))
TABLE1_N = TABLE1_SMALL_N + (100, 1000, 10000, 100000)

#: Known defect 1 and 2: free_spins_times overflows cosh/sinh once
#: beta * Gamma exceeds about 710, returns tau_Q = NaN, and tau = max(tau_P, NaN)
#: quietly becomes tau_P. Known from beta * max(Gamma) >= 700 on.
OVERFLOW_BETA_GAMMA = 700.0
OVERFLOW_REASONS = ("analytic_not_finite", "analytic_vs_numeric", "tau_not_max")

#: Known defect 3: at high temperature and strong field (beta = 1e-3,
#: Gamma = 1e3, uniform N = 5) the QOME tau_P misses the detailed-balance one.
HOT_STRONG_BETA = 10.0 ** -2.5
HOT_STRONG_GAMMA = 10.0 ** 2.5

#: Known defect 4, found while building this benchmark: from beta = 100 on,
#: the Lanczos branch of ensemble_times_numeric (N >= 11 spins, dimension
#: above DENSE_EIG_LIMIT) misses mu2 of the modulated table and returns a
#: tau_P about 9% short of the closed form.
LANCZOS_MIN_N = 11
LANCZOS_BETA = 100.0


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _close(a, b) -> bool:
    return (
        _finite_positive(a) and _finite_positive(b)
        and abs(a - b) <= RTOL * max(abs(a), abs(b))
    )


def _tau_is_max(rec: dict) -> bool:
    """tau = max(tau_P, tau_Q); a NaN anywhere fails, as does a tau that hides one."""
    P, Q, T = rec.get("tau_P"), rec.get("tau_Q"), rec.get("tau")
    if any(isinstance(v, float) and math.isnan(v) for v in (P, Q, T)):
        return False
    if Q is None:
        return T is None
    return P is not None and T == max(P, Q)


def check_table1_row(row: dict, max_qome_n: int) -> list:
    """Failure reasons of one reference-table row."""
    reasons = []
    N = row["N"]
    if not (_finite_positive(row["lba_tauP"]) and _finite_positive(row["lba_tauQ"])):
        reasons.append("analytic_not_finite")
    if N in TABLE1_SMALL_N:
        if not (_finite_positive(row["lba_num_tauP"]) and _finite_positive(row["lba_num_tauQ"])):
            reasons.append("numeric_not_finite")
        if not (_close(row["lba_tauP"], row["lba_num_tauP"])
                and _close(row["lba_tauQ"], row["lba_num_tauQ"])):
            reasons.append("analytic_vs_numeric")
        if N <= max_qome_n:
            if not _close(row["qome_tauP"], row["lba_num_tauP"]):
                reasons.append("qome_tauP")
            if "qome_multiple_steady_states" in (row["warnings"] or ""):
                reasons.append("qome_multiplicity")
    return reasons


def check_analyze_records(records: list) -> dict:
    """Failure reasons of every (N, method) record of one analyze_uniform job."""
    by = {(r["N"], r["method"]): r for r in records}
    out = {}
    for N in ANALYZE_N:
        a = by.get((N, "lba_analytic"))
        n = by.get((N, "lba_numeric"))
        q = by.get((N, "qome"))
        for method, rec in (("lba_analytic", a), ("lba_numeric", n), ("qome", q)):
            if rec is None:
                out[(N, method)] = ["missing"]
        if n is not None:
            reasons = []
            if not all(_finite_positive(n[k]) for k in ("tau_P", "tau_Q", "tau")):
                reasons.append("numeric_not_finite")
            if not _tau_is_max(n):
                reasons.append("tau_not_max")
            out[(N, "lba_numeric")] = reasons
        if a is not None:
            reasons = []
            if not all(_finite_positive(a[k]) for k in ("tau_P", "tau_Q", "tau")):
                reasons.append("analytic_not_finite")
            if n is None or not all(_close(a[k], n[k]) for k in ("tau_P", "tau_Q", "tau")):
                reasons.append("analytic_vs_numeric")
            if not _tau_is_max(a):
                reasons.append("tau_not_max")
            out[(N, "lba_analytic")] = reasons
        if q is not None:
            reasons = []
            if n is None or not _close(q["tau_P"], n["tau_P"]):
                reasons.append("qome_tauP")
            if q["qome_zero_multiplicity"] != UNIFORM_MULTIPLICITY[N]:
                reasons.append("qome_multiplicity")
            if not _tau_is_max(q):
                reasons.append("tau_not_max")
            out[(N, "qome")] = reasons
    return out


def is_known(reason: str, beta: float, gamma_max: float, N: int, method: str = "") -> bool:
    """Whether a failure matches one of the baseline's known defects."""
    if reason in OVERFLOW_REASONS and method in ("", "lba_analytic") \
            and beta * gamma_max >= OVERFLOW_BETA_GAMMA:
        return True
    if reason == "analytic_vs_numeric" and N >= LANCZOS_MIN_N:
        return beta >= LANCZOS_BETA
    if reason == "qome_tauP":
        return beta <= HOT_STRONG_BETA and gamma_max >= HOT_STRONG_GAMMA
    return False


def check_job(workload: str, item: dict, result) -> list:
    """(record key, reasons, all_known) for every record a job should produce.

    ``result`` is the job's return value, or the exception it raised.
    """
    beta = item["beta"]
    if workload == "analyze_uniform":
        keys = {(N, m): f"N={N}/{m}" for N in ANALYZE_N for m in ANALYZE_METHODS}
    else:
        keys = {N: f"N={N}" for N in TABLE1_N}
    if isinstance(result, BaseException):
        return [(name, [f"error:{type(result).__name__}"], False) for name in keys.values()]

    out = []
    if workload == "analyze_uniform":
        found = check_analyze_records(result)
        for (N, method), name in keys.items():
            reasons = found.get((N, method), ["missing"])
            known = all(is_known(r, beta, item["Gamma"], N, method) for r in reasons)
            out.append((name, reasons, known))
        return out

    max_qome_n = 5 if workload == "table1_modulated" else 0
    rows = {row["N"]: row for row in result}
    for N, name in keys.items():
        reasons = check_table1_row(rows[N], max_qome_n) if N in rows else ["missing"]
        gamma_max = float(modulated_gammas(N).max())
        known = all(is_known(r, beta, gamma_max, N) for r in reasons)
        out.append((name, reasons, known))
    return out
