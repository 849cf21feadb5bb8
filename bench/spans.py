"""Span collector for the traced run, and the per-layer metrics computed from it.

Spans are recorded from outside the program: every public function of the
``model``, ``lba``, ``ensemble``, ``qome`` and ``cli`` modules is wrapped in
each module namespace that holds it, which is the name its caller imported
it by (``cli.free_spins_times``, ``ensemble.thermal_rates``, ...). No file of
the program is changed. ``cli._run_method`` is wrapped as well: it is where a
pool thread of ``analyze_records`` starts one record, so its span marks the
end of that record's wait for a worker.

Spans live in memory (name, start, end, parent, job id, thread) and are
written out when the run ends. Every thread keeps its own span stack; a span
opened on an empty stack outside the main thread is a pool task and is
parented to the innermost open span of the main thread, i.e. to its job.
"""

import functools
import inspect
import json
import math
import sys
import threading
import time

LAYERS = ("model", "lba", "ensemble", "qome", "cli")
RECORD_MARKER = "cli._run_method"

#: Flops of one dense nonsymmetric eigenvalue solve (Hessenberg reduction and
#: shifted QR, no eigenvectors): OPS_PER_N3 * n^3, Golub & Van Loan, Matrix
#: Computations, 4th ed., section 7.5.6. Computed, not measured.
OPS_PER_N3 = 10
#: Bytes of one complex128 entry of the M^4 Liouvillian tensor.
BYTES_PER_ENTRY = 16


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end", "thread", "info")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory spans with a per-thread stack; create it on the main thread."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span()
        span.name = name
        span.parent = parent.id if parent is not None else None
        span.job = self.job
        span.thread = threading.get_ident()
        span.info = {}
        span.end = None
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _dim_of(spec) -> int:
    dim = 1
    for member in spec.members:
        dim *= member.spectrum.M ** member.count
    return dim


def _finite_times(times) -> bool:
    return all(math.isfinite(getattr(times, k)) for k in ("tau_P", "tau_Q", "tau"))


#: Computed counts recorded at the call boundary, from arguments and results.
ANNOTATE = {
    "qome.qome_spectrum": lambda a, kw, r: {"n": a[0].dim},
    "qome.build_liouvillian": lambda a, kw, r: {"M": a[0].M},
    "ensemble.ensemble_times_numeric": lambda a, kw, r: {"dim": _dim_of(a[0])},
    "ensemble.free_spins_times": lambda a, kw, r: {"error": not _finite_times(r)},
}


def _wrap(tracer: Tracer, name: str, fn):
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.info["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(span)
        if annotate is not None:
            span.info.update(annotate(args, kwargs, result))
        return result

    return traced


def install(tracer: Tracer) -> list:
    """Wrap the layer functions everywhere they are bound; returns the patches."""
    modules = {short: sys.modules[f"thermotimes.{short}"] for short in LAYERS}
    wrappers = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            qualified = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or qualified == RECORD_MARKER)):
                wrappers[obj] = _wrap(tracer, qualified, obj)
    patches = []
    for mod in [sys.modules["thermotimes"], *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    return patches


def uninstall(patches: list) -> None:
    for mod, name, obj in patches:
        setattr(mod, name, obj)


def _union(intervals: list) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> tuple:
    """Self time of every span, and the overlap of children running in parallel.

    Self time is the span's duration minus the union of its children's spans
    (clipped to it). For each span, sum(children) - union(children) is time
    counted twice because children overlapped; across a job the self times
    minus that overlap add up to the job's root span.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    selfs, overlap = {}, {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        union = _union(kids)
        selfs[s.id] = (s.end - s.start) - union
        overlap[s.id] = sum(hi - lo for lo, hi in kids) - union
    return selfs, overlap


def layer_metrics(spans: list, job_walls: dict, dense_eig_limit: int) -> dict:
    """Per-layer metrics, as means per traced job.

    ``job_walls`` maps each traced job id to its wall time measured around
    the entry-point call. Also returns the add-up residual: one minus
    (self times - overlap) / job wall, summed over jobs.
    """
    selfs, overlap = self_times(spans)
    jobs = len(job_walls)
    sums = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    starts = {s.job: s.start for s in spans if s.parent is None}
    waits = []
    dim_max = 0
    attributed = 0.0
    for s in spans:
        if s.job not in job_walls:
            continue
        attributed += selfs[s.id] - overlap[s.id]
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", selfs[s.id])
        if s.name == RECORD_MARKER:
            waits.append(s.start - starts[s.job])
        elif s.name == "qome.qome_spectrum":
            dim_max = max(dim_max, s.info["n"])
            add("qome.qome_spectrum.ops", OPS_PER_N3 * s.info["n"] ** 3)
        elif s.name == "qome.build_liouvillian":
            add("qome.build_liouvillian.bytes", BYTES_PER_ENTRY * s.info["M"] ** 4)
        elif s.name == "ensemble.ensemble_times_numeric":
            add("ensemble.ensemble_times_numeric.dim_sum", s.info["dim"])
            add("ensemble.ensemble_times_numeric.lanczos_calls", s.info["dim"] > dense_eig_limit)
        elif s.name == "ensemble.free_spins_times":
            add("ensemble.free_spins_times.errors", bool(s.info.get("error")))
    out = {key: value / jobs for key, value in sums.items()}
    out["qome.qome_spectrum.dim_max"] = dim_max
    out["cli.analyze_records.wait_s"] = sum(waits) / len(waits) if waits else 0.0
    out["trace.unattributed_frac"] = 1.0 - attributed / sum(job_walls.values())
    return out
