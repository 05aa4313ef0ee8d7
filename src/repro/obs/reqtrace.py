"""Request-scoped tracing for the serve plane.

Aggregate metrics (``repro.obs.registry``) say *what* p99 is; the journal
(``repro.obs.events``) says *that* a leak was blocked.  This module answers
the per-request question in between: for one admitted request, what
happened at every layer on its way through the stack --

    admission -> scheduler slice -> syscall -> kernel function
              -> pipeline phase -> block-cache outcome

Design contract (matches the rest of ``repro.obs``):

* **Deterministic identity.**  A trace ID is a pure function of
  ``(seed, cell, tenant, arrival index)`` -- a SHA-256 prefix, no wall
  clock, no ``id()``, no PYTHONHASHSEED exposure.  Re-running the same
  serve cell yields byte-identical traces in any process.
* **Near-free when inactive.**  ``instrumented(recorder=...)`` installs
  a recorder; hooks read it off the shared record and test ``None``.  No
  recorder installed means no allocation, no branch into recording code,
  and -- critically -- zero effect on simulated cycle counts either way
  (tracing is an observer, never a participant).
* **Exemplars.**  Each latency-histogram observation can be linked to
  the trace that produced it, keyed by the same bucket the histogram
  puts it in (first bound with ``value <= bound``, else ``inf``), so any
  bucket of ``serve.latency_cycles`` can *name* the requests inside it.
* **Worker-count invariance.**  ``TraceRecorder.snapshot()`` /
  ``from_snapshot`` / ``merge`` mirror ``MetricsRegistry``: per-cell
  recorders merge in declared cell order, so a 4-worker grid run merges
  to the same bytes as a serial one.

Per-request exports reuse :mod:`repro.obs.profile`'s exporters: a trace
renders as a span-path dict (``SpanTree.from_spans``) and from there to
folded-stack or Chrome-trace JSON.
"""

from __future__ import annotations

import hashlib
import json

from repro.obs.instruments import INSTRUMENTS

__all__ = [
    "RequestTrace",
    "TraceRecorder",
    "bucket_label",
    "step",
    "trace_id",
]


def trace_id(seed: int, cell: str, tenant: int, seq: int) -> str:
    """Deterministic 64-bit (hex) request trace ID.

    ``cell`` disambiguates schedules that reuse the same (seed, tenant,
    seq) triple -- e.g. serve cells with different tenant counts, or
    campaign epochs -- so IDs stay unique across a whole grid.
    """
    payload = f"req:{seed}:{cell}:{tenant}:{seq}"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _fnum(value: float) -> str:
    """``2000.0`` -> ``"2000"`` (histogram bucket labels)."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def bucket_label(value: float, buckets) -> str:
    """The bucket label a ``Histogram.observe(value)`` call lands in.

    Mirrors ``repro.obs.registry.Histogram``: first bound with
    ``value <= bound`` wins; past the last bound is the overflow
    bucket, labelled ``"inf"``.
    """
    for bound in buckets:
        if value <= bound:
            return f"le_{_fnum(bound)}"
    return "inf"


class RequestTrace:
    """One request's causal trace: identity, ordered steps, outcome."""

    __slots__ = ("trace_id", "tenant", "seq", "cell", "arrival_cycle",
                 "steps", "outcome", "start_cycle", "completion_cycle",
                 "latency_cycles")

    def __init__(self, tid: str, *, tenant: int, seq: int, cell: str,
                 arrival_cycle: float):
        self.trace_id = tid
        self.tenant = tenant
        self.seq = seq
        self.cell = cell
        self.arrival_cycle = arrival_cycle
        self.steps: list[dict] = []
        self.outcome = "open"
        self.start_cycle: float | None = None
        self.completion_cycle: float | None = None
        self.latency_cycles: float | None = None

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "seq": self.seq,
            "cell": self.cell,
            "arrival_cycle": self.arrival_cycle,
            "start_cycle": self.start_cycle,
            "completion_cycle": self.completion_cycle,
            "latency_cycles": self.latency_cycles,
            "outcome": self.outcome,
            "steps": [dict(sorted(s.items())) for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestTrace":
        trace = cls(data["trace_id"], tenant=data["tenant"],
                    seq=data["seq"], cell=data["cell"],
                    arrival_cycle=data["arrival_cycle"])
        trace.outcome = data["outcome"]
        trace.start_cycle = data["start_cycle"]
        trace.completion_cycle = data["completion_cycle"]
        trace.latency_cycles = data["latency_cycles"]
        trace.steps = [dict(s) for s in data["steps"]]
        return trace

    # -- span-path export (repro.obs.profile interop) -------------------

    def to_span_paths(self) -> dict[str, dict]:
        """Render the trace as ``SpanTree.from_spans`` input.

        Steps are grouped under their enclosing syscall: the engine
        records pipeline/kernel steps *before* the driver's syscall step
        (innermost completes first), so a buffer of pending inner steps
        attaches to the next syscall step.  Self-cycles nest exactly:
        ``syscall = trap + kernel_fn``; ``kernel_fn = phases + compute``.
        """
        root = f"req:{self.trace_id}"
        paths: dict[str, dict] = {}

        def add(path: str, count: int, cycles: float) -> None:
            node = paths.setdefault(path, {"count": 0, "cycles": 0.0})
            node["count"] += count
            node["cycles"] += cycles

        total = 0.0
        pending: list[dict] = []
        for i, step_row in enumerate(self.steps):
            layer = step_row["layer"]
            cycles = float(step_row.get("cycles", 0.0))
            if layer in ("pipeline", "kernel_fn"):
                pending.append(step_row)
                continue
            base = f"{root}/{i:03d}:{layer}:{step_row['name']}"
            self_cycles = cycles
            if layer == "syscall":
                kernel = [s for s in pending if s["layer"] == "kernel_fn"]
                pipe = [s for s in pending if s["layer"] == "pipeline"]
                pending = []
                for krow in kernel:
                    kcycles = float(krow.get("cycles", 0.0))
                    self_cycles -= kcycles
                    kpath = f"{base}/kernel:{krow['name']}"
                    kself = kcycles
                    for prow in pipe:
                        if prow["name"] != krow["name"]:
                            continue
                        fetch = float(prow.get("fetch_stall", 0.0))
                        fence = float(prow.get("fence_stall", 0.0))
                        kself -= fetch + fence
                        if fetch:
                            add(f"{kpath}/phase:fetch_stall", 1, fetch)
                        if fence:
                            add(f"{kpath}/phase:fence_stall", 1, fence)
                        for reason, n in sorted(
                                prow.get("bc_miss", {}).items()):
                            add(f"{kpath}/blockcache:miss:{reason}", n, 0.0)
                        hits = int(prow.get("bc_hits", 0))
                        if hits:
                            add(f"{kpath}/blockcache:hit", hits, 0.0)
                    add(kpath, 1, max(kself, 0.0))
            add(base, 1, max(self_cycles, 0.0))
            total += cycles
        latency = self.latency_cycles or 0.0
        add(root, 1, max(latency - total, 0.0))
        return paths

    def to_chrome_trace_json(self) -> str:
        from repro.obs.profile import SpanTree
        return SpanTree.from_spans(self.to_span_paths()).to_chrome_trace_json()

    def to_folded(self) -> str:
        from repro.obs.profile import SpanTree
        return SpanTree.from_spans(self.to_span_paths()).to_folded()


class TraceRecorder:
    """Collects request traces and histogram-bucket exemplar links."""

    DEFAULT_MAX_EXEMPLARS = 3

    def __init__(self, *, max_exemplars_per_bucket: int | None = None):
        self.max_exemplars = (self.DEFAULT_MAX_EXEMPLARS
                              if max_exemplars_per_bucket is None
                              else max_exemplars_per_bucket)
        self.traces: dict[str, RequestTrace] = {}
        #: histogram name -> bucket label -> first-N trace IDs.
        self.exemplars: dict[str, dict[str, list[str]]] = {}
        self._open: RequestTrace | None = None

    # -- request lifecycle (driven by the serve scheduler) --------------

    def admit(self, seed: int, cell: str, tenant: int, seq: int,
              arrival_cycle: float) -> RequestTrace:
        tid = trace_id(seed, cell, tenant, seq)
        trace = RequestTrace(tid, tenant=tenant, seq=seq, cell=cell,
                             arrival_cycle=arrival_cycle)
        self.traces[tid] = trace
        return trace

    def lookup(self, seed: int, cell: str, tenant: int,
               seq: int) -> RequestTrace | None:
        return self.traces.get(trace_id(seed, cell, tenant, seq))

    def open(self, trace: RequestTrace) -> None:
        self._open = trace

    def record(self, layer: str, name: str, cycles: float,
               detail: dict) -> None:
        row = {"layer": layer, "name": name, "cycles": cycles}
        row.update(detail)
        self._open.steps.append(row)

    def note(self, trace: RequestTrace, layer: str, name: str,
             cycles: float = 0.0, **detail) -> None:
        """Record a step on a specific trace without opening it (used
        for admission-time steps, before the request is dispatched)."""
        row = {"layer": layer, "name": name, "cycles": cycles}
        row.update(detail)
        trace.steps.append(row)

    def close(self, trace: RequestTrace, outcome: str, *,
              start_cycle: float | None = None,
              completion_cycle: float | None = None,
              latency_cycles: float | None = None) -> None:
        trace.outcome = outcome
        trace.start_cycle = start_cycle
        trace.completion_cycle = completion_cycle
        trace.latency_cycles = latency_cycles
        if self._open is trace:
            self._open = None

    # -- exemplars ------------------------------------------------------

    def exemplar(self, histogram: str, value: float, buckets,
                 tid: str) -> None:
        label = bucket_label(value, buckets)
        bucket = self.exemplars.setdefault(histogram, {}) \
                               .setdefault(label, [])
        if len(bucket) < self.max_exemplars:
            bucket.append(tid)

    def resolve(self, tid: str) -> RequestTrace | None:
        return self.traces.get(tid)

    # -- snapshot / merge (MetricsRegistry-shaped) ----------------------

    def snapshot(self) -> dict:
        return {
            "meta": {"max_exemplars_per_bucket": self.max_exemplars},
            "traces": {tid: self.traces[tid].as_dict()
                       for tid in sorted(self.traces)},
            "exemplars": {
                hist: {label: list(ids)
                       for label, ids in sorted(buckets.items())}
                for hist, buckets in sorted(self.exemplars.items())
            },
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "TraceRecorder":
        rec = cls(max_exemplars_per_bucket=snap["meta"]
                  ["max_exemplars_per_bucket"])
        for tid, data in snap["traces"].items():
            rec.traces[tid] = RequestTrace.from_dict(data)
        for hist, buckets in snap["exemplars"].items():
            rec.exemplars[hist] = {label: list(ids)
                                   for label, ids in buckets.items()}
        return rec

    def merge(self, other: "TraceRecorder") -> None:
        """Accumulate ``other`` (e.g. one grid cell's recorder).

        Merging per-cell recorders in declared cell order yields the
        same bytes regardless of worker count -- the same contract as
        ``MetricsRegistry.merge``.  Exemplar lists keep first-N in merge
        order, matching what a single serial recorder would have kept.
        """
        for tid, trace in other.traces.items():
            self.traces[tid] = trace
        for hist, buckets in other.exemplars.items():
            mine = self.exemplars.setdefault(hist, {})
            for label, ids in buckets.items():
                bucket = mine.setdefault(label, [])
                for tid in ids:
                    if len(bucket) >= self.max_exemplars:
                        break
                    bucket.append(tid)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent,
                          separators=(",", ": "))


# ---------------------------------------------------------------------------
# Hook (no-op while no recorder is installed)
# ---------------------------------------------------------------------------


def step(layer: str, name: str, cycles: float = 0.0, **detail) -> None:
    """Record a step on the currently-open request, if any.

    The instrumented layers (driver, kernel, pipeline) call this
    unconditionally; with no recorder installed -- or no request open,
    e.g. during boot -- it is a global read, an attribute read and a
    ``None`` test.
    """
    recorder = INSTRUMENTS.recorder
    if recorder is not None and recorder._open is not None:
        recorder.record(layer, name, cycles, detail)
