"""Deterministic metrics registry: counters, gauges, histograms, spans.

The observability plane's one rule is **determinism**: every recorded
value derives from *simulated* quantities (cycles, event counts), never
from the wall clock or unseeded randomness, so two runs of the same
seeded workload produce byte-identical snapshots.  That is what lets the
CI smoke snapshot be committed to the repository and diffed, and what
makes the plane a regression substrate for later performance work.

Three primitives:

* **counters** -- monotonically accumulated event counts (cache fills,
  fences by reason, allocator calls);
* **gauges** -- last-written values, used by the *collectors* that read
  module-local stats objects (``CacheStats``, ``ViewCacheStats``, ...)
  at snapshot time;
* **histograms** -- fixed-bucket distributions keyed by simulated
  cycles.  Buckets are fixed at first observation (never rebalanced), so
  bucket boundaries cannot depend on the data order.

Plus lightweight **span tracing**: ``span("syscall/read")`` pushes a
frame onto a stack; nested spans form slash-joined paths
(``syscall/read/fn/sys_read``), and :meth:`MetricsRegistry.tick`
attributes simulated cycles to the innermost open span.  Cycles recorded
at a node are *self* cycles -- a subtree sum reconstructs inclusive
totals -- so the syscall layer, the kernel-function layer, and the
pipeline phases can each attribute their own share without double
counting.

Instrumented modules call the module-level hooks (:func:`add`,
:func:`observe`, :func:`span`, :func:`tick`), which are near-free (one
global read, one attribute read and an ``is None`` test) when no
registry is active; ``instrumented(registry=...)`` scopes a registry to
a ``with`` block so metrics never leak across experiments.

From ``repro`` this module imports only the leaf
:mod:`repro.obs.instruments`, so cpu/kernel/eval modules import it for
the hooks without cycles.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.instruments import INSTRUMENTS

#: Default histogram buckets, in simulated cycles.  Chosen to bracket the
#: model's latencies: an L1 hit (2) through a catastrophic fence-stalled
#: kernel-spin syscall (~1e6).
DEFAULT_CYCLE_BUCKETS: tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)


@dataclass
class Histogram:
    """Fixed-bucket histogram (cumulative counts are computed at export)."""

    buckets: tuple[float, ...] = DEFAULT_CYCLE_BUCKETS
    counts: list[int] = field(default_factory=list)
    #: Observations above the last bucket boundary.
    overflow: int = 0
    total: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if tuple(sorted(self.buckets)) != tuple(self.buckets):
            raise ValueError(f"histogram buckets not sorted: {self.buckets}")
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.overflow += 1
        self.total += value
        self.n += 1

    def as_dict(self) -> dict[str, Any]:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "overflow": self.overflow, "sum": self.total, "count": self.n}


@dataclass
class SpanStats:
    """Accumulated figures for one span path."""

    count: int = 0
    cycles: float = 0.0  # self cycles (exclusive of children)

    def as_dict(self) -> dict[str, Any]:
        return {"count": self.count, "cycles": self.cycles}


class MetricsRegistry:
    """A process-wide bag of named metrics plus a span stack.

    Metric names are dotted paths (``cache.l1d.hits``); exporters map
    them to Prometheus-compatible identifiers.  ``meta`` carries
    run-identifying context (seed, workload matrix) into the snapshot.
    """

    def __init__(self, meta: dict[str, Any] | None = None) -> None:
        self.meta: dict[str, Any] = dict(meta or {})
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, SpanStats] = {}
        self._span_stack: list[str] = []

    # -- primitives ------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` into the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] | None = None) -> None:
        """Record ``value`` into the fixed-bucket histogram ``name``.

        ``buckets`` is honoured only on the histogram's first
        observation; later calls must agree (fixed buckets are what keep
        snapshots comparable across runs).
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(buckets=buckets or DEFAULT_CYCLE_BUCKETS)
            self._histograms[name] = hist
        elif buckets is not None and tuple(buckets) != hist.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{hist.buckets}, not {tuple(buckets)}")
        hist.observe(value)

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a nested span; cycles ticked inside attribute to it."""
        if "/" in name and not name.replace("/", ""):
            raise ValueError(f"invalid span name {name!r}")
        self._span_stack.append(name)
        path = "/".join(self._span_stack)
        stats = self._spans.get(path)
        if stats is None:
            stats = self._spans[path] = SpanStats()
        stats.count += 1
        try:
            yield
        finally:
            self._span_stack.pop()

    def tick(self, cycles: float) -> None:
        """Attribute simulated cycles to the innermost open span.

        Outside any span the cycles land on the root pseudo-span ``""``
        so nothing is silently lost.
        """
        path = "/".join(self._span_stack)
        stats = self._spans.get(path)
        if stats is None:
            stats = self._spans[path] = SpanStats()
        stats.cycles += cycles

    def span_total(self, prefix: str) -> float:
        """Inclusive cycles of a span subtree (self + all descendants)."""
        return sum(s.cycles for path, s in self._spans.items()
                   if path == prefix or path.startswith(prefix + "/"))

    # -- aggregation -----------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (campaign-shard combine).

        Counters, span figures, and histogram contents accumulate;
        gauges are last-write-wins (the merged-in shard is "later"), as
        are colliding ``meta`` keys.  Histograms must agree on buckets
        -- they are fixed at first observation precisely so shards stay
        mergeable.
        """
        for key in sorted(other.meta):
            self.meta[key] = other.meta[key]
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        self._gauges.update(other._gauges)
        for name, theirs in other._histograms.items():
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = Histogram(
                    buckets=theirs.buckets, counts=list(theirs.counts),
                    overflow=theirs.overflow, total=theirs.total,
                    n=theirs.n)
                continue
            if hist.buckets != theirs.buckets:
                raise ValueError(
                    f"cannot merge histogram {name!r}: buckets "
                    f"{hist.buckets} != {theirs.buckets}")
            for i, count in enumerate(theirs.counts):
                hist.counts[i] += count
            hist.overflow += theirs.overflow
            hist.total += theirs.total
            hist.n += theirs.n
        for path, theirs in other._spans.items():
            stats = self._spans.get(path)
            if stats is None:
                stats = self._spans[path] = SpanStats()
            stats.count += theirs.count
            stats.cycles += theirs.cycles
        # Canonical key order after every merge: pool shards gather in
        # completion order, and downstream consumers that iterate the
        # registry directly (not via the sorted snapshot) must not see
        # that order.  Values are already order-independent (counters,
        # histogram and span figures are sums; gauges/meta are explicit
        # last-write-wins).
        self.meta = {k: self.meta[k] for k in sorted(self.meta)}
        self._counters = {k: self._counters[k]
                          for k in sorted(self._counters)}
        self._gauges = {k: self._gauges[k] for k in sorted(self._gauges)}
        self._histograms = {k: self._histograms[k]
                            for k in sorted(self._histograms)}
        self._spans = {k: self._spans[k] for k in sorted(self._spans)}

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        The inverse of :meth:`snapshot` up to key order; with
        :meth:`merge` this is how a campaign runner combines the
        snapshots its worker processes ship back.
        """
        reg = cls(meta=snapshot.get("meta"))
        reg._counters.update(snapshot.get("counters", {}))
        reg._gauges.update(snapshot.get("gauges", {}))
        for name, data in snapshot.get("histograms", {}).items():
            reg._histograms[name] = Histogram(
                buckets=tuple(data["buckets"]),
                counts=list(data["counts"]), overflow=data["overflow"],
                total=data["sum"], n=data["count"])
        for path, data in snapshot.get("spans", {}).items():
            reg._spans[path] = SpanStats(count=data["count"],
                                         cycles=data["cycles"])
        return reg

    # -- access ----------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def span_stats(self, path: str) -> SpanStats | None:
        return self._spans.get(path)

    # -- exporters -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every metric, with sorted keys throughout."""
        return {
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "counters": {k: self._counters[k]
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].as_dict()
                           for k in sorted(self._histograms)},
            "spans": {k: self._spans[k].as_dict()
                      for k in sorted(self._spans)},
        }

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON snapshot (sorted keys: byte-reproducible)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent,
                          separators=(",", ": ") if indent else (",", ":"))

    def to_text(self) -> str:
        """Prometheus-style text exposition of the snapshot."""
        lines: list[str] = []
        for key in sorted(self.meta):
            lines.append(f"# META {key} {self.meta[key]}")
        for name in sorted(self._counters):
            ident = _promname(name)
            lines.append(f"# TYPE {ident} counter")
            lines.append(f"{ident} {_num(self._counters[name])}")
        for name in sorted(self._gauges):
            ident = _promname(name)
            lines.append(f"# TYPE {ident} gauge")
            lines.append(f"{ident} {_num(self._gauges[name])}")
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            ident = _promname(name)
            lines.append(f"# TYPE {ident} histogram")
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                lines.append(
                    f'{ident}_bucket{{le="{_num(bound)}"}} {cumulative}')
            lines.append(f'{ident}_bucket{{le="+Inf"}} {hist.n}')
            lines.append(f"{ident}_sum {_num(hist.total)}")
            lines.append(f"{ident}_count {hist.n}")
        for path in sorted(self._spans):
            stats = self._spans[path]
            ident = _promname("span." + path) if path else "span_root"
            lines.append(f'{ident}_count {stats.count}')
            lines.append(f'{ident}_cycles {_num(stats.cycles)}')
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()
        self._span_stack.clear()


def _promname(name: str) -> str:
    """Map a dotted/slashed metric name to a Prometheus identifier."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() else "_")
    ident = "".join(out)
    if ident and ident[0].isdigit():
        ident = "_" + ident
    return ident


def _num(value: float) -> str:
    """Render a number without a trailing ``.0`` for integral floats.

    Non-finite values follow the Prometheus text conventions (``+Inf``,
    ``-Inf``, ``NaN``) rather than Python's ``inf``/``nan`` reprs, which
    exposition parsers reject.  Everything else keeps full ``repr``
    precision -- negative, sub-epsilon, and denormal values round-trip.
    """
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        if value.is_integer() and abs(value) < 2 ** 53:
            return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Module-level hooks (no-ops while no registry is active)
# ---------------------------------------------------------------------------


def add(name: str, value: float = 1) -> None:
    """Counter hook for instrumented modules (no-op when inactive)."""
    reg = INSTRUMENTS.registry
    if reg is not None:
        reg.add(name, value)


def gauge(name: str, value: float) -> None:
    reg = INSTRUMENTS.registry
    if reg is not None:
        reg.gauge(name, value)


def observe(name: str, value: float,
            buckets: tuple[float, ...] | None = None) -> None:
    reg = INSTRUMENTS.registry
    if reg is not None:
        reg.observe(name, value, buckets=buckets)


@contextmanager
def span(name: str) -> Iterator[None]:
    """Span hook: a real span when a registry is active, else a no-op."""
    reg = INSTRUMENTS.registry
    if reg is None:
        yield
        return
    with reg.span(name):
        yield


def tick(cycles: float) -> None:
    reg = INSTRUMENTS.registry
    if reg is not None:
        reg.tick(cycles)
