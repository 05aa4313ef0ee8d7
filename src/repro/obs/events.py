"""Security-event journal: cycle-stamped speculation forensics.

Where :mod:`repro.obs.registry` answers "how many" (counters, spans),
this module answers "what happened, in what order": every security-
relevant decision the simulated hardware or OS makes is emitted as one
typed :class:`SecurityEvent` -- a fence with its reason, a DSV ownership
miss, an ISV miss, a DSVMT walk, a blocked wrong-path (leak-attempt)
load, a dropped ownership event, an ISV shrink.  The journal is the
software analogue of a hardware security-event trace buffer: a fixed-
capacity ring with drop accounting, JSONL export, and a query API that
lets a test (or an operator) *reconstruct* the event sequence of a PoC
run after the fact.

Event kinds emitted by the instrumented modules:

==================  =======================================================
``fence``           a committed-path speculative load was blocked
                    (``reason`` is the policy's fence reason)
``blocked-leak``    a *wrong-path* (transient) load was blocked -- an
                    actual leak attempt stopped before transmission
``isv-miss``        the ISV check failed (``reason``: ``no-view``,
                    ``cache-refill``, or ``untrusted``)
``dsv-ownership-miss``  the target frame is outside the context's DSV
                    (``reason``: ``cached`` or ``walk``)
``dsvmt-walk``      a DSVMT walk ran (``reason``: ``huge-hit``, ``leaf``,
                    ``empty``, or ``fault``)
``dsv-assign-drop`` an allocator ownership event was lost (fail-closed)
``isv-shrink``      a view was tightened at runtime (Section 5.4)
``fault-fallback``  an injected serve-plane fault fired and the module
                    took its fail-closed fallback (``reason`` names it:
                    ``ibpb-drop-full-flush``, ``isv-refill-dropped``,
                    ``dsv-refill-dropped``, ``admission-corrupt-shed``)
``policy-escalate`` the adaptive controller tightened a tenant's
                    Perspective flavor (``reason``: ``from->to``)
``policy-deescalate``  a seeded-backoff de-escalation probe relaxed a
                    tenant's flavor (forensic exclusions stay applied)
``slo-alert``       a windowed burn-rate alert fired
                    (:mod:`repro.obs.slo`; ``reason``:
                    ``<objective>:burn=<rate>``, stamped at the end of
                    the breaching window)
==================  =======================================================

Instrumented modules call the module-level hooks (:func:`emit`,
:func:`emit_here`, :func:`advance`, :func:`set_site`), which cost one
global read, one attribute read and an ``is None`` test when no journal
is active; ``instrumented(journal=...)`` scopes a journal to a ``with``
block.  Cycle stamps are *simulated* cycles: each event records the
journal's running base (advanced at the end of every pipeline run /
syscall) plus the in-run clock of the emitting site, so two journaled
runs of the same seeded workload produce byte-identical JSONL.

From ``repro`` this module imports only the leaf
:mod:`repro.obs.instruments`, so cpu/core/defenses modules import it
for the hooks without cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.obs.instruments import INSTRUMENTS

#: The event kinds the instrumented modules emit (extensible: the journal
#: accepts any kind string; this tuple documents the built-in emitters).
EVENT_KINDS = (
    "fence",
    "blocked-leak",
    "isv-miss",
    "dsv-ownership-miss",
    "dsvmt-walk",
    "dsv-assign-drop",
    "isv-shrink",
    "fault-fallback",
    "policy-escalate",
    "policy-deescalate",
    "slo-alert",
)

DEFAULT_CAPACITY = 65_536

#: Fields :meth:`EventJournal.counts_by` accepts.
_COUNT_FIELDS = ("kind", "reason", "kernel_fn", "scheme", "context")


@dataclass(frozen=True)
class SecurityEvent:
    """One journaled security decision.

    ``seq`` is the global emission index (monotonic even across ring
    wrap-around, so drops are visible as seq gaps); ``cycle`` is the
    simulated-cycle stamp (journal base + in-run clock); ``context`` is
    the execution context (cgroup) id, ``pc`` the instruction VA and
    ``kernel_fn`` the kernel function of the emitting site; ``scheme``
    names the active defense policy.
    """

    seq: int
    cycle: float
    context: int
    pc: int
    kernel_fn: str
    kind: str
    reason: str
    scheme: str

    def as_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "cycle": self.cycle,
                "context": self.context, "pc": self.pc,
                "kernel_fn": self.kernel_fn, "kind": self.kind,
                "reason": self.reason, "scheme": self.scheme}


class EventJournal:
    """Fixed-capacity ring of :class:`SecurityEvent` with drop accounting.

    When the ring is full the *oldest* event is overwritten (forensics
    keeps the most recent window, like a flight recorder) and ``dropped``
    increments -- ``emitted`` always counts every emission, so
    ``emitted - len(journal)`` equals ``dropped``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 meta: dict[str, Any] | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive: {capacity}")
        self.capacity = capacity
        self.meta: dict[str, Any] = dict(meta or {})
        self._ring: list[SecurityEvent] = []
        self._head = 0  # index of the oldest event once the ring is full
        self.emitted = 0
        self.dropped = 0
        self._base_cycle = 0.0

    # -- recording -------------------------------------------------------

    def emit(self, kind: str, *, cycle: float = 0.0, context: int = -1,
             pc: int = 0, kernel_fn: str = "", reason: str = "",
             scheme: str = "") -> None:
        """Record one event, stamped at ``base_cycle + cycle``."""
        event = SecurityEvent(
            seq=self.emitted, cycle=self._base_cycle + cycle,
            context=context, pc=pc, kernel_fn=kernel_fn, kind=kind,
            reason=reason, scheme=scheme)
        self.emitted += 1
        if len(self._ring) < self.capacity:
            self._ring.append(event)
        else:
            self._ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def advance(self, cycles: float) -> None:
        """Advance the journal's cycle base (end of a pipeline run or the
        trap portion of a syscall), keeping stamps monotonic across runs."""
        self._base_cycle += cycles

    @property
    def base_cycle(self) -> float:
        return self._base_cycle

    # -- access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> list[SecurityEvent]:
        """All retained events in emission (seq) order."""
        return self._ring[self._head:] + self._ring[:self._head]

    def query(self, kind: str | None = None, context: int | None = None,
              kernel_fn: str | None = None, reason: str | None = None,
              scheme: str | None = None, since: float | None = None,
              until: float | None = None) -> list[SecurityEvent]:
        """Retained events matching every given filter, in seq order."""
        out = []
        for event in self.events():
            if kind is not None and event.kind != kind:
                continue
            if context is not None and event.context != context:
                continue
            if kernel_fn is not None and event.kernel_fn != kernel_fn:
                continue
            if reason is not None and event.reason != reason:
                continue
            if scheme is not None and event.scheme != scheme:
                continue
            if since is not None and event.cycle < since:
                continue
            if until is not None and event.cycle > until:
                continue
            out.append(event)
        return out

    def counts_by(self, field: str) -> dict[Any, int]:
        """Histogram of retained events over one event field."""
        if field not in _COUNT_FIELDS:
            raise ValueError(f"counts_by field must be one of "
                             f"{_COUNT_FIELDS}, not {field!r}")
        counts: dict[Any, int] = {}
        for event in self.events():
            key = getattr(event, field)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def reconstruct(self, context: int | None = None,
                    kinds: tuple[str, ...] | None = None,
                    ) -> list[SecurityEvent]:
        """Replay a run: the retained event sequence, optionally narrowed
        to one context and a set of kinds, in emission order with
        monotonic cycle stamps -- 'what did the hardware block, when'."""
        out = []
        for event in self.events():
            if context is not None and event.context != context:
                continue
            if kinds is not None and event.kind not in kinds:
                continue
            out.append(event)
        return out

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One canonical (sorted-key) JSON object per retained event."""
        return "".join(
            json.dumps(event.as_dict(), sort_keys=True,
                       separators=(",", ":")) + "\n"
            for event in self.events())

    @classmethod
    def from_events(cls, events, capacity: int | None = None,
                    meta: dict[str, Any] | None = None) -> "EventJournal":
        """Rebuild a journal from existing events (filter results, a
        parsed JSONL export).  Events keep their original ``seq`` and
        ``cycle`` stamps -- seq gaps from filtering stay visible --
        and ``emitted``/``dropped`` reflect the given list only.
        """
        events = list(events)
        if capacity is None:
            capacity = max(len(events), 1)
        journal = cls(capacity=capacity, meta=meta)
        journal._ring = events[-capacity:]
        journal.emitted = len(events)
        journal.dropped = len(events) - len(journal._ring)
        if events:
            journal._base_cycle = max(e.cycle for e in events)
        return journal

    @classmethod
    def from_jsonl(cls, text: str, capacity: int | None = None,
                   meta: dict[str, Any] | None = None) -> "EventJournal":
        """Parse a :meth:`to_jsonl` export back into a journal."""
        events = [SecurityEvent(**json.loads(line))
                  for line in text.splitlines() if line.strip()]
        return cls.from_events(events, capacity=capacity, meta=meta)

    def summary(self) -> str:
        """Human-readable forensics digest (CLI / report rendering)."""
        lines = [f"journal: {len(self)} retained / {self.emitted} emitted "
                 f"({self.dropped} dropped), capacity {self.capacity}"]
        for key in sorted(self.meta):
            lines.append(f"  meta {key} = {self.meta[key]}")
        by_kind = self.counts_by("kind")
        for kind in sorted(by_kind):
            lines.append(f"  {kind:<20} {by_kind[kind]}")
        top_fns = sorted(self.counts_by("kernel_fn").items(),
                         key=lambda item: (-item[1], item[0]))[:8]
        for fn, count in top_fns:
            lines.append(f"    in {fn or '<none>':<28} {count}")
        return "\n".join(lines)

    def clear(self) -> None:
        self._ring.clear()
        self._head = 0
        self.emitted = 0
        self.dropped = 0
        self._base_cycle = 0.0


# ---------------------------------------------------------------------------
# Module-level hooks (no-ops while no journal is active)
# ---------------------------------------------------------------------------


def emit(kind: str, *, cycle: float = 0.0, context: int = -1, pc: int = 0,
         kernel_fn: str = "", reason: str = "", scheme: str = "") -> None:
    """Event hook for instrumented modules (no-op when inactive)."""
    journal = INSTRUMENTS.journal
    if journal is not None:
        journal.emit(kind, cycle=cycle, context=context, pc=pc,
                     kernel_fn=kernel_fn, reason=reason, scheme=scheme)


def set_site(cycle: float, context: int, pc: int, kernel_fn: str,
             scheme: str) -> None:
    """Record the current emission site (called by the pipeline before a
    policy check, only when a journal is active)."""
    ins = INSTRUMENTS
    if ins.journal is not None:
        ins.site = (cycle, context, pc, kernel_fn, scheme)


def emit_here(kind: str, reason: str = "") -> None:
    """Emit an event stamped at the current site (no-op when inactive)."""
    ins = INSTRUMENTS
    journal = ins.journal
    if journal is not None:
        cycle, context, pc, kernel_fn, scheme = ins.site
        journal.emit(kind, cycle=cycle, context=context, pc=pc,
                     kernel_fn=kernel_fn, reason=reason, scheme=scheme)


def advance(cycles: float) -> None:
    """Advance the active journal's cycle base (no-op when inactive)."""
    journal = INSTRUMENTS.journal
    if journal is not None:
        journal.advance(cycles)
