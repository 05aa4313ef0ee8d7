"""Windowed SLO rollups and deterministic multi-window burn-rate alerts.

The registry answers "what is p99 over the whole run"; this module rolls
serve-plane signals into **fixed-width windows of simulated cycles**
(window ``k`` covers ``[k*W, (k+1)*W)``) and evaluates SLO objectives
over them, firing burn-rate alerts at deterministic cycle stamps -- the
end of the breaching window -- so an alert is a reproducible fact of the
schedule, not of wall-clock sampling.

Everything is **additive**: a window is a bag of counts (requests, shed,
latency bucket counts, per-context blocked leaks), so

* merging per-cell rollups in declared order is worker-count invariant
  (the ``MetricsRegistry.merge`` contract), and
* combining the two halves of a double-width window equals the
  double-width window computed directly (property-tested).

Objectives (``SloObjective``) follow the error-budget formulation: each
window has an error rate (fraction of requests over the latency target,
shed fraction, blocked-leak fraction) and a budget (the allowed rate).
``burn rate = error rate / budget``, so burn 1.0 means exactly spending
budget -- a p99-latency objective with budget 0.01 burns at 1.0 when the
target sits exactly at p99.  Alerts use the classic multi-window rule:
fire when both the long and the short trailing burn rate reach the
threshold, edge-triggered on the first breaching window.

Latency targets must be histogram bucket bounds: error counts then come
straight from bucket counts, exact and merge-stable (no interpolation).

``AdaptiveIsvController`` accepts these alerts as evidence alongside
journal events (``observe(events, alerts=...)``); blocked-leak alerts
carry the victim context so escalation stays per-tenant.

``instrumented(rollup=...)`` installs a rollup, and the serve engine's
hooks are one global read, one attribute read and a ``None`` test when
inactive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.obs.instruments import INSTRUMENTS

__all__ = [
    "DEFAULT_OBJECTIVES",
    "LATENCY_BUCKETS",
    "SloAlert",
    "SloObjective",
    "SloRollup",
    "SloWindow",
    "record_request",
    "record_shed",
]

#: Fixed latency buckets (simulated cycles) of the serve plane's
#: histograms, trace exemplars and SLO rollups.  Chosen to bracket an
#: unqueued request (a few thousand cycles of kernel service) through
#: deep queueing delay under overload.
LATENCY_BUCKETS: tuple[float, ...] = (
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
    100_000.0, 1_000_000.0, 10_000_000.0)

#: Aggregate pseudo-context for objectives without a tenant dimension.
AGGREGATE_CONTEXT = -1


@dataclass(frozen=True)
class SloObjective:
    """An error-budget objective over windowed serve signals.

    ``kind`` selects the error definition:

    * ``"latency"`` -- errors are requests with latency > ``target``
      (which must be a latency bucket bound); denominator is completed
      requests.  ``budget`` 0.01 makes this a p99 objective.
    * ``"shed"`` -- errors are shed/refused admissions; denominator is
      offered requests (completed + shed).
    * ``"blocked-leak"`` -- errors are blocked-leak security events,
      evaluated **per context**; denominator is offered requests.
    """

    name: str
    kind: str  # "latency" | "shed" | "blocked-leak"
    budget: float
    target: float | None = None

    def __post_init__(self):
        if self.kind not in ("latency", "shed", "blocked-leak"):
            raise ValueError(f"unknown objective kind: {self.kind!r}")
        if (self.kind == "latency") != (self.target is not None):
            raise ValueError("latency objectives (and only those) "
                             "take a target")
        if not self.budget > 0.0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SloAlert:
    """A burn-rate alert, stamped at the end of the breaching window."""

    objective: str
    kind: str
    context: int
    window_index: int
    cycle: float
    burn_short: float
    burn_long: float

    def as_dict(self) -> dict:
        # Non-finite burns (errors against an empty denominator) render
        # as the string "inf": json.dumps would otherwise emit the
        # non-standard Infinity token.
        def burn(value: float) -> float | str:
            return round(value, 6) if math.isfinite(value) else "inf"

        return {
            "objective": self.objective,
            "kind": self.kind,
            "context": self.context,
            "window_index": self.window_index,
            "cycle": self.cycle,
            "burn_short": burn(self.burn_short),
            "burn_long": burn(self.burn_long),
        }


#: p99 latency within 100k cycles, <=5% shed, blocked leaks are
#: budgeted at one per thousand offered requests.
DEFAULT_OBJECTIVES = (
    SloObjective("p99-latency", "latency", budget=0.01, target=100_000.0),
    SloObjective("shed-rate", "shed", budget=0.05),
    SloObjective("blocked-leak-rate", "blocked-leak", budget=0.001),
)


class SloWindow:
    """Additive per-window counts.  ``combine`` is the monoid op."""

    __slots__ = ("index", "requests", "shed", "latency_counts",
                 "latency_overflow", "latency_sum", "blocked_leaks")

    def __init__(self, index: int, n_buckets: int):
        self.index = index
        self.requests = 0
        self.shed = 0
        self.latency_counts = [0] * n_buckets
        self.latency_overflow = 0
        self.latency_sum = 0.0
        self.blocked_leaks: dict[int, int] = {}

    def combine(self, other: "SloWindow") -> "SloWindow":
        out = SloWindow(min(self.index, other.index),
                        len(self.latency_counts))
        out.requests = self.requests + other.requests
        out.shed = self.shed + other.shed
        out.latency_counts = [a + b for a, b in
                              zip(self.latency_counts,
                                  other.latency_counts)]
        out.latency_overflow = self.latency_overflow + other.latency_overflow
        out.latency_sum = self.latency_sum + other.latency_sum
        out.blocked_leaks = dict(self.blocked_leaks)
        for ctx, n in other.blocked_leaks.items():
            out.blocked_leaks[ctx] = out.blocked_leaks.get(ctx, 0) + n
        return out

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "shed": self.shed,
            "latency_counts": list(self.latency_counts),
            "latency_overflow": self.latency_overflow,
            "latency_sum": round(self.latency_sum, 6),
            "blocked_leaks": {str(ctx): n for ctx, n in
                              sorted(self.blocked_leaks.items())},
        }

    @classmethod
    def from_dict(cls, index: int, data: dict) -> "SloWindow":
        win = cls(index, len(data["latency_counts"]))
        win.requests = data["requests"]
        win.shed = data["shed"]
        win.latency_counts = list(data["latency_counts"])
        win.latency_overflow = data["latency_overflow"]
        win.latency_sum = data["latency_sum"]
        win.blocked_leaks = {int(ctx): n for ctx, n in
                             data["blocked_leaks"].items()}
        return win

    def latency_quantile(self, q: float, buckets) -> float:
        """Deterministic bucket-upper-bound quantile (inf on overflow)."""
        total = self.requests
        if total == 0:
            return 0.0
        rank = math.ceil(q * total)
        running = 0
        for count, bound in zip(self.latency_counts, buckets):
            running += count
            if running >= rank:
                return bound
        return math.inf


class SloRollup:
    """Windowed serve-signal rollup keyed by simulated-cycle epochs."""

    def __init__(self, window_cycles: float, *,
                 latency_buckets=LATENCY_BUCKETS):
        if not window_cycles > 0.0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = float(window_cycles)
        self.latency_buckets = tuple(float(b) for b in latency_buckets)
        self.windows: dict[int, SloWindow] = {}

    # -- recording ------------------------------------------------------

    def _window(self, cycle: float) -> SloWindow:
        index = int(cycle // self.window_cycles)
        win = self.windows.get(index)
        if win is None:
            win = SloWindow(index, len(self.latency_buckets))
            self.windows[index] = win
        return win

    def record_request(self, cycle: float, latency_cycles: float) -> None:
        """A request completed at ``cycle`` with the given latency."""
        win = self._window(cycle)
        win.requests += 1
        win.latency_sum += latency_cycles
        for i, bound in enumerate(self.latency_buckets):
            if latency_cycles <= bound:
                win.latency_counts[i] += 1
                break
        else:
            win.latency_overflow += 1

    def record_shed(self, cycle: float) -> None:
        self._window(cycle).shed += 1

    def record_blocked_leak(self, cycle: float, context: int) -> None:
        leaks = self._window(cycle).blocked_leaks
        leaks[context] = leaks.get(context, 0) + 1

    def ingest_events(self, events) -> int:
        """Count journal ``blocked-leak`` events into windows."""
        n = 0
        for event in events:
            if event.kind == "blocked-leak":
                self.record_blocked_leak(event.cycle, event.context)
                n += 1
        return n

    # -- evaluation -----------------------------------------------------

    def _errors(self, win: SloWindow, objective: SloObjective,
                context: int) -> tuple[int, int]:
        """(error count, denominator) for one window."""
        if objective.kind == "latency":
            over = win.latency_overflow
            seen_target = False
            for bound, count in zip(self.latency_buckets,
                                    win.latency_counts):
                if seen_target:
                    over += count
                if bound == objective.target:
                    seen_target = True
            if not seen_target:
                raise ValueError(
                    f"latency target {objective.target} is not a bucket "
                    f"bound of {self.latency_buckets}")
            return over, win.requests
        if objective.kind == "shed":
            return win.shed, win.requests + win.shed
        return (win.blocked_leaks.get(context, 0),
                win.requests + win.shed)

    def _contexts(self, objective: SloObjective) -> list[int]:
        if objective.kind != "blocked-leak":
            return [AGGREGATE_CONTEXT]
        contexts = set()
        for win in self.windows.values():
            contexts.update(win.blocked_leaks)
        return sorted(contexts)

    def burn_rate(self, objective: SloObjective, *, context: int,
                  first: int, last: int) -> float:
        """Trailing burn rate over windows ``[first, last]`` inclusive."""
        errors = denom = 0
        empty = SloWindow(0, len(self.latency_buckets))
        for index in range(first, last + 1):
            e, d = self._errors(self.windows.get(index, empty),
                                objective, context)
            errors += e
            denom += d
        if denom == 0:
            return math.inf if errors else 0.0
        return (errors / denom) / objective.budget

    def evaluate(self, objectives=DEFAULT_OBJECTIVES, *,
                 short_windows: int = 1, long_windows: int = 3,
                 threshold: float = 1.0) -> list[SloAlert]:
        """Edge-triggered multi-window burn-rate alerts, in cycle order.

        A pure function of recorded counts: windows are consulted in
        ascending index order and missing windows count as empty, so the
        result is invariant under recording reorder (property-tested).
        """
        if not self.windows:
            return []
        lo = min(self.windows)
        hi = max(self.windows)
        alerts = []
        for objective in objectives:
            for context in self._contexts(objective):
                firing = False
                for index in range(lo, hi + 1):
                    burn_long = self.burn_rate(
                        objective, context=context,
                        first=index - long_windows + 1, last=index)
                    burn_short = self.burn_rate(
                        objective, context=context,
                        first=index - short_windows + 1, last=index)
                    breach = (burn_long >= threshold
                              and burn_short >= threshold)
                    if breach and not firing:
                        alerts.append(SloAlert(
                            objective=objective.name,
                            kind=objective.kind,
                            context=context,
                            window_index=index,
                            cycle=(index + 1) * self.window_cycles,
                            burn_short=burn_short,
                            burn_long=burn_long))
                    firing = breach
        alerts.sort(key=lambda a: (a.cycle, a.objective, a.context))
        return alerts

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict:
        return {
            "meta": {
                "window_cycles": self.window_cycles,
                "latency_buckets": list(self.latency_buckets),
            },
            "windows": {str(index): self.windows[index].as_dict()
                        for index in sorted(self.windows)},
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "SloRollup":
        rollup = cls(snap["meta"]["window_cycles"],
                     latency_buckets=snap["meta"]["latency_buckets"])
        for index, data in snap["windows"].items():
            rollup.windows[int(index)] = SloWindow.from_dict(int(index),
                                                             data)
        return rollup

    def merge(self, other: "SloRollup") -> None:
        if (other.window_cycles != self.window_cycles
                or other.latency_buckets != self.latency_buckets):
            raise ValueError("cannot merge rollups with different "
                             "window geometry")
        for index, win in other.windows.items():
            mine = self.windows.get(index)
            self.windows[index] = win if mine is None \
                else mine.combine(win)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent,
                          separators=(",", ": "))


# ---------------------------------------------------------------------------
# Hooks (no-ops while no rollup is installed)
# ---------------------------------------------------------------------------


def record_request(cycle: float, latency_cycles: float) -> None:
    rollup = INSTRUMENTS.rollup
    if rollup is not None:
        rollup.record_request(cycle, latency_cycles)


def record_shed(cycle: float) -> None:
    rollup = INSTRUMENTS.rollup
    if rollup is not None:
        rollup.record_shed(cycle)
