"""Defense-scheme base utilities.

Every scheme implements :class:`repro.cpu.pipeline.SpeculationPolicy`; the
pipeline consults ``check_load`` for each load issued while speculation is
unresolved, and a blocked load waits for its visibility point (Section 6.2).
This module adds a small stats mixin so schemes report fence counts per
source uniformly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.cpu.pipeline import LoadDecision, LoadQuery, SpeculationPolicy


@dataclass
class FenceStats:
    """Per-source fence counters (Table 10.1 aggregates these)."""

    by_reason: dict[str, int] = field(default_factory=dict)

    def record(self, reason: str) -> None:
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_reason.values())

    def reset(self) -> None:
        self.by_reason.clear()


@functools.cache
def _blocked(reason: str, extra_latency: float) -> LoadDecision:
    """The one shared blocking decision per (reason, extra latency)."""
    return LoadDecision(False, reason, extra_latency)


class CountingPolicy(SpeculationPolicy):
    """Base class recording a fence event per blocking decision."""

    def __init__(self) -> None:
        self.fence_stats = FenceStats()

    def block(self, reason: str,
              extra_latency: float = 0.0) -> LoadDecision:
        self.fence_stats.record(reason)
        return _blocked(reason, extra_latency)

    def reset_stats(self) -> None:
        self.fence_stats.reset()


__all__ = ["CountingPolicy", "FenceStats", "LoadDecision", "LoadQuery",
           "SpeculationPolicy"]
