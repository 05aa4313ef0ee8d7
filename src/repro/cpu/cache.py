"""Set-associative cache models.

These caches track *presence* and *recency* only (no data -- data lives in
:class:`repro.cpu.memsys.MainMemory`).  Presence is what transient-execution
attacks observe: a flush+reload covert channel distinguishes cached from
uncached lines by access latency.

The hierarchy (L1I, L1D, shared L2, DRAM) follows Table 7.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = self.misses = self.fills = self.evictions = self.flushes = 0

    def as_metrics(self, prefix: str) -> Iterator[tuple[str, float]]:
        """(name, value) pairs for the observability collectors."""
        yield f"{prefix}.hits", self.hits
        yield f"{prefix}.misses", self.misses
        yield f"{prefix}.fills", self.fills
        yield f"{prefix}.evictions", self.evictions
        yield f"{prefix}.flushes", self.flushes
        yield f"{prefix}.hit_rate", self.hit_rate


class SetAssociativeCache:
    """A generic N-way set-associative cache with LRU replacement.

    Lines are identified by physical address.  ``touch_lru`` allows callers
    (e.g. the Delay-on-Miss scheme, which must not update replacement state
    for speculative hits) to suppress recency updates.
    """

    def __init__(self, name: str, size_bytes: int, line_bytes: int,
                 ways: int, hit_latency: int) -> None:
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError("cache geometry does not divide evenly")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (line_bytes * ways)
        # Each set is a list of line tags ordered most- to least-recently used.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _index(self, paddr: int) -> tuple[int, int]:
        line = paddr // self.line_bytes
        return line % self.num_sets, line

    def lookup(self, paddr: int, *, touch_lru: bool = True) -> bool:
        """Probe for ``paddr``; returns True on hit.  Counts stats."""
        set_idx, tag = self._index(paddr)
        ways = self._sets[set_idx]
        if tag in ways:
            self.stats.hits += 1
            if touch_lru:
                ways.remove(tag)
                ways.insert(0, tag)
            return True
        self.stats.misses += 1
        return False

    def peek(self, paddr: int) -> bool:
        """Presence check with no stats or LRU side effects."""
        set_idx, tag = self._index(paddr)
        return tag in self._sets[set_idx]

    def fill(self, paddr: int) -> None:
        """Install the line containing ``paddr`` (evicting LRU if needed)."""
        set_idx, tag = self._index(paddr)
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
        elif len(ways) >= self.ways:
            ways.pop()
            self.stats.evictions += 1
        ways.insert(0, tag)
        self.stats.fills += 1

    def flush_line(self, paddr: int) -> bool:
        """Evict the line containing ``paddr``; returns True if present."""
        set_idx, tag = self._index(paddr)
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
            self.stats.flushes += 1
            return True
        return False

    def flush_all(self) -> None:
        for ways in self._sets:
            ways.clear()

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a hierarchy access: where it hit and total latency.

    A hierarchy hands out one shared result per level, so an access
    allocates nothing."""

    level: str  # "l1", "l2", "dram"
    latency: int

    @property
    def l1_hit(self) -> bool:
        return self.level == "l1"


class CacheHierarchy:
    """L1 + shared L2 + DRAM latency model (Table 7.1 parameters).

    One hierarchy instance models a core's private L1s in front of the
    shared L2.  The covert-channel observer and the victim share the same
    hierarchy object, which is what makes cache attacks possible.
    """

    L1I_SIZE = 32 * 1024
    L1D_SIZE = 32 * 1024
    L1I_WAYS = 4
    L1D_WAYS = 8
    LINE = 64
    L1_LATENCY = 2
    L2_SIZE = 2 * 1024 * 1024
    L2_WAYS = 16
    L2_LATENCY = 8
    DRAM_LATENCY = 100  # 50 ns round trip at 2.0 GHz

    def __init__(self, *, prefetcher: bool = False) -> None:
        self.l1i = SetAssociativeCache(
            "l1i", self.L1I_SIZE, self.LINE, self.L1I_WAYS, self.L1_LATENCY)
        self.l1d = SetAssociativeCache(
            "l1d", self.L1D_SIZE, self.LINE, self.L1D_WAYS, self.L1_LATENCY)
        self.l2 = SetAssociativeCache(
            "l2", self.L2_SIZE, self.LINE, self.L2_WAYS, self.L2_LATENCY)
        #: Next-line prefetch on demand misses (Table 7.1's "1 hardware
        #: prefetcher").  Off by default: the calibrated workloads use
        #: either page strides (which it cannot help) or sub-line strides
        #: (which never miss), so enabling it only perturbs attack
        #: tooling; it exists for fidelity experiments.
        self.prefetcher = prefetcher
        self.prefetches = 0
        self._at_l1 = AccessResult("l1", self.L1_LATENCY)
        self._at_l2 = AccessResult("l2", self.L1_LATENCY + self.L2_LATENCY)
        self._at_dram = AccessResult(
            "dram", self.L1_LATENCY + self.L2_LATENCY + self.DRAM_LATENCY)

    def access_data(self, paddr: int, *, fill: bool = True,
                    touch_lru: bool = True) -> AccessResult:
        """Data-side access.  ``fill=False`` models a probe that must not
        perturb cache state (used by attack tooling to measure latency):
        it goes through the stats-free ``peek`` path, so probing neither
        installs lines nor skews the hit/miss counters the breakdown
        experiment reports."""
        if not fill:
            if self.l1d.peek(paddr):
                return self._at_l1
            if self.l2.peek(paddr):
                return self._at_l2
            return self._at_dram
        if self.l1d.lookup(paddr, touch_lru=touch_lru):
            return self._at_l1
        if self.l2.lookup(paddr, touch_lru=touch_lru):
            self.l1d.fill(paddr)
            self._maybe_prefetch(paddr)
            return self._at_l2
        self.l2.fill(paddr)
        self.l1d.fill(paddr)
        self._maybe_prefetch(paddr)
        return self._at_dram

    def _maybe_prefetch(self, paddr: int) -> None:
        if not self.prefetcher:
            return
        next_line = (paddr // self.LINE + 1) * self.LINE
        # A line resident at any level is not prefetched again: re-filling
        # an L2-resident line would inflate both ``fills`` and
        # ``prefetches`` without changing observable presence.
        if self.l1d.peek(next_line) or self.l2.peek(next_line):
            return
        self.l2.fill(next_line)
        self.l1d.fill(next_line)
        self.prefetches += 1

    def access_inst(self, paddr: int) -> AccessResult:
        """Instruction-side access (fetch path)."""
        if self.l1i.lookup(paddr):
            return self._at_l1
        if self.l2.lookup(paddr):
            self.l1i.fill(paddr)
            return self._at_l2
        self.l2.fill(paddr)
        self.l1i.fill(paddr)
        return self._at_dram

    def is_l1d_hit(self, paddr: int) -> bool:
        """Non-perturbing L1D presence check (Delay-on-Miss predicate)."""
        return self.l1d.peek(paddr)

    def probe_latency(self, paddr: int) -> int:
        """Measure access latency without changing cache state.

        This is the reload half of flush+reload: the attacker times an
        access to learn whether the victim touched the line.
        """
        if self.l1d.peek(paddr):
            return self.L1_LATENCY
        if self.l2.peek(paddr):
            return self.L1_LATENCY + self.L2_LATENCY
        return self.L1_LATENCY + self.L2_LATENCY + self.DRAM_LATENCY

    def flush_data(self, paddr: int) -> None:
        """clflush: evict the line from the whole hierarchy.

        x86 clflush invalidates the line from *every* level, including
        the instruction cache -- missing the L1I would let lines survive
        a "whole hierarchy" flush whenever code and data share a line
        (or an attacker probes a fetched address).
        """
        self.l1i.flush_line(paddr)
        self.l1d.flush_line(paddr)
        self.l2.flush_line(paddr)

    def reset_stats(self) -> None:
        self.l1i.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()

    def metrics(self) -> Iterator[tuple[str, float]]:
        """Per-level stats plus prefetch count, for the obs collectors."""
        for level in (self.l1i, self.l1d, self.l2):
            yield from level.stats.as_metrics(f"cache.{level.name}")
            yield f"cache.{level.name}.resident_lines", \
                level.resident_lines()
        yield "cache.prefetches", self.prefetches
