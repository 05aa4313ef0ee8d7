"""Perspective's hardware structures: the ISV and DSV caches (Section 6.2).

Both are 128-entry, 32-set, 4-way set-associative caches located near the
pipeline (Table 7.1).  Entries are tagged with the context id (the ASID
analogue), so context switches need no flush.  On a miss the hardware
conservatively blocks speculation for the querying instruction and refills
the entry; thanks to the small kernel working set both caches hit ~99% of
the time (Section 9.2).

* The **ISV cache** is indexed by instruction VA; an entry caches the ISV
  bits for one aligned block of instructions (one 64-byte line of the ISV
  bitmap page covers 512 instruction slots).
* The **DSV cache** is indexed by data page frame; an entry caches the
  DSVMT leaf bit for one 4 KB page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import OP_SIZE
from repro.obs import events as ev
from repro.obs.instruments import INSTRUMENTS
from repro.reliability.faultplane import fire

#: Instructions covered by one ISV cache entry (64 B of bitmap = 512 bits).
ISV_BLOCK_INSTRUCTIONS = 512
ISV_BLOCK_BYTES = ISV_BLOCK_INSTRUCTIONS * OP_SIZE

#: Cycles to refill a view-cache entry (bitmap line fetch via the TLB path).
REFILL_LATENCY = 20.0


@dataclass
class ViewCacheStats:
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    #: Fault-injected misses: lookups forced to miss by the fault plane.
    injected_misses: int = 0
    #: Fault-injected parity drops: matched entries discarded as stale.
    stale_drops: int = 0
    #: Fault-injected refill aborts: fills dropped before installing.
    refill_faults: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = self.misses = self.fills = self.evictions = 0
        self.injected_misses = self.stale_drops = self.refill_faults = 0

    def as_metrics(self, prefix: str):
        """(name, value) pairs for the observability collectors."""
        yield f"{prefix}.hits", self.hits
        yield f"{prefix}.misses", self.misses
        yield f"{prefix}.fills", self.fills
        yield f"{prefix}.evictions", self.evictions
        yield f"{prefix}.injected_misses", self.injected_misses
        yield f"{prefix}.stale_drops", self.stale_drops
        yield f"{prefix}.refill_faults", self.refill_faults
        yield f"{prefix}.hit_rate", self.hit_rate


class ViewCache:
    """ASID-tagged set-associative cache of view bits.

    Keys are opaque block identifiers (ISV: instruction-VA block; DSV:
    page frame).  The cached payload is the in-view bit for that block
    granule; ``lookup`` returns the cached bit on a hit and ``None`` on a
    miss (caller blocks conservatively and calls ``fill``).

    Two fault points model degraded hardware fail-closed: a *forced miss*
    makes the lookup miss regardless of contents, and a *stale* fault
    models a parity error on the matched entry -- the hardware discards
    the entry and reports a miss rather than serving a possibly-corrupt
    bit.  Either way the caller blocks; a faulted lookup can never permit.
    """

    def __init__(self, name: str, entries: int = 128, ways: int = 4) -> None:
        if entries % ways != 0:
            raise ValueError("entries must divide by ways")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        # Each set: {(asid, key): bit} in recency order, least-recently
        # used first; a hit re-inserts its entry at the end.
        self._sets: list[dict[tuple[int, int], bool]] = [
            {} for _ in range(self.num_sets)]
        self.stats = ViewCacheStats()
        registered = name in ("isv", "dsv")
        self._miss_fault = f"{name}-cache-forced-miss" if registered else None
        self._stale_fault = f"{name}-cache-stale" if registered else None

    def lookup(self, asid: int, key: int) -> bool | None:
        """Cached in-view bit for (asid, key), or None on miss.

        The forced-miss point is drawn on every lookup and the stale
        point only on a match, and only while a fault plane is armed."""
        plane = INSTRUMENTS.faults
        stats = self.stats
        if plane is not None and self._miss_fault is not None \
                and plane.should_fire(self._miss_fault):
            stats.injected_misses += 1
            stats.misses += 1
            return None
        ways = self._sets[key % self.num_sets]
        tag = (asid, key)
        bit = ways.pop(tag, None)
        if bit is None:
            stats.misses += 1
            return None
        if plane is not None and self._stale_fault is not None \
                and plane.should_fire(self._stale_fault):
            # Parity fault on the matched entry: it stays dropped.
            stats.stale_drops += 1
            stats.misses += 1
            return None
        ways[tag] = bit
        stats.hits += 1
        return bit

    def fill(self, asid: int, key: int, bit: bool) -> None:
        if self._miss_fault is not None and fire("view-refill-fault"):
            # The refill aborted (bitmap-line fetch fault).  The querying
            # load was already conservatively blocked on the miss, so the
            # only safe move is to install *nothing*: the next access
            # re-misses and re-pays the refill rather than ever serving a
            # possibly-corrupt view bit.
            self.stats.refill_faults += 1
            ev.emit_here("fault-fallback",
                         reason=f"{self.name}-refill-dropped")
            return
        ways = self._sets[key % self.num_sets]
        tag = (asid, key)
        if tag in ways:
            del ways[tag]
        elif len(ways) >= self.ways:
            del ways[next(iter(ways))]
            self.stats.evictions += 1
        ways[tag] = bit
        self.stats.fills += 1

    def invalidate_asid(self, asid: int) -> int:
        """Drop every entry of one context (used when its view changes);
        returns the number of entries dropped."""
        dropped = 0
        for ways in self._sets:
            stale = [tag for tag in ways if tag[0] == asid]
            for tag in stale:
                del ways[tag]
            dropped += len(stale)
        return dropped

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    def resident(self) -> int:
        return sum(len(ways) for ways in self._sets)


def isv_block_of(inst_va: int) -> int:
    """ISV-cache key for an instruction VA."""
    return inst_va // ISV_BLOCK_BYTES
