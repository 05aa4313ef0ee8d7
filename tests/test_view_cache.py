"""Pins on Perspective's view caches (:class:`repro.core.hardware.ViewCache`).

Two pins hold the speculative-load check to its observable behaviour:

* a Hypothesis differential test drives ``ViewCache`` and a reference
  model -- each set a list of ``(tag, bit)`` pairs ordered most-recently
  used first, scanned linearly -- through the same operation sequences,
  without a fault plane and under a seeded one, and requires them to
  agree after every step: return values, stats, residency, dropped
  counts and every fault-plane draw and fire;
* an end-to-end pin fixes what one LEBench pass under ``perspective``
  draws, fires and measures under the view-cache rows of
  :data:`repro.reliability.invariants.FAULT_SWEEP`.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hardware import ViewCache, ViewCacheStats
from repro.eval.envs import drive_workload, make_env
from repro.obs import instrumented
from repro.reliability import FAULT_SWEEP, FaultPlane, FaultSpec, fire


class ReferenceViewCache:
    """The view cache as a list of ``(tag, bit)`` pairs per set, most
    recently used first.  The fault points are drawn where
    :class:`ViewCache` draws them: the forced miss on every lookup, the
    stale drop only on a match, the refill fault on every fill of a
    registered cache."""

    def __init__(self, name: str, entries: int, ways: int) -> None:
        self.ways = ways
        self.num_sets = entries // ways
        self._sets: list[list[tuple[tuple[int, int], bool]]] = [
            [] for _ in range(self.num_sets)]
        self.stats = ViewCacheStats()
        registered = name in ("isv", "dsv")
        self._miss_fault = f"{name}-cache-forced-miss" if registered else None
        self._stale_fault = f"{name}-cache-stale" if registered else None

    def lookup(self, asid: int, key: int) -> bool | None:
        if self._miss_fault is not None and fire(self._miss_fault):
            self.stats.injected_misses += 1
            self.stats.misses += 1
            return None
        ways = self._sets[key % self.num_sets]
        tag = (asid, key)
        for i, (entry_tag, bit) in enumerate(ways):
            if entry_tag == tag:
                if self._stale_fault is not None and fire(self._stale_fault):
                    ways.pop(i)
                    self.stats.stale_drops += 1
                    self.stats.misses += 1
                    return None
                self.stats.hits += 1
                if i != 0:
                    ways.insert(0, ways.pop(i))
                return bit
        self.stats.misses += 1
        return None

    def fill(self, asid: int, key: int, bit: bool) -> None:
        if self._miss_fault is not None and fire("view-refill-fault"):
            self.stats.refill_faults += 1
            return
        ways = self._sets[key % self.num_sets]
        tag = (asid, key)
        for i, (entry_tag, _) in enumerate(ways):
            if entry_tag == tag:
                ways.pop(i)
                break
        else:
            if len(ways) >= self.ways:
                ways.pop()
                self.stats.evictions += 1
        ways.insert(0, (tag, bit))
        self.stats.fills += 1

    def invalidate_asid(self, asid: int) -> int:
        dropped = 0
        for ways in self._sets:
            before = len(ways)
            ways[:] = [(tag, bit) for tag, bit in ways if tag[0] != asid]
            dropped += before - len(ways)
        return dropped

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    def resident(self) -> int:
        return sum(len(ways) for ways in self._sets)


_ASIDS = (1, 2)
_KEYS = range(12)
_LOOKUP = st.tuples(st.just("lookup"), st.sampled_from(_ASIDS),
                    st.sampled_from(_KEYS))
_FILL = st.tuples(st.just("fill"), st.sampled_from(_ASIDS),
                  st.sampled_from(_KEYS), st.booleans())
# Lookups and fills dominate and sequences are long, so sets fill up
# and evict between the rarer invalidations and flushes: each set holds
# at most 4 ways, and at 4 sets 6 (asid, key) tags map to each.
_OPS = st.lists(st.one_of(
    _LOOKUP, _FILL, _LOOKUP, _FILL,
    st.tuples(st.just("invalidate_asid"), st.sampled_from(_ASIDS)),
    st.tuples(st.just("flush")),
), min_size=24, max_size=96)
_PROBABILITY = st.floats(min_value=0.0, max_value=1.0,
                         exclude_min=True, exclude_max=True)
_FAULT_POINTS = ("isv-cache-forced-miss", "dsv-cache-forced-miss",
                 "isv-cache-stale", "dsv-cache-stale", "view-refill-fault")


@st.composite
def _fault_specs(draw):
    """A seed and every view-cache fault point at a probability strictly
    between 0 and 1, or None for no plane."""
    if draw(st.booleans()):
        return None
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return seed, tuple(FaultSpec(point, draw(_PROBABILITY))
                       for point in _FAULT_POINTS)


def _plane(faults) -> FaultPlane | None:
    if faults is None:
        return None
    seed, specs = faults
    return FaultPlane(seed=seed, specs=specs)


class TestViewCacheDifferential:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(("isv", "dsv", "scratch")),
           sets=st.integers(min_value=1, max_value=4),
           ways=st.integers(min_value=1, max_value=4),
           faults=_fault_specs(), ops=_OPS)
    def test_matches_reference(self, name, sets, ways, faults, ops):
        cache = ViewCache(name, entries=sets * ways, ways=ways)
        ref = ReferenceViewCache(name, entries=sets * ways, ways=ways)
        plane, ref_plane = _plane(faults), _plane(faults)
        # Then look every entry up, so a difference in what stayed
        # resident shows even when the sequence never probed it.
        probes = [("lookup", asid, key) for asid in _ASIDS for key in _KEYS]
        for step, (kind, *args) in enumerate(ops + probes):
            with instrumented(faults=ref_plane):
                expected = getattr(ref, kind)(*args)
            with instrumented(faults=plane):
                got = getattr(cache, kind)(*args)
            where = f"step {step}: {kind}{tuple(args)}"
            assert got is expected or (
                type(got) is type(expected) and got == expected), where
            assert cache.stats == ref.stats, where
            assert cache.resident() == ref.resident(), where
            if plane is not None:
                assert plane.draws == ref_plane.draws, where
                assert plane.fires == ref_plane.fires, where


def _stats(**counts) -> dict[str, int]:
    return dataclasses.asdict(ViewCacheStats(**counts))


#: One LEBench pass on a fresh ``make_env("lebench", "perspective")``
#: under each view-cache row of FAULT_SWEEP at seed 0.
_PINS = {
    "view-cache-stale": {
        "draws": {"dsv-cache-stale": 2696, "isv-cache-stale": 5543},
        "fires": {"dsv-cache-stale": 1347, "isv-cache-stale": 2819},
        "isv": _stats(hits=2724, misses=2963, fills=2963, evictions=36,
                      stale_drops=2819),
        "dsv": _stats(hits=1349, misses=1368, fills=1368, stale_drops=1347),
        "cycles": 46514.75,
        "fenced": {"dsv": 1704, "isv": 2970},
    },
    "view-refill-fault": {
        "draws": {"view-refill-fault": 314},
        "fires": {"view-refill-fault": 151},
        "isv": _stats(hits=5157, misses=275, fills=142, evictions=34,
                      refill_faults=133),
        "dsv": _stats(hits=5104, misses=39, fills=21, refill_faults=18),
        "cycles": 21191.25,
        "fenced": {"dsv": 1241, "isv": 289},
    },
    "combined-degraded": {
        "draws": {"buddy-alloc-fail": 389, "dsv-assign-drop": 389,
                  "dsv-cache-forced-miss": 4393, "dsv-cache-stale": 3831,
                  "dsvmt-walk-fail": 944, "isv-cache-forced-miss": 5638,
                  "isv-cache-stale": 4934},
        "fires": {"dsv-assign-drop": 40, "dsv-cache-forced-miss": 437,
                  "dsv-cache-stale": 382, "dsvmt-walk-fail": 205,
                  "isv-cache-forced-miss": 575, "isv-cache-stale": 529},
        "isv": _stats(hits=4405, misses=1233, fills=1233, evictions=36,
                      injected_misses=575, stale_drops=529),
        "dsv": _stats(hits=3449, misses=944, fills=739,
                      injected_misses=437, stale_drops=382),
        "cycles": 31843.5,
        "fenced": {"dsv": 1743, "isv": 1245},
    },
}


@pytest.mark.faulty
@pytest.mark.parametrize("scenario", sorted(_PINS))
def test_lebench_fault_plane_pinned(image, scenario):
    specs = {s.name: s.specs for s in FAULT_SWEEP}[scenario]
    env = make_env("lebench", "perspective", image=image)
    plane = FaultPlane(seed=0, specs=specs)
    with instrumented(faults=plane):
        driven, _ = drive_workload(env.kernel, env.proc, "lebench")
    pin = _PINS[scenario]
    assert plane.draws == pin["draws"]
    assert plane.fires == pin["fires"]
    assert dataclasses.asdict(env.framework.isv_cache.stats) == pin["isv"]
    assert dataclasses.asdict(env.framework.dsv_cache.stats) == pin["dsv"]
    assert driven.kernel_cycles == pin["cycles"]
    assert driven.exec.fenced_loads == pin["fenced"]
