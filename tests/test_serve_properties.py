"""Property-based tests (hypothesis) for :mod:`repro.serve`:
percentile math against an independent reference, seed determinism and
order independence of the arrival process, conservation of admitted
requests under backpressure, and the sharding laws (streaming-merge
equivalence, per-tenant streams invariant under shard count, placement
determinism under tenant reorder, cross-shard conservation)."""

from __future__ import annotations

import heapq
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.image import shared_image
from repro.serve import ServeConfig, percentile, run_serve
from repro.serve.arrival import (
    DEFAULT_STREAM,
    Arrival,
    arrival_stream,
    tenant_arrivals,
)
from repro.serve.engine import Placer, static_placement


def reference_percentile(values: list[float], q: float) -> float:
    """Independent nearest-rank reference: the smallest element with at
    least ``q`` percent of the sample at or below it (linear scan, no
    rank arithmetic shared with the implementation)."""
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    n = len(ordered)
    for x in ordered:
        if sum(1 for v in ordered if v <= x) >= q / 100.0 * n - 1e-9:
            return x
    return ordered[-1]


floats = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)


def keyed_merge(seed: int, tenants: int, requests: int, mean: float,
                stream: str):
    """The reference schedule: the per-tenant streams merged on an
    explicit ``(cycle, tenant, seq)`` key function."""
    return heapq.merge(
        *(tenant_arrivals(seed, tenant, requests, mean, stream=stream)
          for tenant in range(tenants)),
        key=lambda a: (a.cycle, a.tenant, a.seq))


#: The serving sweep's stream and the adversarial campaign's per-epoch
#: streams (``campaign:epoch:<n>``).
streams = st.one_of(
    st.just(DEFAULT_STREAM),
    st.integers(min_value=0, max_value=64).map(
        lambda epoch: f"campaign:epoch:{epoch}"))


class TestPercentileProperties:
    @given(st.lists(floats, min_size=1, max_size=60),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, values, q):
        assert percentile(values, q) == reference_percentile(values, q)

    @given(st.lists(floats, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_extremes_and_membership(self, values):
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 100.0) == max(values)
        assert percentile(values, 50.0) in values

    @given(st.lists(floats, min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_q(self, values, q1, q2):
        lo, hi = sorted((q1, q2))
        assert percentile(values, lo) <= percentile(values, hi)


class TestArrivalProperties:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=40),
           st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_seed_deterministic(self, seed, tenants, requests, mean):
        a = list(arrival_stream(seed, tenants, requests, mean))
        b = list(arrival_stream(seed, tenants, requests, mean))
        assert a == b
        assert len(a) == tenants * requests

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=20),
           st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_merge_order_independent(self, seed, tenants, requests, mean):
        # The schedule must equal the sort of the per-tenant streams no
        # matter which order the streams are generated in -- the property
        # that makes repro.exec fan-out worker-count invariant.
        merged = list(arrival_stream(seed, tenants, requests, mean))
        reversed_order = []
        for tenant in reversed(range(tenants)):
            reversed_order.extend(
                tenant_arrivals(seed, tenant, requests, mean))
        reversed_order.sort(key=lambda a: (a.cycle, a.tenant, a.seq))
        assert merged == reversed_order

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=50),
           st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_gaps_strictly_increase(self, seed, requests, mean):
        arr = tenant_arrivals(seed, 0, requests, mean)
        cycles = [a.cycle for a in arr]
        assert all(x < y for x, y in zip(cycles, cycles[1:]))
        assert all(math.isfinite(c) and c > 0 for c in cycles)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=40),
           st.floats(min_value=1.0, max_value=1e6),
           streams)
    @settings(max_examples=150, deadline=None)
    def test_stream_equals_keyed_merge(self, seed, tenants, requests,
                                       mean, stream):
        # The merged schedule is the keyed merge arrival for arrival:
        # same arrivals, same order, same field values.
        got = list(arrival_stream(seed, tenants, requests, mean,
                                  stream=stream))
        want = list(keyed_merge(seed, tenants, requests, mean, stream))
        assert got == want
        assert [(a.cycle, a.tenant, a.seq) for a in got] == \
            [(a.cycle, a.tenant, a.seq) for a in want]
        assert all(type(a) is Arrival for a in got)

    def test_arrival_record(self):
        # The record the engine, the campaign and the traces rely on:
        # keyword construction, field access, value equality, a hash
        # equal to its fields' tuple, the field-naming repr, immutability.
        arr = Arrival(cycle=1.5, tenant=2, seq=3)
        assert (arr.cycle, arr.tenant, arr.seq) == (1.5, 2, 3)
        assert arr == Arrival(cycle=1.5, tenant=2, seq=3)
        assert arr != Arrival(cycle=1.5, tenant=2, seq=4)
        assert arr != Arrival(cycle=1.5, tenant=1, seq=3)
        assert hash(arr) == hash(Arrival(cycle=1.5, tenant=2, seq=3)) \
            == hash((1.5, 2, 3))
        assert len({arr, Arrival(cycle=1.5, tenant=2, seq=3)}) == 1
        assert repr(arr) == "Arrival(cycle=1.5, tenant=2, seq=3)"
        with pytest.raises(AttributeError):
            arr.cycle = 2.0


class TestBackpressureConservation:
    """Engine-level conservation law: every admitted request completes.

    Few examples (each spins up a kernel), but each checks the whole
    accounting chain: arrivals = admitted + shed, admitted = completed,
    one latency sample per completion, shed requests burn no cycles.
    """

    @given(st.integers(min_value=0, max_value=1_000),
           st.integers(min_value=0, max_value=3),
           st.sampled_from([300.0, 900.0, 4_000.0]))
    @settings(max_examples=6, deadline=None)
    def test_admitted_always_complete(self, seed, queue_bound, mean):
        config = ServeConfig(scheme="fence", tenants=2, seed=seed,
                             requests_per_tenant=4,
                             mean_interarrival=mean,
                             queue_bound=queue_bound,
                             profile_requests=1)
        report = run_serve(config, image=shared_image())
        offered = 2 * 4
        assert sum(t.arrivals for t in report.tenants) == offered
        for tenant in report.tenants:
            assert tenant.arrivals == tenant.admitted + tenant.shed
            assert tenant.admitted == tenant.completed
            assert len(tenant.latencies) == tenant.completed
            assert all(lat >= 0 for lat in tenant.latencies)
        # Determinism under the same drawn example, byte-for-byte.
        again = run_serve(config, image=shared_image())
        assert json.dumps(report.as_dict(), sort_keys=True) == \
            json.dumps(again.as_dict(), sort_keys=True)


class TestShardingProperties:
    """The laws the sharded engine's determinism rests on."""

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=30),
           st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_stream_equals_schedule(self, seed, tenants, requests, mean):
        # The O(1)-memory heap merge yields exactly the materialized
        # schedule (every tenant's arrivals, stably sorted) -- the
        # engine may stream without changing a single arrival.
        schedule = [a for tenant in range(tenants)
                    for a in tenant_arrivals(seed, tenant, requests, mean)]
        schedule.sort(key=lambda a: (a.cycle, a.tenant, a.seq))
        assert list(arrival_stream(seed, tenants, requests, mean)) == \
            schedule

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_tenant_stream_invariant_under_shard_count(
            self, seed, tenants, requests, shards, migrate_every):
        # Routing partitions the merged stream: concatenating each
        # tenant's arrivals across shards (in arrival order) recovers
        # that tenant's private stream regardless of the shard count or
        # migration policy.  This is why per-tenant reports cannot
        # depend on how many cores serve them.
        config = ServeConfig(
            scheme="fence", seed=seed, tenants=tenants,
            requests_per_tenant=requests, mean_interarrival=5_000.0,
            shards=shards, placement="least-loaded",
            migrate_every=migrate_every)
        placer = Placer(config)
        routed = {t: [] for t in range(tenants)}
        for arr in arrival_stream(seed, tenants, requests, 5_000.0):
            placer.route(arr)
            routed[arr.tenant].append(arr)
        for tenant in range(tenants):
            assert routed[tenant] == \
                list(tenant_arrivals(seed, tenant, requests, 5_000.0))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=8),
           st.permutations(list(range(10))))
    @settings(max_examples=100, deadline=None)
    def test_static_placement_reorder_invariant(self, seed, shards,
                                                order):
        # Placement is a pure function of (seed, tenant, shards):
        # evaluating tenants in any order gives the same homes, and
        # every home is a valid shard.  (crc32 on a string key, so
        # PYTHONHASHSEED can't perturb it -- the flake-guard CI job
        # re-runs this suite under a different hash seed.)
        forward = {t: static_placement(seed, t, shards)
                   for t in range(10)}
        shuffled = {t: static_placement(seed, t, shards) for t in order}
        assert shuffled == forward
        assert all(0 <= s < shards for s in forward.values())

    @given(st.integers(min_value=0, max_value=1_000),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=5, deadline=None)
    def test_cross_shard_conservation(self, seed, shards, queue_bound,
                                      migrate_every):
        # Offered == admitted + shed, summed across shards, for any
        # shard count, backpressure bound, and migration cadence.
        config = ServeConfig(
            scheme="fence", seed=seed, tenants=2,
            requests_per_tenant=4, mean_interarrival=900.0,
            queue_bound=queue_bound, profile_requests=1,
            shards=shards, placement="least-loaded",
            migrate_every=migrate_every)
        report = run_serve(config, image=shared_image())
        offered = 2 * 4
        assert sum(s.arrivals for s in report.shards) == offered
        assert sum(s.admitted for s in report.shards) + \
            sum(s.shed for s in report.shards) == offered
        assert report.completed == \
            sum(s.admitted for s in report.shards)
