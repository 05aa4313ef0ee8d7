"""Seeded open-loop arrival process and quantile helpers.

The arrival schedule is a **pure function** of ``(seed, tenants,
requests_per_tenant, mean_interarrival)``:

* each tenant draws its interarrival gaps from its own
  ``random.Random`` seeded with a *string* key (string seeding hashes
  through SHA-512, so schedules do not depend on ``PYTHONHASHSEED`` or
  the process that generates them);
* the merged schedule is sorted by ``(cycle, tenant, seq)`` -- an
  :class:`Arrival`'s own tuple order -- so it is independent of tenant
  iteration order and of how many :mod:`repro.exec` workers later fan
  the sweep out.

Open-loop means arrivals never wait for the server (the paper's client
tools -- ab, memslap, redis-benchmark -- are closed-loop, but open-loop
is the standard stress model for tail-latency work: queues grow when the
server falls behind instead of silently throttling the offered load).
"""

from __future__ import annotations

import heapq
import math
from random import Random
from typing import Iterator, NamedTuple


class Arrival(NamedTuple):
    """One offered request: when, from whom, and its per-tenant index.

    A tuple, so arrivals compare in service order, ``(cycle, tenant,
    seq)``, without a key function.
    """

    cycle: float
    tenant: int
    seq: int


#: Default RNG stream prefix; alternate planes (the adversarial campaign
#: draws one schedule per epoch) pass their own so their schedules never
#: alias the serving sweep's.
DEFAULT_STREAM = "serve:arrival"


def tenant_rng(seed: int, tenant: int,
               stream: str = DEFAULT_STREAM) -> Random:
    """The tenant's private arrival RNG (string-seeded: hash-seed proof)."""
    return Random(f"{stream}:{seed}:tenant:{tenant}")


def tenant_arrivals(seed: int, tenant: int, requests: int,
                    mean_interarrival: float,
                    stream: str = DEFAULT_STREAM) -> Iterator[Arrival]:
    """One tenant's arrivals: exponential gaps, accumulated (a
    generator, so million-request schedules stream in O(1) memory)."""
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be positive")
    draw = tenant_rng(seed, tenant, stream=stream).random
    log = math.log
    cycle = 0.0
    for seq in range(requests):
        # Inline inverse-CDF sampling (rather than rng.expovariate) so
        # the schedule depends only on rng.random()'s documented stream.
        cycle += -mean_interarrival * log(1.0 - draw())
        yield Arrival(cycle, tenant, seq)


def arrival_stream(seed: int, tenants: int, requests_per_tenant: int,
                   mean_interarrival: float,
                   stream: str = DEFAULT_STREAM) -> Iterator[Arrival]:
    """The merged multi-tenant schedule, in deterministic service order.

    The per-tenant streams are already cycle-sorted, so ``heapq.merge``
    on the arrivals' own ``(cycle, tenant, seq)`` order yields the
    stable sort of all arrivals while holding only one pending arrival
    per tenant in memory.
    """
    return heapq.merge(
        *(tenant_arrivals(seed, tenant, requests_per_tenant,
                          mean_interarrival, stream=stream)
          for tenant in range(tenants)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    The conventional definition: the smallest element such that at least
    ``q`` percent of the data is <= it.  ``q=0`` is the minimum,
    ``q=100`` the maximum.  Raises on an empty sample -- a percentile of
    nothing is a bug upstream, not a zero.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q!r} outside [0, 100]")
    ordered = sorted(values)
    # max(1, ...) also covers q=0 and subnormal q where q/100 underflows
    # to 0.0 -- rank 0 would wrap to ordered[-1], the maximum.
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
