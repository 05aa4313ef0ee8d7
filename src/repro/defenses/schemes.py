"""Baseline and hardware-only defense schemes (Chapter 7's configurations).

* :class:`UnsafePolicy` -- the unprotected baseline ("UNSAFE").
* :class:`FencePolicy` -- delay every speculative load until all prior
  branches resolve ("FENCE"); simplest, slowest (47.5% on LEBench).
* :class:`DelayOnMissPolicy` -- DOM [Sakalis et al., ISCA'19]: speculative
  L1 hits proceed (without touching replacement state); misses wait.
* :class:`STTPolicy` -- Speculative Taint Tracking [Yu et al., MICRO'19]:
  only transmitters whose operands depend on speculatively-accessed data
  are delayed.

These are hardware-only: they need no OS information, which is exactly why
they must be conservative (FENCE/DOM) or complex (STT) -- the trade-off
Perspective's pliable interface escapes.
"""

from __future__ import annotations

from repro.cpu.pipeline import LoadDecision, LoadQuery, SpeculationPolicy
from repro.defenses.base import CountingPolicy
from repro.defenses.registry import SchemeCapabilities, register_scheme


class UnsafePolicy(SpeculationPolicy):
    """No protection: every speculative load proceeds."""

    name = "unsafe"
    #: Opt into the pipeline's passive fast path: check_load is total,
    #: side-effect free, and always ALLOW (see Pipeline.set_policy).
    passive_allow = True

    def check_load(self, query: LoadQuery) -> LoadDecision:
        return LoadDecision.ALLOW


class FencePolicy(CountingPolicy):
    """Delay all speculative loads until prior branches resolve."""

    name = "fence"

    def check_load(self, query: LoadQuery) -> LoadDecision:
        return self.block("fence")


class DelayOnMissPolicy(CountingPolicy):
    """Delay-on-Miss: speculative L1 hits are (invisibly) allowed."""

    name = "dom"

    def check_load(self, query: LoadQuery) -> LoadDecision:
        if query.l1_hit:
            return LoadDecision.ALLOW
        return self.block("dom-miss")

    def dom_lru_freeze(self) -> bool:
        return True


class InvisiSpecPolicy(CountingPolicy):
    """InvisiSpec [Yan et al., MICRO'18]: invisible speculation.

    Speculative loads execute into a speculative buffer -- dependents get
    their data, but the cache hierarchy is untouched until the load
    reaches its visibility point and replays.  Covert-channel transmits
    therefore never materialize; the cost is the replay traffic and the
    loss of speculative cache warming.
    """

    name = "invisispec"

    #: Replay round-trip at the visibility point (validation or reload).
    REPLAY_LATENCY = 10.0
    #: The one decision every speculative load gets.
    DECISION = LoadDecision(True, reason="invisible",
                            extra_latency=REPLAY_LATENCY, invisible=True)

    def check_load(self, query: LoadQuery) -> LoadDecision:
        self.fence_stats.record("invisible")
        return self.DECISION


class STTPolicy(CountingPolicy):
    """Speculative Taint Tracking: delay tainted transmitters only.

    Loads with untainted addresses issue freely; loads whose address
    depends on speculatively-accessed data are delayed, and branches with
    tainted conditions may not resolve early (implicit channels), which is
    where STT's residual overhead on kernel-spinning syscalls comes from.
    """

    name = "stt"

    def check_load(self, query: LoadQuery) -> LoadDecision:
        if query.tainted:
            return self.block("stt-tainted")
        return LoadDecision.ALLOW

    def delays_tainted_branch_resolution(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def _simple(policy_cls):
    """Factory for schemes that need neither framework nor kernel."""
    def make(framework=None, kernel=None):
        return policy_cls()
    return make


register_scheme(
    "unsafe", _simple(UnsafePolicy),
    SchemeCapabilities(speculative_loads="always", transient_fill=True),
    summary="unprotected baseline; every speculative load proceeds")

register_scheme(
    "fence", _simple(FencePolicy),
    SchemeCapabilities(speculative_loads="never", transient_fill=False),
    summary="delay every speculative load until prior branches resolve")

register_scheme(
    "dom", _simple(DelayOnMissPolicy),
    SchemeCapabilities(speculative_loads="restricted",
                       transient_fill=False),
    summary="Delay-on-Miss: L1 hits proceed (LRU frozen), misses wait")

register_scheme(
    "stt", _simple(STTPolicy),
    SchemeCapabilities(speculative_loads="restricted", transient_fill=True,
                       taint_tracking=True),
    summary="Speculative Taint Tracking: delay tainted transmitters only")

register_scheme(
    "invisispec", _simple(InvisiSpecPolicy),
    SchemeCapabilities(speculative_loads="always", transient_fill=False),
    summary="invisible speculation: loads fill a speculative buffer and "
            "replay at the visibility point")
