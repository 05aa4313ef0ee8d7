"""The Perspective enforcement policy (Section 6.2).

For every speculative load the hardware checks, in parallel:

* **ISV**: does the load instruction belong to the context's instruction
  speculation view?  The ISV cache is consulted first; on a miss the load
  is conservatively blocked while the entry refills from the (demand-
  populated) ISV bitmap page.  A context with *no installed ISV* trusts no
  kernel code speculatively -- installing views is what relaxes protection.
* **DSV**: does the target page belong to the context's data speculation
  view?  Same conservative-miss handling through the DSV cache, refilled
  by a DSVMT walk.

A blocked load proceeds at its visibility point; on hits, LRU bits are not
updated until the VP either (handled by the pipeline's squash semantics --
wrong-path blocked loads never touch the cache at all).
"""

from __future__ import annotations

from repro.core.dsvmt import WALK_LATENCY
from repro.core.framework import Perspective
from repro.core.hardware import REFILL_LATENCY, isv_block_of
from repro.obs import events as ev
from repro.reliability.faultplane import DSVMTWalkFault
from repro.cpu.pipeline import LoadDecision, LoadQuery
from repro.defenses.base import CountingPolicy
from repro.defenses.registry import SchemeCapabilities, register_scheme
from repro.kernel.layout import PAGE_SHIFT


class PerspectivePolicy(CountingPolicy):
    """Hardware enforcement of DSVs + ISVs via the view caches."""

    name = "perspective"

    def __init__(self, framework: Perspective,
                 enforce_isv: bool = True,
                 enforce_dsv: bool = True,
                 cfi: bool = True,
                 treat_unknown_as_owned: bool = False) -> None:
        super().__init__()
        self.framework = framework
        self.enforce_isv = enforce_isv
        self.enforce_dsv = enforce_dsv
        #: Perspective builds on SpecCFI-style control-flow integrity
        #: (Section 5.1): without it, speculation could be hijacked into
        #: the middle of an ISV-trusted function, past its bounds checks.
        self.cfi = cfi
        #: Sensitivity knob (Section 9.2, "Unknown Allocations"): when set,
        #: memory outside *every* DSV (boot globals, per-cpu) is allowed
        #: rather than conservatively blocked, isolating the overhead that
        #: unknown allocations contribute.  Insecure; measurement only.
        self.treat_unknown_as_owned = treat_unknown_as_owned
        # Per-context memo of (ISV, bitmap pages): resolved once per view
        # epoch instead of on every speculative load.  Invalidated when
        # the framework installs/replaces any view (framework.view_epoch),
        # so runtime shrinking still takes effect immediately.  Only the
        # *object references* are memoized -- every bitmap query and cache
        # lookup still runs, keeping all measured stats identical.
        self._view_memo: dict[int, tuple] = {}
        self._view_epoch = framework.view_epoch

    def _views_for(self, ctx: int) -> tuple:
        fw = self.framework
        if self._view_epoch != fw.view_epoch:
            self._view_memo.clear()
            self._view_epoch = fw.view_epoch
        views = self._view_memo.get(ctx)
        if views is None:
            views = (fw.isv_for(ctx), fw.isv_pages_for(ctx))
            self._view_memo[ctx] = views
        return views

    def cfi_enabled(self) -> bool:
        return self.cfi

    def check_load(self, query: LoadQuery) -> LoadDecision:
        ctx = query.context_id
        if self.enforce_isv:
            decision = self._check_isv(ctx, query)
            if decision is not None:
                return decision
        if self.enforce_dsv:
            decision = self._check_dsv(ctx, query)
            if decision is not None:
                return decision
        return LoadDecision.ALLOW

    # -- ISV side ---------------------------------------------------------

    def _check_isv(self, ctx: int, query: LoadQuery) -> LoadDecision | None:
        isv, pages = self._views_for(ctx)
        if isv is None:
            # No view installed: nothing is trusted speculatively.
            ev.emit_here("isv-miss", reason="no-view")
            return self.block("isv")
        cache = self.framework.isv_cache
        block_key = isv_block_of(query.inst_va)
        cached = cache.lookup(ctx, block_key)
        if cached is None:
            # Conservative block on miss; refill from the bitmap page.
            ev.emit_here("isv-miss", reason="cache-refill")
            bit = pages.bit_for(query.inst_va)
            cache.fill(ctx, block_key, bit)
            return self.block("isv", extra_latency=REFILL_LATENCY)
        if not cached:
            ev.emit_here("isv-miss", reason="untrusted")
            return self.block("isv")
        return None

    # -- DSV side --------------------------------------------------------

    def _check_dsv(self, ctx: int, query: LoadQuery) -> LoadDecision | None:
        frame = query.load_pa >> PAGE_SHIFT
        registry = self.framework.dsv_registry
        if self.treat_unknown_as_owned \
                and registry.owner_of(frame) is None:
            return None
        cache = self.framework.dsv_cache
        cached = cache.lookup(ctx, frame)
        if cached is None:
            try:
                in_view = registry.dsvmt_for(ctx).lookup(frame)
            except DSVMTWalkFault:
                # Fail closed: a failed walk fences the load and leaves
                # no cache entry -- the next access re-walks.
                return self.block("dsv", extra_latency=WALK_LATENCY)
            if not in_view:
                ev.emit_here("dsv-ownership-miss", reason="walk")
            cache.fill(ctx, frame, in_view)
            return self.block("dsv", extra_latency=WALK_LATENCY)
        if not cached:
            ev.emit_here("dsv-ownership-miss", reason="cached")
            return self.block("dsv")
        return None


def _make_perspective(framework=None, kernel=None):
    """Perspective flavors share one policy class; the flavor lives in
    which ISVs :func:`repro.defenses.registry.arm` installs in the
    framework before building the policy."""
    if framework is None:
        raise ValueError(
            "Perspective schemes need the framework their views live in; "
            "deploy them with repro.defenses.registry.arm")
    return PerspectivePolicy(framework)


_PERSPECTIVE_CAPS = SchemeCapabilities(
    speculative_loads="restricted", transient_fill=True,
    needs_framework=True)

register_scheme(
    "perspective-static", _make_perspective, _PERSPECTIVE_CAPS,
    summary="Perspective with static-analysis ISVs")
register_scheme(
    "perspective", _make_perspective, _PERSPECTIVE_CAPS,
    summary="Perspective with dynamic (traced) ISVs")
register_scheme(
    "perspective++", _make_perspective, _PERSPECTIVE_CAPS,
    summary="dynamic ISVs hardened with scanner findings")
