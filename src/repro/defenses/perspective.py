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
from repro.core.hardware import ISV_BLOCK_BYTES, REFILL_LATENCY
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
        framework = self.framework
        if self.enforce_isv:
            isv, pages = self._views_for(ctx)
            if isv is None:
                # No view installed: nothing is trusted speculatively.
                return self._untrusted("isv", "isv-miss", "no-view")
            inst_va = query.inst_va
            block_key = inst_va // ISV_BLOCK_BYTES
            cached = framework.isv_cache.lookup(ctx, block_key)
            if cached is None:
                return self._isv_refill(ctx, pages, inst_va, block_key)
            if not cached:
                return self._untrusted("isv", "isv-miss", "untrusted")
        if self.enforce_dsv:
            frame = query.load_pa >> PAGE_SHIFT
            if self.treat_unknown_as_owned \
                    and framework.dsv_registry.owner_of(frame) is None:
                return LoadDecision.ALLOW
            cached = framework.dsv_cache.lookup(ctx, frame)
            if cached is None:
                return self._dsv_walk(ctx, frame)
            if not cached:
                return self._untrusted("dsv", "dsv-ownership-miss",
                                       "cached")
        return LoadDecision.ALLOW

    def _untrusted(self, view: str, event: str, reason: str) -> LoadDecision:
        """Block a load its view does not trust."""
        ev.emit_here(event, reason=reason)
        return self.block(view)

    def _isv_refill(self, ctx: int, pages, inst_va: int,
                    block_key: int) -> LoadDecision:
        """ISV cache miss: block conservatively and refill the entry from
        the bitmap page."""
        ev.emit_here("isv-miss", reason="cache-refill")
        bit = pages.bit_for(inst_va)
        self.framework.isv_cache.fill(ctx, block_key, bit)
        return self.block("isv", extra_latency=REFILL_LATENCY)

    def _dsv_walk(self, ctx: int, frame: int) -> LoadDecision:
        """DSV cache miss: block conservatively and refill the entry with
        a DSVMT walk."""
        try:
            in_view = self.framework.dsv_registry.dsvmt_for(ctx).lookup(frame)
        except DSVMTWalkFault:
            # Fail closed: a failed walk fences the load and leaves
            # no cache entry -- the next access re-walks.
            return self.block("dsv", extra_latency=WALK_LATENCY)
        if not in_view:
            ev.emit_here("dsv-ownership-miss", reason="walk")
        self.framework.dsv_cache.fill(ctx, frame, in_view)
        return self.block("dsv", extra_latency=WALK_LATENCY)


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
