"""Block-JIT parity and miss accounting at the syscall level.

Every scheme replays compiled blocks whether or not predictions are in
flight: a generated load under an unresolved prediction calls the
pipeline's one policy step, so a policy that overrides ``check_load``
(SafeSpec, ConTExT, DOM, STT, the Perspective flavors) is queried
exactly as the interpreter queries it.  Three contracts follow:

* **byte-exactness** -- an ``enable_block_cache`` run is digest- AND
  cycle-identical to the interpreted run (the parity oracle compares
  every key, cycles included).  The conformance corpus runs
  ``CONFORMANCE_SCHEMES``; this module adds the newest schemes and every
  registered scheme the corpus leaves out;
* **accounted misses** -- every function entry the JIT refuses lands in
  a named ``miss_reasons`` bucket, with conservation
  ``sum(miss_reasons.values()) == misses`` (nothing drops on the floor,
  nothing double-counts);
* **allowed loads** -- every form an allow can take replays as it
  interprets, with one identical query per load, and a load the policy
  plainly allows finishes on the block's inline access path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cpu.cache import CacheHierarchy
from repro.cpu.isa import AluOp
from repro.cpu.memsys import MainMemory
from repro.cpu.pipeline import LoadDecision, SpeculationPolicy
from repro.defenses.registry import arm, registered_schemes
from repro.serve.conformance import CONFORMANCE_SCHEMES, check_seed

from test_blockjit_generated import (
    _INPUTS, _TRAIN, Program, boot, deploy, isv_of,
)

NEW_SCHEMES = ("safespec", "context")

#: Registered schemes the conformance corpus does not run (dom, stt,
#: perspective-static, spot-ibpb, spot-nokpti at the time of writing).
UNCOVERED_SCHEMES = tuple(scheme for scheme in registered_schemes()
                          if scheme not in CONFORMANCE_SCHEMES)


class TestCacheParity:
    @pytest.mark.parametrize("scheme", NEW_SCHEMES + UNCOVERED_SCHEMES)
    def test_block_cache_run_identical_to_interpreted(self, scheme, image):
        result = check_seed(0, schemes=("unsafe", scheme), steps=14,
                            tenants=2, image=image, cache_parity=True)
        assert result.ok, result.repro()
        assert set(result.digests) == {"unsafe", scheme}

    def test_parity_holds_for_both_new_schemes_together(self, image):
        result = check_seed(1, schemes=NEW_SCHEMES, steps=14, tenants=2,
                            image=image, cache_parity=True)
        assert result.ok, result.repro()


class TestGuardAccounting:
    @pytest.mark.parametrize("scheme", NEW_SCHEMES)
    def test_refusals_conserved_in_named_buckets(self, scheme,
                                                 uncompilable_counters):
        from repro.cpu.blockcache import MISS_REASONS

        counters = uncompilable_counters(scheme)
        misses = counters["pipeline.blockcache.misses"]
        by_reason = {r: counters.get(f"pipeline.blockcache.miss.{r}", 0)
                     for r in MISS_REASONS}
        assert sum(by_reason.values()) == misses > 0
        unknown = [key for key in counters
                   if key.startswith("pipeline.blockcache.miss.")
                   and key.removeprefix("pipeline.blockcache.miss.")
                   not in MISS_REASONS]
        assert not unknown, f"misses outside the taxonomy: {unknown}"

    @pytest.mark.parametrize("scheme", NEW_SCHEMES)
    def test_attribution_keys_use_registry_metric_label(
            self, scheme, uncompilable_counters):
        """The per-function attribution keys embed the scheme via the
        registry-derived metric label, so a newly registered scheme can
        neither collide with nor silently vanish from the namespace."""
        from repro.defenses.registry import get_scheme

        counters = uncompilable_counters(scheme)
        label = get_scheme(scheme).metric_label
        known = {get_scheme(s).metric_label for s in registered_schemes()}
        attr = [key for key in counters
                if key.startswith("pipeline.blockcache.attr.")]
        assert attr, "block-JIT runs must attribute their misses"
        seen = {key.split(".")[4] for key in attr}
        # Every label must come from the registry, and the scheme under
        # test must show up.
        assert seen <= known, seen - known
        assert label in seen, (label, seen)


class TestEligibility:
    def test_prefetcher_pipeline_interprets(self, image):
        """Generated blocks do not replicate prefetch fills, so a
        prefetcher kernel never arms the cache: with it requested the run
        matches the cache-off run exactly and no BlockCache is built."""
        from repro.kernel.kernel import KernelConfig, MiniKernel
        from repro.workloads.driver import Driver
        from repro.workloads.lebench import exercise_all

        def run(block_cache):
            kernel = MiniKernel(image=image,
                                config=KernelConfig(prefetcher=True))
            kernel.pipeline.config.enable_block_cache = block_cache
            driver = Driver(kernel, kernel.create_process("t"),
                            rare_every=5)
            exercise_all(driver)
            return kernel, driver.stats, kernel.hierarchy.l1d.stats

        on_kernel, *on = run(True)
        _, *off = run(False)
        assert on == off
        assert on[0].kernel_cycles > 0
        assert on_kernel.pipeline._blockcache is None


def _lebench_kernel(image):
    """A fresh ``make_env("lebench", "perspective")`` kernel with the
    block JIT on (the profiling boot itself interprets)."""
    from repro.eval.envs import make_env

    env = make_env("lebench", "perspective", image=image)
    env.kernel.pipeline.config.enable_block_cache = True
    return env


def _suite_state(env, roi) -> dict:
    """What one LEBench suite leaves behind: ROI cycles, architectural
    memory, TLB/L1/L2 counters and the block cache's accounting."""
    kernel = env.kernel
    pipe = kernel.pipeline
    cache = pipe._blockcache
    state = {"roi": roi, "memory": kernel.memory.digest(),
             "tlb": (pipe.tlb.stats.hits, pipe.tlb.stats.misses),
             "blockcache": (cache.hits, cache.misses,
                            dict(sorted(cache.miss_reasons.items())),
                            cache.compiled_functions,
                            cache.compiled_blocks)}
    for name in ("l1i", "l1d", "l2"):
        stats = getattr(pipe.hierarchy, name).stats
        state[name] = (stats.hits, stats.misses, stats.fills,
                       stats.evictions)
    return state


class TestFreshKernelBinding:
    """A kernel booted over an image another kernel already ran binds
    that kernel's compiled regions: the same suite gives the same
    numbers, and binding needs no codegen, block rescan or re-hash."""

    @pytest.fixture(scope="class")
    def first(self, image):
        from repro.workloads.lebench import run_lebench

        env = _lebench_kernel(image)
        return _suite_state(env, run_lebench(env.kernel, env.proc,
                                             rare_every=4))

    def test_second_kernel_matches_first(self, image, first):
        from repro.workloads.lebench import run_lebench

        env = _lebench_kernel(image)
        roi = run_lebench(env.kernel, env.proc, rare_every=4)
        assert _suite_state(env, roi) == first
        assert first["blockcache"][3] > 0

    def test_second_kernel_binds_without_codegen(self, image, first,
                                                 monkeypatch):
        import hashlib

        from repro.cpu import blockcache
        from repro.workloads.lebench import run_lebench

        def refuse(*args, **kwargs):
            raise AssertionError("a cached region was regenerated")

        env = _lebench_kernel(image)
        with monkeypatch.context() as patch:
            for owner, name in ((blockcache, "generate_source"),
                                (blockcache, "block_spans"),
                                (hashlib, "sha256")):
                patch.setattr(owner, name, refuse)
            roi = run_lebench(env.kernel, env.proc, rare_every=4)
        assert _suite_state(env, roi) == first


# ----------------------------------------------------------------------
# Allowed speculative loads
# ----------------------------------------------------------------------

#: Loads that issue under correctly predicted, still-unresolved branches
#: (the trained ``if`` and the loop's back-edge): two lines of one L1D
#: set touched in turn so that recency moves on every trip, a line
#: flushed on every trip so that it misses L1D, and a load whose address
#: depends on a speculatively loaded value.
_SPEC_LOADS = Program(((
    ("load", "r1", "in", 0x1000),
    ("if", ("r0", 64, False), (("load", "r6", "in", 0x240),)),
    ("load", "r2", "in", 0),
    ("load", "r3", "in", 0x1000),
    ("iload", "r4", "r2", "out", 8),
    ("loop", 3, (("load", "r5", "in", 0), ("load", "r3", "in", 0x1000),
                 ("load", "r2", "in", 0x240), ("flush", "in", 0x240),
                 ("alu", "r6", AluOp.ADD, "r6", "r5", 0))),
),))


class _Recording(SpeculationPolicy):
    """Allows every speculative load and records each query."""

    name = "recording"

    def __init__(self) -> None:
        self.queries: list[tuple] = []

    def check_load(self, query):
        self.queries.append(dataclasses.astuple(query))
        return self.decide(query)

    def decide(self, query) -> LoadDecision:
        return LoadDecision.ALLOW


class _FreshAllow(_Recording):
    """An allow equal to ``LoadDecision.ALLOW`` but not the same object."""

    def decide(self, query) -> LoadDecision:
        return LoadDecision(True)


class _SlowAllow(_Recording):
    """An allow that adds latency."""

    def decide(self, query) -> LoadDecision:
        return LoadDecision(True, extra_latency=3.0)


class _FrozenAllow(_Recording):
    """``ALLOW`` under Delay-on-Miss's frozen replacement state."""

    def dom_lru_freeze(self) -> bool:
        return True


def _allowed_state(policy_cls, jit: bool) -> tuple[dict, int]:
    """Run :data:`_SPEC_LOADS` over the corpus inputs under a fresh
    ``policy_cls``: every result, the memory, the TLB/L1D/L2 statistics,
    the L1D sets in recency order and the policy's queries, and the
    block-JIT hits."""
    pipeline, entry, context = deploy(_SPEC_LOADS, "unsafe", jit,
                                      kernel=False)
    policy = policy_cls()
    pipeline.set_policy(policy)
    runs = [dataclasses.asdict(pipeline.run(entry, context(value)))
            for value in _INPUTS]
    h = pipeline.hierarchy
    state = {"runs": runs, "memory": pipeline.memory.digest(),
             "tlb": vars(pipeline.tlb.stats), "l1d": vars(h.l1d.stats),
             "l2": vars(h.l2.stats),
             "l1d_sets": [list(ways) for ways in h.l1d._sets],
             "queries": policy.queries}
    return state, pipeline._blockcache.hits if jit else 0


class TestAllowedSpeculativeLoads:
    """Every way a policy can allow a speculative load gives JIT on ==
    off, and the policy sees one identical query per load either way."""

    @pytest.mark.parametrize("policy_cls", (_Recording, _FreshAllow,
                                            _SlowAllow, _FrozenAllow),
                             ids=("allow", "fresh-allow", "extra-latency",
                                  "lru-freeze"))
    def test_jit_off_equals_on(self, policy_cls):
        off, _ = _allowed_state(policy_cls, jit=False)
        on, hits = _allowed_state(policy_cls, jit=True)
        assert hits > 0
        assert on == off
        committed = sum(run["speculative_loads"] for run in off["runs"])
        transient = sum(run["transient_loads_executed"]
                        for run in off["runs"])
        assert committed > 0
        assert len(off["queries"]) == committed + transient
        # Both L1D outcomes reach the policy.
        assert {query[-1] for query in off["queries"]} == {True, False}


_ALLOWED = Program(((
    ("if", ("r0", 64, False), (("load", "r6", "in", 0x240),)),
    ("load", "r2", "in", 0),
    ("load", "r3", "in", 0x1000),
    ("alu", "r4", AluOp.ADD, "r2", "r3", 0),
),), frozenset({0}))


class TestPerspectiveAllowReplay:
    """A warm compiled block whose speculative loads Perspective allows
    (the function in the context's ISV, the pages in its DSV) replays on
    the block's own access path: the policy is queried, and the load
    needs no hierarchy access, L1D probe or memory read through the
    subsystem models."""

    @staticmethod
    def _kernel(jit: bool):
        k, entry, ctx_id, context = boot(_ALLOWED)
        arm(k, "perspective", views=(isv_of(k, ctx_id, _ALLOWED.trusted),))
        k.pipeline.config.enable_block_cache = jit
        return k.pipeline, entry, context(_TRAIN)

    def test_allowed_load_replays_inline(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an allowed load left its block")

        pipeline, entry, ctx = self._kernel(jit=False)
        for _ in range(3):  # fill the view caches, train the branch
            pipeline.run(entry, ctx)
        expected = pipeline.run(entry, ctx)
        assert expected.speculative_loads > 0
        assert not expected.fenced_loads and not expected.mispredictions

        pipeline, entry, ctx = self._kernel(jit=True)
        for _ in range(3):
            pipeline.run(entry, ctx)
        hits = pipeline._blockcache.hits
        dsv = pipeline.policy.framework.dsv_cache.stats
        dsv_hits = dsv.hits
        with monkeypatch.context() as patch:
            for owner, name in ((CacheHierarchy, "access_data"),
                                (CacheHierarchy, "is_l1d_hit"),
                                (MainMemory, "load")):
                patch.setattr(owner, name, refuse)
            result = pipeline.run(entry, ctx)
        assert result == expected
        assert pipeline._blockcache.hits > hits
        # One query per load, each reaching the DSV check.
        assert dsv.hits - dsv_hits == result.speculative_loads
