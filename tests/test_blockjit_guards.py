"""Block-JIT parity and miss accounting at the syscall level.

Every scheme replays compiled blocks whether or not predictions are in
flight: a generated load under an unresolved prediction calls the
pipeline's one speculative-load method, so a policy that overrides
``check_load`` (SafeSpec, ConTExT, DOM, STT, the Perspective flavors) is
queried exactly as the interpreter queries it.  Two contracts follow:

* **byte-exactness** -- an ``enable_block_cache`` run is digest- AND
  cycle-identical to the interpreted run (the parity oracle compares
  every key, cycles included).  The conformance corpus runs
  ``CONFORMANCE_SCHEMES``; this module adds the newest schemes and every
  registered scheme the corpus leaves out;
* **accounted misses** -- every arrival the JIT hands back to the
  interpreter lands in a named ``miss_reasons`` bucket, with
  conservation ``sum(miss_reasons.values()) == misses`` (nothing drops
  on the floor, nothing double-counts).
"""

from __future__ import annotations

import pytest

from repro.defenses.registry import registered_schemes
from repro.serve.conformance import CONFORMANCE_SCHEMES, check_seed

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
    def test_refusals_conserved_in_named_buckets(self, scheme):
        from repro.cpu.blockcache import MISS_REASONS
        from repro.exec.grids import run_cell

        cell = run_cell("serve", {
            "seed": 0, "tenants": 2, "scheme": scheme,
            "requests_per_tenant": 4, "mean_interarrival": 8_000.0,
            "queue_bound": 0, "block_cache": True, "observe": True})
        counters = cell["metrics"]["counters"]
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
    def test_attribution_keys_use_registry_metric_label(self, scheme):
        """The per-function attribution keys embed the scheme via the
        registry-derived metric label, so a newly registered scheme can
        neither collide with nor silently vanish from the namespace."""
        from repro.defenses.registry import get_scheme
        from repro.exec.grids import run_cell

        cell = run_cell("serve", {
            "seed": 0, "tenants": 2, "scheme": scheme,
            "requests_per_tenant": 4, "mean_interarrival": 8_000.0,
            "queue_bound": 0, "block_cache": True, "observe": True})
        from repro.defenses.registry import registered_schemes
        label = get_scheme(scheme).metric_label
        known = {get_scheme(s).metric_label for s in registered_schemes()}
        attr = [key for key in cell["metrics"]["counters"]
                if key.startswith("pipeline.blockcache.attr.")]
        assert attr, "block-JIT runs must attribute their misses"
        seen = {key.split(".")[4] for key in attr}
        # Boot/warmup runs under the unsafe default before the scheme is
        # installed, so its label may appear too -- but every label must
        # come from the registry, and the scheme under test must show up.
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
