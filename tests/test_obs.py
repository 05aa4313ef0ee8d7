"""Tests for the deterministic observability plane (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    DEFAULT_CYCLE_BUCKETS,
    INSTRUMENTS,
    Histogram,
    MetricsRegistry,
    collect_env,
    instrumented,
)
from repro.obs import registry as obs_hooks


class TestHistogram:
    def test_observe_buckets_and_overflow(self):
        hist = Histogram(buckets=(10.0, 100.0))
        for value in (5, 50, 500):
            hist.observe(value)
        assert hist.counts == [1, 1]
        assert hist.overflow == 1
        assert hist.n == 3
        assert hist.total == 555

    def test_boundary_is_inclusive(self):
        hist = Histogram(buckets=(10.0, 100.0))
        hist.observe(10.0)
        assert hist.counts == [1, 0]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="not sorted"):
            Histogram(buckets=(100.0, 10.0))

    def test_default_buckets(self):
        assert Histogram().buckets == DEFAULT_CYCLE_BUCKETS


class TestRegistryPrimitives:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.add("x")
        reg.add("x", 4)
        assert reg.counter("x") == 5
        assert reg.counter("absent") == 0

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 2.0)
        assert reg.gauge_value("g") == 2.0

    def test_histogram_buckets_fixed_after_first_observation(self):
        reg = MetricsRegistry()
        reg.observe("h", 5.0, buckets=(10.0, 100.0))
        reg.observe("h", 50.0)  # None buckets: fine
        with pytest.raises(ValueError, match="already registered"):
            reg.observe("h", 5.0, buckets=(1.0, 2.0))

    def test_clear(self):
        reg = MetricsRegistry()
        reg.add("c")
        reg.gauge("g", 1.0)
        reg.observe("h", 1.0)
        with reg.span("s"):
            reg.tick(5.0)
        reg.clear()
        assert reg.snapshot()["counters"] == {}
        assert reg.snapshot()["spans"] == {}


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        reg = MetricsRegistry()
        with reg.span("syscall/read"):
            reg.tick(10.0)
            with reg.span("fn/sys_read"):
                reg.tick(90.0)
        assert reg.span_stats("syscall/read").cycles == 10.0
        assert reg.span_stats("syscall/read/fn/sys_read").cycles == 90.0

    def test_span_total_is_inclusive(self):
        reg = MetricsRegistry()
        with reg.span("a"):
            reg.tick(1.0)
            with reg.span("b"):
                reg.tick(2.0)
            with reg.span("c"):
                reg.tick(4.0)
        assert reg.span_total("a") == 7.0
        assert reg.span_total("a/b") == 2.0

    def test_counts_accumulate_per_entry(self):
        reg = MetricsRegistry()
        for _ in range(3):
            with reg.span("s"):
                pass
        assert reg.span_stats("s").count == 3

    def test_tick_outside_any_span_lands_on_root(self):
        reg = MetricsRegistry()
        reg.tick(5.0)
        assert reg.span_stats("").cycles == 5.0

    def test_span_stack_unwinds_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                with reg.span("inner"):
                    raise RuntimeError("boom")
        with reg.span("after"):
            reg.tick(1.0)
        assert reg.span_stats("after").cycles == 1.0


class TestModuleHooks:
    def test_inactive_hooks_are_noops(self):
        assert INSTRUMENTS.registry is None
        obs_hooks.add("x")
        obs_hooks.gauge("g", 1.0)
        obs_hooks.observe("h", 1.0)
        obs_hooks.tick(1.0)
        with obs_hooks.span("s"):
            pass  # nothing recorded, nothing raised

    def test_observing_scopes_and_restores(self):
        reg = MetricsRegistry()
        with instrumented(registry=reg):
            assert INSTRUMENTS.registry is reg
            obs_hooks.add("hits")
        assert INSTRUMENTS.registry is None
        assert reg.counter("hits") == 1

    def test_observing_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with instrumented(registry=outer):
            with instrumented(registry=inner):
                obs_hooks.add("x")
            obs_hooks.add("x")
        assert inner.counter("x") == 1
        assert outer.counter("x") == 1


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry(meta={"seed": 0})
        reg.add("cache.l1d.hits", 3)
        reg.gauge("slab.utilization", 0.5)
        reg.observe("run_cycles", 42.0, buckets=(10.0, 100.0))
        with reg.span("syscall/read"):
            reg.tick(7.0)
        return reg

    def test_json_is_canonical_and_parseable(self):
        reg = self._populated()
        snap = json.loads(reg.to_json())
        assert snap["counters"]["cache.l1d.hits"] == 3
        assert snap["spans"]["syscall/read"]["cycles"] == 7.0
        # Canonical: re-dumping with sorted keys is a fixpoint.
        assert reg.to_json() == json.dumps(
            snap, sort_keys=True, separators=(",", ":"))

    def test_text_exposition_format(self):
        text = self._populated().to_text()
        assert "# TYPE cache_l1d_hits counter" in text
        assert "cache_l1d_hits 3" in text
        assert "# TYPE slab_utilization gauge" in text
        assert 'run_cycles_bucket{le="100"} 1' in text
        assert 'run_cycles_bucket{le="+Inf"} 1' in text
        assert "run_cycles_sum 42" in text
        assert "span_syscall_read_cycles 7" in text

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        reg.add("b")
        reg.add("a")
        assert list(reg.snapshot()["counters"]) == ["a", "b"]


def _obs_matrix(**params) -> dict:
    from repro.exec.engine import run_experiment
    return run_experiment("obs-matrix", params)


@pytest.fixture(scope="module")
def obs_matrix_snapshot() -> dict:
    """The ``obs-matrix`` grid at its defaults (lebench x unsafe,
    perspective: the committed ``obs_smoke`` matrix), run once."""
    return _obs_matrix()


class TestDeterminism:
    def _run_once(self) -> str:
        return json.dumps(_obs_matrix(schemes=["perspective"]),
                          sort_keys=True)

    def test_two_seeded_runs_are_byte_identical(self):
        assert self._run_once() == self._run_once()

    def test_snapshot_has_expected_sections(self, obs_matrix_snapshot):
        snap = obs_matrix_snapshot
        assert snap["counters"]["pipeline.runs"] > 0
        assert snap["counters"]["driver.syscalls"] > 0
        assert "lebench.unsafe.cache.l1d.hits" in snap["gauges"]
        assert "lebench.unsafe.buddy.allocations" in snap["gauges"]
        # The UNSAFE baseline has no Perspective framework, so only the
        # perspective env publishes view-cache figures.
        assert "lebench.unsafe.viewcache.isv.hits" not in snap["gauges"]
        assert "lebench.perspective.viewcache.isv.hits" in snap["gauges"]
        assert "lebench.perspective.dsvmt.walks" in snap["gauges"]
        assert snap["histograms"]["driver.syscall_cycles"]["count"] > 0

    def test_span_tree_sums_to_syscall_cycles(self, obs_matrix_snapshot):
        reg = MetricsRegistry.from_snapshot(obs_matrix_snapshot)
        spans = obs_matrix_snapshot["spans"]
        # Every span lives under an env node and self-cycles are
        # non-negative, so subtree sums are meaningful inclusive totals.
        total = sum(s["cycles"] for s in spans.values())
        assert all(s["cycles"] >= 0 for s in spans.values())
        assert reg.span_total("env/lebench.unsafe") \
            + reg.span_total("env/lebench.perspective") == \
            pytest.approx(total)


class TestObservabilityIsNeutral:
    def test_breakdown_results_identical_with_and_without(self):
        from repro.exec import run_experiment
        params = {"workloads": ["lebench"], "schemes": ["perspective"],
                  "requests": 6}
        plain = run_experiment("breakdown", {**params, "observe": False})
        observed = run_experiment("breakdown", {**params, "observe": True})
        assert plain.metrics is None
        assert observed.metrics is not None
        assert plain.breakdowns == observed.breakdowns
        assert plain.isv_cache_hit_rate == observed.isv_cache_hit_rate
        assert plain.dsv_cache_hit_rate == observed.dsv_cache_hit_rate

    def test_breakdown_snapshot_carries_env_gauges(self):
        from repro.exec import run_experiment
        exp = run_experiment("breakdown", {"workloads": ["lebench"],
                                           "schemes": ["perspective"],
                                           "requests": 6, "observe": True})
        gauges = exp.metrics["gauges"]
        assert "lebench.perspective.cache.l1d.hits" in gauges
        assert "lebench.perspective.dsvmt.walks" in gauges

    def test_breakdown_payload_unchanged_by_observe(self):
        """Observing adds a ``metrics`` entry to each cell payload (what
        the engine caches and a campaign journals) and changes nothing
        else in it."""
        from repro.exec.engine import EngineConfig, ExperimentEngine
        engine = ExperimentEngine(EngineConfig(use_cache=False))
        params = {"workloads": ["lebench"], "schemes": ["perspective"],
                  "requests": 6}
        _, plain, _ = engine.run_cells("breakdown", params)
        _, observed, _ = engine.run_cells("breakdown",
                                          dict(params, observe=True))
        for key, cell in observed.items():
            assert cell.pop("metrics")["counters"]
        assert observed == plain


class TestMerge:
    def test_merge_combines_all_sections(self):
        a = MetricsRegistry(meta={"shard": 1})
        a.add("c", 2)
        a.gauge("g", 1.0)
        a.observe("h", 5.0, buckets=(10.0, 100.0))
        with a.span("s"):
            a.tick(3.0)
        b = MetricsRegistry(meta={"shard": 2})
        b.add("c", 3)
        b.add("only_b")
        b.gauge("g", 9.0)
        b.observe("h", 500.0, buckets=(10.0, 100.0))
        with b.span("s"):
            b.tick(4.0)
        a.merge(b)
        assert a.counter("c") == 5
        assert a.counter("only_b") == 1
        assert a.gauge_value("g") == 9.0  # merged shard is "later"
        hist = a.histogram("h")
        assert hist.n == 2
        assert hist.overflow == 1
        assert hist.total == 505.0
        assert a.span_stats("s").count == 2
        assert a.span_stats("s").cycles == 7.0
        assert a.meta["shard"] == 2

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1.0, buckets=(10.0,))
        b.observe("h", 1.0, buckets=(20.0,))
        with pytest.raises(ValueError, match="buckets"):
            a.merge(b)

    def test_from_snapshot_roundtrip(self):
        reg = MetricsRegistry(meta={"seed": 3})
        reg.add("c", 2)
        reg.gauge("g", 0.5)
        reg.observe("h", 50.0, buckets=(10.0, 100.0))
        with reg.span("syscall/read"):
            reg.tick(9.0)
        rebuilt = MetricsRegistry.from_snapshot(reg.snapshot())
        assert rebuilt.to_json() == reg.to_json()

    def test_shard_merge_equals_single_registry(self):
        """Campaign shards merged == the same work under one registry."""
        def work(reg, offset):
            reg.add("hits", offset)
            reg.observe("lat", 10.0 * offset)
            with reg.span("experiment/x"):
                reg.tick(float(offset))
        whole = MetricsRegistry()
        for i in (1, 2, 3):
            work(whole, i)
        merged = MetricsRegistry()
        for i in (1, 2, 3):
            shard = MetricsRegistry()
            work(shard, i)
            merged.merge(MetricsRegistry.from_snapshot(shard.snapshot()))
        assert merged.snapshot()["counters"] == \
            whole.snapshot()["counters"]
        assert merged.snapshot()["histograms"] == \
            whole.snapshot()["histograms"]
        assert merged.snapshot()["spans"] == whole.snapshot()["spans"]


class TestNumFormatting:
    """Locks in ``_num`` rendering for awkward values."""

    def test_integral_floats_drop_point(self):
        from repro.obs.registry import _num
        assert _num(3.0) == "3"
        assert _num(-3.0) == "-3"
        assert _num(-0.0) == "0"
        assert _num(7) == "7"

    def test_huge_integral_floats_keep_repr(self):
        from repro.obs.registry import _num
        assert _num(2.0 ** 53) == repr(2.0 ** 53)

    def test_fractional_and_subepsilon_keep_full_precision(self):
        from repro.obs.registry import _num
        assert _num(0.1) == "0.1"
        assert _num(-2.5) == "-2.5"
        assert _num(5e-324) == "5e-324"  # smallest denormal
        assert float(_num(1e-200)) == 1e-200

    def test_nonfinite_follow_prometheus_conventions(self):
        from repro.obs.registry import _num
        assert _num(float("inf")) == "+Inf"
        assert _num(float("-inf")) == "-Inf"
        assert _num(float("nan")) == "NaN"

    def test_text_exposition_with_nonfinite_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("weird.ratio", float("inf"))
        reg.gauge("weird.mean", float("nan"))
        text = reg.to_text()
        assert "weird_ratio +Inf" in text
        assert "weird_mean NaN" in text
        assert "weird_ratio inf" not in text


class TestCollectors:
    def test_collect_env_prefixes(self, kernel):
        reg = MetricsRegistry()
        proc = kernel.create_process("app")
        kernel.syscall(proc, "getpid")
        collect_env(reg, kernel, prefix="w.s")
        gauges = reg.snapshot()["gauges"]
        assert gauges["w.s.kernel.syscalls"] >= 1
        assert "w.s.cache.l1d.hits" in gauges
        assert "w.s.slab.utilization" in gauges
        assert "w.s.tracer.records_dropped" in gauges

    def test_collect_env_unprefixed(self, kernel):
        reg = MetricsRegistry()
        collect_env(reg, kernel)
        assert "buddy.allocations" in reg.snapshot()["gauges"]

    def test_collect_branch_predictor_state(self, kernel):
        from repro.obs import collect_branch_unit
        proc = kernel.create_process("app")
        kernel.syscall(proc, "read", args=(0, 0))
        reg = MetricsRegistry()
        collect_branch_unit(reg, kernel.branch_unit, prefix="w.s")
        gauges = reg.snapshot()["gauges"]
        assert gauges["w.s.branch.cond.entries"] > 0
        assert gauges["w.s.branch.rsb.capacity"] == 16
        assert "w.s.branch.btb.entries" in gauges
        assert "w.s.branch.btb.history_collisions" in gauges
        assert gauges["w.s.branch.cond.taken_biased"] <= \
            gauges["w.s.branch.cond.entries"]

    def test_collect_memsys_state(self, kernel):
        from repro.obs import collect_memsys
        proc = kernel.create_process("app")
        kernel.syscall(proc, "read", args=(0, 0))
        reg = MetricsRegistry()
        collect_memsys(reg, kernel.memory, kernel.pipeline.tlb,
                       prefix="w.s")
        gauges = reg.snapshot()["gauges"]
        assert gauges["w.s.memory.touched_locations"] > 0
        assert gauges["w.s.tlb.hits"] + gauges["w.s.tlb.misses"] > 0
        assert 0.0 <= gauges["w.s.tlb.hit_rate"] <= 1.0
        assert gauges["w.s.tlb.resident"] <= gauges["w.s.tlb.capacity"]

    def test_smoke_snapshot_covers_branch_and_memsys(
            self, obs_matrix_snapshot):
        """The ``obs_smoke`` matrix carries the new collector gauges."""
        snap = obs_matrix_snapshot
        for scheme in ("unsafe", "perspective"):
            assert f"lebench.{scheme}.branch.cond.entries" \
                in snap["gauges"]
            assert f"lebench.{scheme}.tlb.hits" in snap["gauges"]
            assert f"lebench.{scheme}.memory.touched_locations" \
                in snap["gauges"]


class TestCampaignCounters:
    def test_campaign_publishes_attempt_counters(self, tmp_path):
        from repro.reliability.campaign import (
            CampaignConfig, CampaignRunner)
        reg = MetricsRegistry()
        config = CampaignConfig(fast=True, isolate=False,
                                experiments=("surface",))
        with instrumented(registry=reg):
            state = CampaignRunner(tmp_path, config).run()
        assert state.done == {"surface"}
        assert reg.counter("campaign.surface.attempts") == 1
        assert reg.counter("campaign.surface.done") == 1
        assert reg.counter("campaign.surface.retries") == 0
        assert reg.span_stats("experiment/surface").count == 1

    def test_campaign_journal_unchanged_by_observation(self, tmp_path):
        from repro.reliability.campaign import (
            CampaignConfig, CampaignRunner, JOURNAL_NAME)
        config = CampaignConfig(fast=True, isolate=False,
                                experiments=("surface",))
        CampaignRunner(tmp_path / "plain", config).run()
        with instrumented(registry=MetricsRegistry()):
            CampaignRunner(tmp_path / "observed", config).run()
        plain = (tmp_path / "plain" / JOURNAL_NAME).read_text()
        observed = (tmp_path / "observed" / JOURNAL_NAME).read_text()
        assert plain == observed

    def test_campaign_metrics_with_subprocess_isolation(self, tmp_path):
        """An isolated worker's counters reach the caller's registry."""
        from repro.reliability.campaign import (
            CampaignConfig, CampaignRunner)
        reg = MetricsRegistry()
        config = CampaignConfig(fast=True, isolate=True,
                                experiments=("surface",), timeout_s=300.0)
        with instrumented(registry=reg):
            state = CampaignRunner(tmp_path, config).run()
        assert state.done == {"surface"}
        assert reg.counter("pipeline.runs") > 0
        assert reg.counter("campaign.surface.done") == 1


class TestCli:
    """The ``obs_smoke`` snapshot row, rendered from the grid's result
    (``python -m repro.exec snapshot obs_smoke`` writes the same)."""

    def test_smoke_json_deterministic_and_saved(self, obs_matrix_snapshot):
        from pathlib import Path

        from repro.exec.snapshots import SNAPSHOTS
        row = SNAPSHOTS["obs_smoke"]
        rendered = row.to_json(row.resolve(), obs_matrix_snapshot)
        committed = Path(__file__).resolve().parents[1] / row.path
        assert rendered == committed.read_text()
        snap = json.loads(rendered)
        assert snap["meta"]["workloads"] == ["lebench"]
        assert snap["counters"]["pipeline.runs"] > 0

    def test_smoke_text_output(self, obs_matrix_snapshot):
        from repro.exec.snapshots import SNAPSHOTS
        text = SNAPSHOTS["obs_smoke"].to_text(obs_matrix_snapshot)
        assert "# TYPE pipeline_runs counter" in text
