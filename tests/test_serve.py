"""The multi-tenant traffic engine (:mod:`repro.serve`): arrival
process, scheduler accounting, admission control, view-switch costing,
fence attribution, grid parity, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.exec import EngineConfig, ExperimentEngine
from repro.exec.grids import run_cell
from repro.obs import EventJournal, MetricsRegistry, instrumented
from repro.serve import (
    ServeConfig,
    arrival_stream,
    percentile,
    run_serve,
)
from repro.serve.arrival import tenant_arrivals
from repro.serve.engine import (
    REQUEST_PROFILES,
    boot_tenants,
    config_from_params,
)
from repro.serve.__main__ import _parse_seeds, main as serve_main


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


#: Small-but-queueing config used across the scheduler tests: fence is
#: the cheapest scheme to arm (no ISV generation), and the short
#: interarrival gap forces requests to overlap.
FAST = dict(scheme="fence", tenants=2, requests_per_tenant=5,
            mean_interarrival=3_000.0, profile_requests=2)


# ---------------------------------------------------------------------------
# Arrival process
# ---------------------------------------------------------------------------


def schedule(*args) -> list:
    return list(arrival_stream(*args))


class TestArrival:
    def test_schedule_sorted_and_deterministic(self):
        a = schedule(7, 3, 10, 1000.0)
        b = schedule(7, 3, 10, 1000.0)
        assert a == b
        assert len(a) == 30
        assert all(x.cycle <= y.cycle for x, y in zip(a, a[1:]))

    def test_seed_changes_schedule(self):
        assert schedule(0, 2, 5, 1000.0) != schedule(1, 2, 5, 1000.0)

    def test_tenants_draw_independent_streams(self):
        t0 = tenant_arrivals(0, 0, 5, 1000.0)
        t1 = tenant_arrivals(0, 1, 5, 1000.0)
        assert [a.cycle for a in t0] != [a.cycle for a in t1]

    def test_per_tenant_streams_are_prefix_stable(self):
        # More requests extend the stream; they never reshuffle it.
        short = list(tenant_arrivals(3, 0, 4, 500.0))
        long = list(tenant_arrivals(3, 0, 9, 500.0))
        assert long[:4] == short

    def test_mean_must_be_positive(self):
        with pytest.raises(ValueError):
            list(tenant_arrivals(0, 0, 3, 0.0))
        with pytest.raises(ValueError, match="mean_interarrival"):
            ServeConfig(mean_interarrival=0.0)

    def test_gaps_are_positive(self):
        arr = tenant_arrivals(11, 2, 50, 200.0)
        cycles = [a.cycle for a in arr]
        assert all(c > 0 for c in cycles)
        assert all(x < y for x, y in zip(cycles, cycles[1:]))


class TestPercentile:
    def test_bounds(self):
        vals = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(vals, 0.0) == 1.0
        assert percentile(vals, 100.0) == 5.0
        assert percentile(vals, 50.0) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class TestEngine:
    def test_run_is_deterministic(self, image):
        cfg = ServeConfig(seed=2, **FAST)
        r1 = run_serve(cfg, image=image)
        r2 = run_serve(cfg, image=image)
        assert canon(r1.as_dict()) == canon(r2.as_dict())

    def test_unbounded_queue_completes_everything(self, image):
        report = run_serve(ServeConfig(seed=0, **FAST), image=image)
        assert report.shed == 0
        assert report.completed == 2 * 5
        for tenant in report.tenants:
            assert tenant.arrivals == tenant.admitted == tenant.completed

    def test_backpressure_sheds_deterministically(self, image):
        cfg = ServeConfig(seed=0, queue_bound=1,
                          **{**FAST, "mean_interarrival": 300.0,
                             "requests_per_tenant": 8})
        r1 = run_serve(cfg, image=image)
        assert r1.shed > 0, "tiny queue under overload must shed"
        r2 = run_serve(cfg, image=image)
        assert canon(r1.as_dict()) == canon(r2.as_dict())

    def test_admitted_requests_never_drop(self, image):
        cfg = ServeConfig(seed=3, queue_bound=2,
                          **{**FAST, "mean_interarrival": 500.0})
        report = run_serve(cfg, image=image)
        for tenant in report.tenants:
            assert tenant.admitted == tenant.completed
            assert tenant.arrivals == tenant.admitted + tenant.shed
            assert len(tenant.latencies) == tenant.completed

    def test_shedding_reduces_tail_latency(self, image):
        overload = {**FAST, "mean_interarrival": 300.0,
                    "requests_per_tenant": 10}
        open_loop = run_serve(ServeConfig(seed=1, **overload), image=image)
        bounded = run_serve(ServeConfig(seed=1, queue_bound=1, **overload),
                            image=image)
        assert bounded.shed > 0
        p99 = percentile(open_loop.all_latencies, 99.0)
        assert percentile(bounded.all_latencies, 99.0) < p99

    def test_context_switches_are_charged(self, image):
        report = run_serve(ServeConfig(seed=0, **FAST), image=image)
        switches = sum(t.switches for t in report.tenants)
        # Interleaved tenants must switch more than once and pay for it.
        assert switches > 1
        assert sum(t.switch_cycles for t in report.tenants) > 0

    def test_single_tenant_switches_once(self, image):
        cfg = ServeConfig(seed=0, **{**FAST, "tenants": 1})
        report = run_serve(cfg, image=image)
        assert sum(t.switches for t in report.tenants) == 1

    def test_fence_attribution_per_tenant(self, image):
        fenced = run_serve(ServeConfig(seed=0, **FAST), image=image)
        for tenant in fenced.tenants:
            assert tenant.fence_stall_cycles > 0
            assert sum(tenant.fenced_loads.values()) > 0
        unsafe = run_serve(
            ServeConfig(seed=0, **{**FAST, "scheme": "unsafe"}),
            image=image)
        for tenant in unsafe.tenants:
            assert tenant.fence_stall_cycles == 0
            assert tenant.fenced_loads == {}

    def test_scheme_ordering_on_total_cycles(self, image):
        def cycles(scheme):
            cfg = ServeConfig(seed=0, **{**FAST, "scheme": scheme})
            report = run_serve(cfg, image=image)
            return sum(t.kernel_cycles for t in report.tenants)
        unsafe, fence = cycles("unsafe"), cycles("fence")
        perspective = cycles("perspective")
        assert unsafe < perspective < fence

    def test_latency_percentiles_monotone(self, image):
        d = run_serve(ServeConfig(seed=4, **FAST), image=image).as_dict()
        assert d["latency_p50"] <= d["latency_p95"] <= d["latency_p99"]
        assert d["throughput_rps"] > 0

    def test_profiles_cycle_across_tenants(self, image):
        cfg = ServeConfig(seed=0, profiles=("httpd", "lebench"),
                          **{k: v for k, v in FAST.items()
                             if k != "tenants"}, tenants=3)
        _, tenants = boot_tenants(cfg, image=image)
        assert [t.profile.name for t in tenants] == \
            ["httpd", "lebench", "httpd"]

    def test_all_profiles_exist(self):
        for name in ("httpd", "nginx", "memcached", "redis", "lebench"):
            assert name in REQUEST_PROFILES

    def test_config_from_params_ignores_extras(self):
        cfg = config_from_params({"scheme": "fence", "tenants": 2,
                                  "profiles": ["httpd"], "observe": True,
                                  "seed": 9})
        assert cfg.scheme == "fence"
        assert cfg.profiles == ("httpd",)
        assert cfg.seed == 9


# ---------------------------------------------------------------------------
# Grid + cells (byte-exact parity through repro.exec)
# ---------------------------------------------------------------------------

GRID_PARAMS = {"seeds": [0], "tenants": [2], "scheme": "fence",
               "requests_per_tenant": 4, "mean_interarrival": 4_000.0,
               "queue_bound": 0, "profile_requests": 2, "observe": True}


class TestServeGrid:
    def test_cell_metrics_snapshot(self):
        cell = run_cell("serve", {**GRID_PARAMS, "seed": 0, "tenants": 2})
        assert "metrics" in cell
        gauges = cell["metrics"]["gauges"]
        assert gauges["serve.cell.s0.t2.completed"] == cell["completed"]
        counters = cell["metrics"]["counters"]
        assert counters["serve.requests.completed"] == cell["completed"]

    def test_parallel_matches_serial_byte_exact(self, tmp_path):
        serial, _ = ExperimentEngine(EngineConfig(
            workers=1, cache_dir=tmp_path / "c1")).run(
                "serve", GRID_PARAMS)
        parallel, report = ExperimentEngine(EngineConfig(
            workers=2, cache_dir=tmp_path / "c2")).run(
                "serve", GRID_PARAMS)
        assert canon(serial) == canon(parallel)

    def test_cache_replay_is_identical(self, tmp_path):
        engine = ExperimentEngine(EngineConfig(
            workers=1, cache_dir=tmp_path / "cache"))
        first, r1 = engine.run("serve", GRID_PARAMS)
        second, r2 = engine.run("serve", GRID_PARAMS)
        assert canon(first) == canon(second)
        assert r1.executed == r1.cells_total
        assert r2.cache_hits == r2.cells_total

    def test_cells_inherit_planes_they_do_not_ask_for(self):
        """At one worker an observed cell runs under its own registry
        and the caller's journal: the helper arms only what the cell's
        params ask for and inherits the rest."""
        outer = MetricsRegistry()
        journal = EventJournal()
        with instrumented(registry=outer, journal=journal):
            result, _ = ExperimentEngine(EngineConfig(
                workers=1, use_cache=False)).run("serve", GRID_PARAMS)
        assert journal.emitted > 0
        assert outer.counter("exec.cells.total") == 1
        assert outer.counter("serve.requests.completed") == 0
        assert result["metrics"]["counters"][
            "serve.requests.completed"] == result["cells"][0]["completed"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestServeCLI:
    def test_parse_seeds(self):
        assert _parse_seeds("3") == [0, 1, 2]
        assert _parse_seeds("4,7") == [4, 7]

    @pytest.mark.parametrize("argv", [
        ["conformance", "--seeds", "0"],
        ["conformance", "--seeds", ","],
        ["conformance", "--steps", "0"],
    ], ids=["seeds-0", "seeds-comma", "steps-0"])
    def test_empty_corpus_rejected(self, argv, capsys):
        """An empty corpus (no seeds, or empty traces) would pass
        vacuously; the conformance CLI refuses it as a usage error."""
        with pytest.raises(SystemExit) as exc:
            serve_main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_conformance_subcommand_ok(self, capsys):
        rc = serve_main(["conformance", "--seeds", "1", "--steps", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed 0: ok" in out
        assert "architecturally conformant" in out

    def test_cache_parity_subcommand_ok(self, capsys):
        rc = serve_main(["conformance", "--cache-parity", "--seeds", "1",
                         "--steps", "8", "--schemes", "unsafe,perspective"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed 0: ok" in out
        assert "byte-identical (cycles included)" in out
