"""Sharded serving (:mod:`repro.serve.engine`, :mod:`repro.serve.shard`):
single-shard outputs pinned to the former single-kernel engine,
event-vs-dense scheduling equivalence against the benchmark's dense
reference loop, placement policies, migration charging, the memoized
service model and its measured error against ``full``, the scale-grid
cells, and the CLI."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
from dataclasses import replace

import pytest

from repro.exec import EngineConfig, ExperimentEngine
from repro.obs import events as ev
from repro.serve.engine import (
    PLACEMENT_POLICIES,
    Placer,
    ServeConfig,
    affinity_placement,
    config_from_params,
    plan_placement,
    run_serve,
    serve_cell,
    static_placement,
)
from repro.serve.shard import (
    ShardedServeConfig,
    histogram_percentile,
    latency_histogram,
    memo_tables_of,
    merge_scale_shards,
    run_serve_sharded,
    scale_shard_cell,
)
from repro.serve.__main__ import main as serve_main


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _load_bench(name: str):
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" \
        / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Small-but-real config reused across the tests: queueing pressure,
#: two profiles, rare paths on.
BASE = dict(scheme="fence", seed=0, tenants=3, requests_per_tenant=5,
            mean_interarrival=3_000.0, profile_requests=2)


# ---------------------------------------------------------------------------
# Config and placement
# ---------------------------------------------------------------------------


class TestConfig:
    def test_validation(self):
        for field, value in [
                ("shards", 0), ("placement", "round-robin"),
                ("service_model", "magic"), ("memo_warmup", 0),
                ("migrate_every", -1), ("memo_period", -1),
                # Each of these used to fail late or not at all: a
                # negative bound shed every arrival, no profiles divided
                # by zero, an unknown profile reached boot, a
                # non-positive mean raised on first iteration, negative
                # requests offered nothing.
                ("queue_bound", -1), ("profiles", ()),
                ("profiles", ("httpd", "gopher")),
                ("mean_interarrival", 0.0), ("mean_interarrival", -5.0),
                ("requests_per_tenant", -1), ("tenants", 0)]:
            with pytest.raises(ValueError, match=field):
                ServeConfig(**{**BASE, field: value})

    def test_as_dict_superset_and_from_params(self):
        # The single-kernel fields come first, unchanged; the shard
        # fields follow; the dict round-trips through the one parser.
        config = ServeConfig(**BASE, shards=2, placement="least-loaded")
        out = config.as_dict()
        assert list(out)[:9] == [
            "scheme", "tenants", "seed", "requests_per_tenant",
            "mean_interarrival", "queue_bound", "profiles", "rare_every",
            "profile_requests"]
        assert out["profiles"] == list(config.profiles)
        assert out["shards"] == 2 and out["placement"] == "least-loaded"
        assert config_from_params({**out, "observe": True}) == config
        # The names the end-to-end benchmark imports stay bound.
        assert ShardedServeConfig is ServeConfig
        assert run_serve_sharded is run_serve

    def test_static_placement_properties(self):
        # Every policy's initial answer is in range and independent of
        # the order tenants are evaluated in; the static policies match
        # their pure functions.
        profiles = ServeConfig(**BASE).profiles
        for policy in PLACEMENT_POLICIES:
            config = ServeConfig(**{**BASE, "tenants": 16}, shards=4,
                                 placement=policy)
            forward = [Placer(config)._initial(t) for t in range(16)]
            placer = Placer(config)
            backward = {t: placer._initial(t) for t in reversed(range(16))}
            assert forward == [backward[t] for t in range(16)], policy
            assert all(0 <= s < 4 for s in forward), policy
            if policy == "hash":
                assert forward == [static_placement(0, t, 4)
                                   for t in range(16)]
            elif policy == "affinity":
                assert forward == [affinity_placement(
                    0, profiles[t % len(profiles)], 4) for t in range(16)]

    def test_plan_covers_tenants(self):
        config = ServeConfig(**BASE, shards=2,
                                    placement="least-loaded",
                                    migrate_every=3)
        members, migrations, loads = plan_placement(config)
        # Members are "tenants that ever run here": a migrating tenant
        # appears on every shard it visits, so assert coverage, not a
        # partition.
        seen = set(t for shard in members for t in shard)
        assert seen == set(range(config.tenants))
        assert sum(loads) == config.tenants * config.requests_per_tenant
        # Replans agree: the placement pre-pass is a pure function.
        again = plan_placement(config)
        assert again[0] == members and again[1] == migrations

    def test_placer_routes_every_arrival(self):
        config = ServeConfig(**BASE, shards=2,
                                    placement="least-loaded",
                                    migrate_every=2)
        placer = Placer(config)
        for arr in config.arrivals():
            shard, migration = placer.route(arr)
            assert 0 <= shard < config.shards
            if migration is not None:
                assert migration.dst == shard
                assert migration.src != migration.dst


# ---------------------------------------------------------------------------
# Single-shard outputs pinned to the former single-kernel engine
# ---------------------------------------------------------------------------

#: The keys of the former single-kernel report, minus ``config``.
LEGACY_KEYS = ("makespan_cycles", "completed", "shed", "throughput_rps",
               "latency_p50", "latency_p95", "latency_p99",
               "kernel_cycles", "switches", "switch_cycles",
               "fence_stall_cycles", "tenants")


def legacy_digest(report) -> str:
    out = report.as_dict()
    return hashlib.sha256(json.dumps(
        {k: v for k, v in out.items() if k in LEGACY_KEYS},
        sort_keys=True).encode()).hexdigest()


class TestSingleShardParity:
    """The digests were measured with the former single-kernel
    ``run_serve`` (identical under PYTHONHASHSEED 0 and 7): the one
    engine at its ``shards=1`` / ``full`` defaults must reproduce them
    byte for byte."""

    def test_full_model_matches_run_serve_byte_exact(self):
        assert legacy_digest(run_serve(ServeConfig(**BASE))) == \
            "ba3faf45712babf8ef88187f461ab899247f59796a55bd3906f97ec455cb9176"

    def test_rare_paths_and_queueing_still_match(self):
        params = dict(BASE, requests_per_tenant=8, rare_every=5,
                      queue_bound=2, mean_interarrival=1_500.0)
        assert legacy_digest(run_serve(ServeConfig(**params))) == \
            "38dc38f7adff88d703082530ecf0b200979fd4d864ea1a60f9d1f7f76adeed40"


# ---------------------------------------------------------------------------
# Event-driven vs dense scheduling (the reference lives in the benchmark)
# ---------------------------------------------------------------------------


class TestEventVsDense:
    bench = _load_bench("bench_serve_scale")

    def dense(self, config, **loop_args) -> dict:
        report, _ = self.bench.timed_serve(
            config, self.bench.serve_dense, block_cache=None, **loop_args)
        return report.as_dict()

    def test_byte_identical_reports(self):
        config = ServeConfig(**BASE, shards=2, placement="least-loaded",
                             migrate_every=4)
        event = run_serve(config).as_dict()
        assert canon(event) == canon(self.dense(config))

    def test_dense_quantum_does_not_matter(self):
        config = ServeConfig(**BASE, shards=2)
        coarse = self.dense(config, quantum=10_000.0)
        fine = self.dense(config, quantum=500.0)
        assert canon(coarse) == canon(fine)


# ---------------------------------------------------------------------------
# Migration charging
# ---------------------------------------------------------------------------


class TestMigrations:
    CONFIG = dict(BASE, requests_per_tenant=8, shards=2,
                  placement="least-loaded", migrate_every=3)

    def test_counters_and_journal(self):
        # Fence emits one event per fenced load (~18k in this config);
        # size the ring so migration events survive to the end.
        journal = ev.EventJournal(capacity=100_000)
        with ev.journaling(journal):
            report = run_serve(ServeConfig(**self.CONFIG))
        out = report.as_dict()
        assert out["migrations"] == len(report.migrations) > 0
        flushes = sum(s.ibpb_flushes for s in report.shards)
        moved = sum(s.migrations_in for s in report.shards)
        assert moved == out["migrations"] == flushes
        assert out["migration_excess_cycles"] >= 0.0
        kinds = [e for e in journal.events()
                 if e.kind == "tenant-migration"]
        assert len(kinds) == out["migrations"]
        assert all("shard" in e.reason for e in kinds)

    def test_static_policies_never_migrate(self):
        for policy in ("hash", "affinity"):
            config = ServeConfig(
                **dict(self.CONFIG, placement=policy))
            report = run_serve(config)
            assert report.as_dict()["migrations"] == 0

    def test_conservation_across_shards(self):
        report = run_serve(ServeConfig(**self.CONFIG))
        offered = self.CONFIG["tenants"] * self.CONFIG[
            "requests_per_tenant"]
        admitted = sum(s.admitted for s in report.shards)
        shed = sum(s.shed for s in report.shards)
        assert admitted + shed == offered
        assert sum(s.arrivals for s in report.shards) == offered


# ---------------------------------------------------------------------------
# Memoized service model
# ---------------------------------------------------------------------------


class TestMemoModel:
    CONFIG = dict(BASE, requests_per_tenant=10, shards=2,
                  service_model="memo", memo_period=6)

    def test_deterministic(self):
        a = run_serve(ServeConfig(**self.CONFIG))
        b = run_serve(ServeConfig(**self.CONFIG))
        assert canon(a.as_dict()) == canon(b.as_dict())

    def test_transplant_is_interpretation_free(self):
        config = ServeConfig(**self.CONFIG)
        warm = run_serve(config)
        replay = run_serve(config,
                                   memo_seed=memo_tables_of(warm))
        out, ref = replay.as_dict(), warm.as_dict()
        assert out["memo_interpreted"] == 0
        assert out["memo_replays"] == out["completed"] + \
            out["switches"]
        for d in [out] + out["shards"]:
            d.pop("memo_replays", None)
            d.pop("memo_interpreted", None)
        for d in [ref] + ref["shards"]:
            d.pop("memo_replays", None)
            d.pop("memo_interpreted", None)
        assert canon(out) == canon(ref)

    def test_replays_preserve_totals(self):
        # Memoization changes *which* dispatches interpret, never the
        # aggregate accounting identities.
        report = run_serve(ServeConfig(**self.CONFIG))
        out = report.as_dict()
        assert out["completed"] + out["shed"] == \
            self.CONFIG["tenants"] * self.CONFIG["requests_per_tenant"]
        assert out["memo_replays"] + out["memo_interpreted"] > 0
        assert out["kernel_cycles"] > 0


class TestMemoFidelity:
    """The memo model's error against the ``full`` ground truth.

    ``docs/serving.md`` tabulates the worst per-tenant relative error
    over tenants {2, 4} x shards {1, 2} x memo_period {6, 24}; two of
    those configs hold ceilings just above their measured errors."""

    SETUP = dict(scheme="perspective", seed=0, placement="least-loaded",
                 migrate_every=6, requests_per_tenant=24,
                 profile_requests=2, mean_interarrival=20_000.0)
    #: (tenants, shards, memo_period) -> ceilings on the worst tenant's
    #: relative error in kernel cycles, p50 and p99 latency (measured:
    #: 12.3%/1.1%/35.0% and 4.1%/1.4%/12.8%).
    CEILINGS = {(2, 1, 24): (0.13, 0.02, 0.36),
                (4, 2, 6): (0.05, 0.02, 0.14)}

    @pytest.mark.parametrize("tenants, shards, period", sorted(CEILINGS))
    def test_error_within_ceiling(self, tenants, shards, period):
        config = ServeConfig(**self.SETUP, tenants=tenants, shards=shards)
        full = run_serve(config, block_cache=True)
        memo = run_serve(replace(config, service_model="memo",
                                 memo_period=period), block_cache=True)
        assert memo.as_dict()["memo_replays"] > 0
        errors = [max(abs(metric(m) - metric(f)) / metric(f)
                      for f, m in zip(full.tenants, memo.tenants))
                  for metric in (lambda t: t.kernel_cycles,
                                 lambda t: t.latency_percentile(50.0),
                                 lambda t: t.latency_percentile(99.0))]
        ceilings = self.CEILINGS[(tenants, shards, period)]
        for name, error, ceiling in zip(("kernel_cycles", "p50", "p99"),
                                        errors, ceilings):
            assert error <= ceiling, (name, error, ceiling)


# ---------------------------------------------------------------------------
# Scale-grid cells and the serve-scale experiment
# ---------------------------------------------------------------------------

SCALE_PARAMS = {"schemes": ["fence"], "tenants": [3], "shards": [1, 2],
                "seed": 0, "requests_per_tenant": 5,
                "mean_interarrival": 3_000.0, "queue_bound": 0,
                "rare_every": 0, "profile_requests": 2,
                "placement": "least-loaded", "migrate_every": 4,
                "service_model": "memo", "memo_warmup": 1,
                "memo_period": 6, "block_cache": True}


class TestScaleGrid:
    def test_cells_merge_to_in_process_run(self):
        shards = 2
        payloads = [scale_shard_cell({
            **{k: v for k, v in SCALE_PARAMS.items()
               if k not in ("schemes", "tenants", "shards")},
            "scheme": "fence", "tenants": 3, "shards": shards,
            "shard": k}) for k in range(shards)]
        merged = merge_scale_shards("fence", 3, shards, payloads)
        direct = run_serve(config_from_params({
            **{k: v for k, v in SCALE_PARAMS.items()
               if k not in ("schemes", "tenants", "shards")},
            "scheme": "fence", "tenants": 3,
            "shards": shards})).as_dict()
        assert merged["completed"] == direct["completed"]
        assert merged["kernel_cycles"] == direct["kernel_cycles"]
        assert merged["makespan_cycles"] == direct["makespan_cycles"]
        assert merged["migrations_in"] == direct["migrations"]
        assert merged["offered"] == \
            merged["completed"] + merged["shed"]

    def test_parallel_matches_serial_byte_exact(self, tmp_path):
        serial, _ = ExperimentEngine(EngineConfig(
            workers=1, cache_dir=tmp_path / "c1")).run(
                "serve-scale", SCALE_PARAMS)
        parallel, _ = ExperimentEngine(EngineConfig(
            workers=2, cache_dir=tmp_path / "c2")).run(
                "serve-scale", SCALE_PARAMS)
        assert canon(serial) == canon(parallel)
        rows = serial["experiments"]
        assert [(r["scheme"], r["tenants"], r["shards"])
                for r in rows] == [("fence", 3, 1), ("fence", 3, 2)]

    def test_serve_cell_accepts_shard_params(self):
        cell = serve_cell({**BASE, "shards": 2,
                           "placement": "least-loaded",
                           "migrate_every": 4}, observe=True)
        assert cell["config"]["shards"] == 2
        assert len(cell["shards"]) == 2
        gauges = cell["metrics"]["gauges"]
        assert gauges["serve.cell.s0.t3.shards"] == 2
        assert "serve.cell.s0.t3.migrations" in gauges


class TestHistogram:
    def test_histogram_percentile_brackets_sample(self):
        lats = [1_500.0, 2_400.0, 9_000.0, 45_000.0, 45_000.0]
        counts = latency_histogram(lats)
        assert sum(counts) == len(lats)
        p99 = histogram_percentile(counts, 99.0)
        assert p99 >= max(lats)

    def test_empty_histogram(self):
        counts = latency_histogram([])
        assert sum(counts) == 0
        assert histogram_percentile(counts, 99.0) == 0.0


class TestScaleCLI:
    def test_scale_smoke_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "scale.json"
        art = tmp_path / "artifacts"
        rc = serve_main(["scale", "--smoke", "--no-cache",
                         "-o", str(out), "--artifacts", str(art)])
        assert rc == 0
        snap = json.loads(out.read_text())
        assert snap["meta"]["plane"] == "repro.serve.scale"
        assert any(k.startswith("serve_scale.") for k in snap["gauges"])
        assert (art / "serve_scale_curves.csv").exists()

    def test_sweep_accepts_shards_flag(self, tmp_path):
        out = tmp_path / "smoke.json"
        rc = serve_main(["--smoke", "--no-cache", "--shards", "1",
                         "-o", str(out)])
        assert rc == 0
        snap = json.loads(out.read_text())
        assert snap["meta"]["shards"] == 1

    def test_sweep_rejects_nonpositive_shards(self, capsys):
        with pytest.raises(SystemExit) as exc:
            serve_main(["--smoke", "--no-cache", "--shards", "0"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err
