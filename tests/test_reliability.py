"""The reliability subsystem: fault plane, fail-closed hooks, invariant
checker, and the resilient campaign runner."""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.core.dsv import DSVRegistry
from repro.core.dsvmt import DSVMT
from repro.core.hardware import ViewCache
from repro.eval.report import SECTIONS, render_campaign_report
from repro.eval.tables import MISSING
from repro.exec import run_experiment
from repro.kernel.buddy import BuddyAllocator, OutOfMemory
from repro.kernel.slab import SlabAllocator
from repro.kernel.tracing import KernelTracer
from repro.obs import INSTRUMENTS, instrumented
from repro.reliability import (
    FAULT_SWEEP,
    CampaignConfig,
    CampaignRunner,
    DSVMTWalkFault,
    FaultPlane,
    FaultSpec,
    InvariantChecker,
    audit_dsv_fail_closed,
    fire,
    smoke_campaign,
)
from repro.reliability.campaign import JOURNAL_NAME


def plane_for(*specs: FaultSpec, seed: int = 0) -> FaultPlane:
    return FaultPlane(seed=seed, specs=specs)


class TestFaultPlane:
    def test_unknown_point_rejected_in_spec(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("no-such-point")

    def test_unknown_point_rejected_at_fire_time(self):
        with instrumented(faults=plane_for(FaultSpec("trace-drop"))):
            with pytest.raises(ValueError, match="unknown fault point"):
                fire("no-such-point")

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plane_for(FaultSpec("trace-drop"), FaultSpec("trace-drop"))

    def test_probability_validated(self):
        with pytest.raises(ValueError, match="not in"):
            FaultSpec("trace-drop", probability=1.5)

    def test_no_plane_means_no_faults(self):
        assert INSTRUMENTS.faults is None
        assert fire("trace-drop") is False

    def test_inject_scopes_and_restores(self):
        plane = plane_for(FaultSpec("trace-drop"))
        with instrumented(faults=plane):
            assert INSTRUMENTS.faults is plane
            assert fire("trace-drop") is True
        assert INSTRUMENTS.faults is None
        with pytest.raises(RuntimeError):
            with instrumented(faults=plane):
                raise RuntimeError("boom")
        assert INSTRUMENTS.faults is None

    def test_nested_inject_restores_outer(self):
        outer = plane_for(FaultSpec("trace-drop"))
        inner = plane_for(FaultSpec("fuzzer-stall"))
        with instrumented(faults=outer):
            with instrumented(faults=inner):
                assert INSTRUMENTS.faults is inner
            assert INSTRUMENTS.faults is outer

    def test_unarmed_point_never_fires(self):
        plane = plane_for(FaultSpec("trace-drop", probability=1.0))
        with instrumented(faults=plane):
            assert not any(fire("fuzzer-stall") for _ in range(50))
            assert plane.fires.get("fuzzer-stall", 0) == 0

    def test_same_seed_same_fire_sequence(self):
        def sequence(seed):
            plane = plane_for(FaultSpec("trace-drop", probability=0.3),
                              FaultSpec("fuzzer-stall", probability=0.7),
                              seed=seed)
            with instrumented(faults=plane):
                return [(fire("trace-drop"), fire("fuzzer-stall"))
                        for _ in range(200)]

        assert sequence(3) == sequence(3)
        assert sequence(3) != sequence(4)

    def test_per_point_rng_streams_are_independent(self):
        """Arming a second point must not shift the first point's draws."""
        def trace_sequence(*extra):
            plane = plane_for(FaultSpec("trace-drop", probability=0.3),
                              *extra, seed=11)
            with instrumented(faults=plane):
                out = []
                for _ in range(200):
                    out.append(fire("trace-drop"))
                    fire("fuzzer-stall")
                return out

        alone = trace_sequence()
        paired = trace_sequence(FaultSpec("fuzzer-stall", probability=0.5))
        assert alone == paired

    def test_max_fires_bounds_firings(self):
        plane = plane_for(FaultSpec("trace-drop", max_fires=3))
        with instrumented(faults=plane):
            fired = sum(fire("trace-drop") for _ in range(10))
        assert fired == 3
        assert plane.fires["trace-drop"] == 3
        assert plane.draws["trace-drop"] == 10

    def test_start_after_skips_early_draws(self):
        plane = plane_for(FaultSpec("trace-drop", start_after=5))
        with instrumented(faults=plane):
            outcomes = [fire("trace-drop") for _ in range(8)]
        assert outcomes == [False] * 5 + [True] * 3

    def test_round_trip_serialization(self):
        plane = plane_for(
            FaultSpec("trace-drop", probability=0.25, max_fires=7,
                      start_after=2),
            FaultSpec("dsvmt-walk-fail"), seed=9)
        clone = FaultPlane.from_dict(plane.to_dict())
        assert clone.seed == plane.seed
        assert clone.specs == plane.specs


class TestFailClosedHooks:
    def test_view_cache_forced_miss_never_serves(self):
        cache = ViewCache("isv", entries=8, ways=2)
        cache.fill(1, 5, True)
        assert cache.lookup(1, 5) is True
        with instrumented(faults=plane_for(
                FaultSpec("isv-cache-forced-miss"))):
            assert cache.lookup(1, 5) is None
        assert cache.stats.injected_misses == 1
        # Fault cleared: the entry itself was untouched.
        assert cache.lookup(1, 5) is True

    def test_view_cache_stale_entry_discarded(self):
        cache = ViewCache("dsv", entries=8, ways=2)
        cache.fill(1, 5, True)
        with instrumented(faults=plane_for(
                FaultSpec("dsv-cache-stale", max_fires=1))):
            assert cache.lookup(1, 5) is None  # parity fault: dropped
            assert cache.lookup(1, 5) is None  # genuinely gone now
        assert cache.stats.stale_drops == 1
        assert cache.resident() == 0

    def test_unregistered_cache_names_have_no_fault_points(self):
        cache = ViewCache("scratch", entries=8, ways=2)
        cache.fill(1, 5, True)
        with instrumented(faults=plane_for(
                FaultSpec("isv-cache-forced-miss"))):
            assert cache.lookup(1, 5) is True

    def test_dsvmt_walk_fault_raises(self):
        dsvmt = DSVMT(context_id=1)
        dsvmt.set_page(42, True)
        with instrumented(faults=plane_for(
                FaultSpec("dsvmt-walk-fail", max_fires=1))):
            with pytest.raises(DSVMTWalkFault):
                dsvmt.lookup(42)
            assert dsvmt.lookup(42) is True
        assert dsvmt.stats.walk_faults == 1

    def test_buddy_alloc_fault_changes_no_state(self):
        buddy = BuddyAllocator(total_frames=64)
        with instrumented(faults=plane_for(
                FaultSpec("buddy-alloc-fail", max_fires=1))):
            with pytest.raises(OutOfMemory, match="injected"):
                buddy.alloc_pages(0, owner=7)
            assert buddy.allocations() == []
            assert buddy.stats.allocations == 0
            # Next attempt (fault exhausted) succeeds normally.
            frame = buddy.alloc_pages(0, owner=7)
        assert buddy.owner_of(frame) == 7
        assert buddy.stats.injected_failures == 1

    def test_slab_retries_absorb_transient_failures(self):
        buddy = BuddyAllocator(total_frames=64)
        slab = SlabAllocator(buddy)
        with instrumented(faults=plane_for(
                FaultSpec("buddy-alloc-fail", max_fires=2))):
            pa = slab.kmalloc(64, owner=1)
        assert pa >= 0
        assert slab.stats.alloc_retries == 2
        assert slab.stats.pages_acquired == 1
        assert buddy.stats.injected_failures == 2

    def test_dropped_assign_leaves_frames_unknown(self):
        registry = DSVRegistry()
        with instrumented(faults=plane_for(
                FaultSpec("dsv-assign-drop", max_fires=1))):
            registry.on_alloc(10, 2, owner=5)   # dropped
            registry.on_alloc(20, 1, owner=5)   # delivered
        assert registry.dropped_assign_events == 1
        assert registry.owner_of(10) is None
        assert registry.owner_of(11) is None
        assert not registry.frame_in_view(10, 5)
        assert registry.owner_of(20) == 5
        # Unknown frames are fenced for everyone -- including the owner --
        # which is the fail-closed side of losing the event.
        assert 10 not in registry.dsvmt_for(5)

    def test_release_events_survive_a_dropped_assign(self):
        """Freeing frames whose assign was dropped must not corrupt the
        registry (the release path is never droppable)."""
        registry = DSVRegistry()
        with instrumented(faults=plane_for(
                FaultSpec("dsv-assign-drop", max_fires=1))):
            registry.on_alloc(10, 2, owner=5)
        registry.on_free(10, 2, owner=5)
        assert registry.owner_of(10) is None
        assert registry.release_events == 1

    def test_trace_drop_only_shrinks_the_profile(self):
        def traced(specs):
            tracer = KernelTracer()
            tracer.start()
            with instrumented(faults=plane_for(*specs, seed=2)):
                for name in ("sys_read", "sys_write", "vfs_read",
                             "vfs_write", "do_filp_open"):
                    tracer.on_function_entry(
                        SimpleNamespace(name=name),
                        SimpleNamespace(context_id=1))
            return tracer, tracer.traced_functions(1)

        _, baseline = traced(())
        tracer, faulted = traced((FaultSpec("trace-drop", max_fires=2),))
        assert tracer.dropped_entries == 2
        assert faulted < baseline


class TestAudit:
    def test_clean_registry_audits_clean(self, kernel):
        from repro.core.framework import Perspective
        framework = Perspective(kernel)
        kernel.create_process("test")
        assert audit_dsv_fail_closed(kernel, framework) == []

    def test_audit_detects_a_stale_owner(self, kernel):
        from repro.core.framework import Perspective
        framework = Perspective(kernel)
        proc = kernel.create_process("test")
        ctx = proc.cgroup.cg_id
        # Forge the one state faults must never produce: an ownership
        # record for frames the allocator never handed to this context.
        framework.dsv_registry.on_alloc(kernel.buddy.total_frames - 4, 2,
                                        owner=ctx)
        problems = audit_dsv_fail_closed(kernel, framework)
        assert any("stale owner" in p for p in problems)


@pytest.mark.faulty
class TestInvariantSweep:
    def test_subset_sweep_all_pass(self):
        checker = InvariantChecker(
            attacks=("spectre-v1-active", "retbleed-passive"),
            schemes=("perspective",))
        subset = tuple(s for s in FAULT_SWEEP
                       if s.name in ("isv-forced-miss", "dsvmt-walk-fail",
                                     "dsv-assign-drop", "trace-drop"))
        matrix = checker.run(subset)
        assert matrix.all_pass, matrix.render()
        rendered = matrix.render()
        assert "FAIL" not in rendered
        assert "dsvmt-walk-fail" in rendered

    def test_verdicts_are_deterministic(self):
        checker = InvariantChecker(attacks=("spectre-v1-active",),
                                   schemes=("perspective",), seed=5)
        scenario = FAULT_SWEEP[3]  # dsvmt-walk-fail
        assert (checker.check_scenario(scenario)
                == checker.check_scenario(scenario))


def _fast_config(**overrides) -> CampaignConfig:
    defaults = dict(
        seed=0, fast=True, experiments=("surface", "security"),
        max_attempts=2, timeout_s=120.0,
        fault=FaultPlane(seed=0, specs=(
            FaultSpec("dsvmt-walk-fail", probability=0.05),
            FaultSpec("trace-drop", probability=0.05),
        )))
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCampaignRunner:
    def test_same_seed_and_faults_give_identical_journals(self, tmp_path):
        """Satellite: seed + fault spec fully determine the journal bytes
        and the experiment payloads."""
        journals = []
        for run in ("a", "b"):
            runner = CampaignRunner(tmp_path / run, _fast_config())
            state = runner.run()
            assert not state.failures
            journals.append(runner.journal_path.read_bytes())
        assert journals[0] == journals[1]

    def test_interrupted_campaign_resumes_without_rerunning(self, tmp_path):
        """Satellite: kill after N experiments, resume from the journal;
        finished experiments never re-execute and the final report matches
        an uninterrupted run."""
        started: list[str] = []
        first = CampaignRunner(tmp_path / "resumable", _fast_config(),
                               on_experiment_start=started.append)
        state = first.run(stop_after=1)
        assert state.interrupted
        assert started == ["surface"]
        assert state.done == {"surface"}

        resumed_runner = CampaignRunner(tmp_path / "resumable",
                                        _fast_config(),
                                        on_experiment_start=started.append)
        resumed = resumed_runner.run()
        assert not resumed.interrupted
        assert started == ["surface", "security"]  # surface not re-run
        assert resumed.done == {"surface", "security"}

        uninterrupted = CampaignRunner(tmp_path / "straight",
                                       _fast_config()).run()
        assert (render_campaign_report(resumed).render()
                == render_campaign_report(uninterrupted).render())

    def test_resume_refuses_a_foreign_journal(self, tmp_path):
        CampaignRunner(tmp_path / "j", _fast_config()).run(stop_after=1)
        other = CampaignRunner(tmp_path / "j", _fast_config(seed=99))
        with pytest.raises(ValueError, match="different campaign"):
            other.load_state()

    def test_failed_experiment_degrades_gracefully(self, tmp_path):
        """A crashing experiment is retried with seeded backoff, recorded
        as failed, and rendered as a placeholder -- the campaign and the
        report both survive."""
        slept: list[float] = []
        config = _fast_config(
            isolate=False, fault=None,
            params={"security": {"no_such_kwarg": True}})
        runner = CampaignRunner(tmp_path / "j", config, sleep=slept.append)
        state = runner.run()
        assert state.done == {"surface"}
        assert "security" in state.failures
        assert "TypeError" in state.failures["security"]
        assert state.attempts["security"] == 2
        assert len(slept) == 1  # max_attempts - 1 backoff sleeps
        rendered = render_campaign_report(state).render()
        assert MISSING in rendered
        assert "failed after 2 attempt(s)" in rendered
        assert "Campaign failure summary" in rendered

    def test_pre_grid_journal_refused(self, tmp_path):
        """A journal from before the runner journaled grid cells holds
        whole-experiment payloads that no grid can assemble: refuse it
        rather than resume into a broken report."""
        config = _fast_config()
        record = {"attempts": 1, "error": None, "event": "experiment",
                  "name": "surface", "retry_delays": [], "status": "done",
                  "payload": {"dynamic_isv_size": {"httpd": 112},
                              "static_isv_size": {"httpd": 280},
                              "total_functions": 2800}}
        journal_dir = tmp_path / "old"
        journal_dir.mkdir()
        (journal_dir / JOURNAL_NAME).write_text("".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            for rec in (config.header(), record)))
        with pytest.raises(ValueError, match="refusing to resume"):
            CampaignRunner(journal_dir, config).load_state()

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiments"):
            CampaignRunner(tmp_path,
                           CampaignConfig(experiments=("nope",)))

    def test_subprocess_isolation_contains_a_hard_crash(self, tmp_path):
        """Worker death (not just an exception) must surface as a recorded
        failure, not kill the campaign."""
        config = _fast_config(
            fault=None, experiments=("security", "surface"),
            params={"security": {"attacks": ["no-such-attack"]}})
        state = CampaignRunner(tmp_path / "j", config,
                               sleep=lambda _s: None).run()
        assert "security" in state.failures
        assert state.done == {"surface"}


#: Every grid of the report's section table, at small parameters, for
#: the campaign and for the direct run that must give the same result.
#: Orders are deliberately not alphabetical.
PAPER_GRIDS = {
    "surface": {"apps": ["lebench", "httpd"]},
    "gadgets": {"apps": ["lebench", "httpd"]},
    "security": {"attacks": ["spectre-v1-active"],
                 "schemes": ["unsafe", "perspective"]},
    "kasper": {"apps": ["httpd"], "n_seeds": 2},
    "lebench": {"schemes": ["unsafe", "fence"]},
    "apps": {"schemes": ["unsafe", "fence"], "apps": ["httpd"],
             "requests": 6},
    "breakdown": {"workloads": ["lebench"], "schemes": ["perspective"],
                  "requests": 6},
    "unknown-allocations": {},
    "slab-sensitivity": {"apps": ["redis"], "requests": 6},
}


def _asdict_json(result) -> str:
    if isinstance(result, list):  # the security matrix's cells
        result = [dataclasses.asdict(cell) for cell in result]
    else:
        result = dataclasses.asdict(result)
    return json.dumps(result, default=bytes.hex)


def test_campaign_results_match_direct_runs(tmp_path):
    """Every paper grid's result, assembled from the journal, renders and
    serializes exactly like a direct ``run_experiment`` -- declared
    order included (a sort_keys journal printed Table 8.1's apps
    alphabetically)."""
    config = CampaignConfig(
        experiments=tuple(PAPER_GRIDS), isolate=False, max_attempts=1,
        params=PAPER_GRIDS)
    assert not CampaignRunner(tmp_path, config).run().failures
    state = CampaignRunner(tmp_path, config).load_state()  # from disk
    for name, params in PAPER_GRIDS.items():
        render = next(s.render for s in SECTIONS if s.grid == name)
        expected = run_experiment(name, params)
        journaled = state.result(name)
        assert render(journaled) == render(expected), name
        assert _asdict_json(journaled) == _asdict_json(expected), name


@pytest.mark.faulty
def test_smoke_campaign_under_fault_storm(tmp_path):
    state, report = smoke_campaign(tmp_path / "journal", seed=0)
    assert not state.failures
    assert state.done == {"surface", "security"}
    assert "Table 8.1" in report
    assert "Security PoC matrix" in report
    assert "All campaign experiments completed." in report
