"""Adversarial serving campaigns: attacker tenants under fault storms.

Covers the campaign report (determinism, fail-closed leak accounting,
SLO/recovery columns), the ``campaign`` experiment grid (worker parity,
cached replay, merged metrics sidecar), the ``campaign@instance``
runner integration (interrupted-resume byte identity, pre-upgrade
journal forward compatibility), the adaptive-controller escalation
properties (hypothesis), and the three serve-plane fault points.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.audit import (
    ESCALATION_LADDER,
    AdaptiveIsvController,
    forensic_exclusions,
    harden_isv_from_journal,
)
from repro.core.hardware import ViewCache
from repro.core.views import InstructionSpeculationView
from repro.exec.engine import EngineConfig, ExperimentEngine
from repro.kernel.image import shared_image
from repro.obs import instrumented
from repro.obs.events import EventJournal, SecurityEvent
from repro.reliability.campaign import (
    JOURNAL_NAME,
    CampaignConfig,
    CampaignRunner,
)
from repro.reliability.faultplane import FaultPlane, FaultSpec
from repro.reliability.invariants import FAULT_SWEEP, InvariantChecker
from repro.serve.campaign import CampaignSpec, run_campaign
from repro.serve.engine import ServeConfig, boot_tenants


def report_bytes(report) -> str:
    return json.dumps(report, sort_keys=True)


# Trimmed but complete: one active attacker, a full storm window and two
# post-storm epochs so recovery/SLO columns are populated.
FAST = dict(seed=3, scenario="ibpb-storm", victims=2,
            attackers=("spectre-v1-active",), epochs=5,
            requests_per_epoch=2, profile_requests=2,
            mean_interarrival=8_000.0)


@pytest.fixture(scope="module")
def ibpb_report():
    return run_campaign(CampaignSpec(**FAST))


class TestCampaignReport:
    def test_report_is_deterministic(self, ibpb_report):
        again = run_campaign(CampaignSpec(**FAST))
        assert report_bytes(again) == report_bytes(ibpb_report)

    def test_all_attempted_leaks_blocked(self, ibpb_report):
        leaks = ibpb_report["leaks"]
        assert leaks["attempted_bytes"] > 0
        assert leaks["leaked_bytes"] == 0
        assert leaks["blocked_bytes"] == leaks["attempted_bytes"]
        assert leaks["all_blocked"] is True
        assert ibpb_report["attackers"]
        for attacker in ibpb_report["attackers"]:
            assert attacker["all_blocked"] is True
            assert attacker["leaked_bytes"] == 0
            assert attacker["rounds"] > 0

    def test_secret_stays_planted_and_unread(self, ibpb_report):
        secret = ibpb_report["secret"]
        assert secret["intact"] is True
        assert secret["targets"]
        assert len(secret["digest"]) == 64

    def test_storm_fires_and_is_journaled(self, ibpb_report):
        faults = ibpb_report["faults"]
        assert faults["scenario"] == "ibpb-storm"
        assert faults["total_fires"] > 0
        assert faults["ibpb_fault_flushes"] == \
            faults["fires"]["serve-ibpb-drop"]
        # The journal is a bounded flight-recorder ring, so only the
        # most recent window is retained -- but a storm must leave at
        # least one forensic fallback trace in it.
        by_kind = ibpb_report["journal"]["by_kind"]
        assert by_kind.get("fault-fallback", 0) >= 1

    def test_slo_and_recovery_columns(self, ibpb_report):
        slo = ibpb_report["slo"]
        assert slo["baseline_p99"] > 0
        assert slo["threshold_p99"] == pytest.approx(
            slo["baseline_p99"] * slo["slo_factor"])
        assert slo["storm_onset_cycle"] is not None
        if slo["recovered_epoch"] is not None:
            assert slo["recovery_cycles"] >= 0

    def test_escalation_steps_carry_slo_impact(self, ibpb_report):
        steps = ibpb_report["escalation_steps"]
        assert steps, "campaign produced no escalations to report"
        for step in steps:
            assert {"p99_before", "p99_after", "slo_delta"} <= step.keys()
        assert any(t["escalations"] > 0 for t in ibpb_report["tenants"])
        for row in (ibpb_report["tenants"] + ibpb_report["attackers"]):
            assert row["flavor_final"] in ESCALATION_LADDER

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(scenario="blizzard")
        with pytest.raises(ValueError):
            CampaignSpec(start_flavor="ultra")
        with pytest.raises(ValueError):
            CampaignSpec(secret_hex="zz")
        with pytest.raises(ValueError):
            CampaignSpec(epochs=0)


# ---------------------------------------------------------------------------
# The "campaign" experiment grid (repro.exec)
# ---------------------------------------------------------------------------


GRID_PARAMS = {
    "seeds": [0], "scenarios": ["none", "admission-storm"],
    "observe": True, "epochs": 4, "requests_per_epoch": 2,
    "profile_requests": 2, "attackers": ["spectre-v1-active"],
}


class TestCampaignGrid:
    def test_worker_parity_including_merged_metrics(self, tmp_path):
        one, _ = ExperimentEngine(EngineConfig(
            workers=1, cache_dir=tmp_path / "c1")).run("campaign", GRID_PARAMS)
        two, _ = ExperimentEngine(EngineConfig(
            workers=2, cache_dir=tmp_path / "c2")).run("campaign", GRID_PARAMS)
        assert report_bytes(one) == report_bytes(two)
        # The merged metrics sidecar -- not just the cells -- must be
        # worker-count invariant (per-cell registries merge in declared
        # cell order during assembly).
        assert one["metrics"] == two["metrics"]

    def test_cached_replay_is_byte_identical(self, tmp_path):
        params = dict(GRID_PARAMS, scenarios=["none"], epochs=3)
        engine = ExperimentEngine(EngineConfig(cache_dir=tmp_path / "cache"))
        first, fresh = engine.run("campaign", params)
        again, cached = engine.run("campaign", params)
        assert fresh.executed == 1 and fresh.cache_hits == 0
        assert cached.executed == 0 and cached.cache_hits == 1
        assert report_bytes(first) == report_bytes(again)


# ---------------------------------------------------------------------------
# campaign@instance integration with the reliability runner
# ---------------------------------------------------------------------------


TRIM = {"epochs": 3, "requests_per_epoch": 2, "profile_requests": 2,
        "attackers": ["spectre-v1-active"], "observe": True}


def _serve_campaign_config(**overrides) -> CampaignConfig:
    instances = ("campaign@s0.none", "campaign@s0.ibpb-storm")
    defaults = dict(
        seed=0, experiments=instances,
        params={
            instances[0]: dict(TRIM, seeds=[0], scenarios=["none"]),
            instances[1]: dict(TRIM, seeds=[0], scenarios=["ibpb-storm"]),
        },
        max_attempts=2, timeout_s=300.0, backoff_base_s=0.01)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestServeCampaignRunner:
    def test_interrupted_resume_matches_uninterrupted(self, tmp_path):
        interrupted = CampaignRunner(tmp_path / "a",
                                     _serve_campaign_config())
        state = interrupted.run(stop_after=1)
        assert state.interrupted and len(state.done) == 1
        resumed = CampaignRunner(tmp_path / "a",
                                 _serve_campaign_config()).run()
        straight = CampaignRunner(tmp_path / "b",
                                  _serve_campaign_config()).run()
        assert resumed.payloads == straight.payloads
        assert ((tmp_path / "a" / JOURNAL_NAME).read_text()
                == (tmp_path / "b" / JOURNAL_NAME).read_text())

    def test_pre_upgrade_journal_resumes(self, tmp_path):
        """Satellite: a journal from before the runner grew new header
        knobs and per-record retry bookkeeping must still resume."""
        config = _serve_campaign_config()
        header = {k: v for k, v in config.header().items()
                  if k not in ("fault", "max_attempts")}
        done = config.experiments[0]
        payload = {"params": config.params[done],
                   "cells": [[["0", "none"], {"completed": 1}]]}
        record = {"event": "experiment", "name": done, "status": "done",
                  "payload": payload}  # no attempts/retry_delays/error
        journal_dir = tmp_path / "old"
        journal_dir.mkdir()
        lines = [json.dumps(rec, sort_keys=True, separators=(",", ":"))
                 for rec in (header, record)]
        (journal_dir / JOURNAL_NAME).write_text("\n".join(lines) + "\n")

        runner = CampaignRunner(journal_dir, config)
        state = runner.load_state()
        assert done in state.done
        assert state.attempts[done] == 1  # RECORD_DEFAULTS filled in
        final = runner.run()
        assert final.done == set(config.experiments)
        # The checkpointed record was honoured, never re-run.
        assert final.payloads[done] == payload

    def test_stored_only_header_key_refuses_resume(self, tmp_path):
        config = _serve_campaign_config()
        header = dict(config.header(), legacy_knob=True)
        journal_dir = tmp_path / "foreign"
        journal_dir.mkdir()
        (journal_dir / JOURNAL_NAME).write_text(
            json.dumps(header, sort_keys=True, separators=(",", ":"))
            + "\n")
        with pytest.raises(ValueError, match="different campaign"):
            CampaignRunner(journal_dir, config).load_state()

    def test_duplicate_instances_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignRunner(tmp_path / "dup", _serve_campaign_config(
                experiments=("campaign@x", "campaign@x")))

    def test_unknown_instance_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            CampaignRunner(tmp_path / "bad", CampaignConfig(
                experiments=("no-such-spec@s0",)))


# ---------------------------------------------------------------------------
# Adaptive escalation properties (hypothesis)
# ---------------------------------------------------------------------------


FN_NAMES = ("alpha", "beta", "gamma", "delta", "")

EVENTS = st.builds(
    SecurityEvent,
    seq=st.integers(0, 999),
    cycle=st.floats(0, 1e6, allow_nan=False),
    context=st.integers(0, 2),
    pc=st.just(0),
    kernel_fn=st.sampled_from(FN_NAMES),
    kind=st.sampled_from(("blocked-leak", "isv-miss", "fault-fallback")),
    reason=st.just(""),
    scheme=st.just("perspective"))


def _journal_of(events) -> EventJournal:
    journal = EventJournal(capacity=4096)
    for e in events:
        journal.emit(e.kind, context=e.context, kernel_fn=e.kernel_fn)
    return journal


class TestForensicHardeningProperties:
    @given(events=st.lists(EVENTS, max_size=40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exclusions_invariant_under_reordering(self, events, data):
        permuted = data.draw(st.permutations(events))
        assert (forensic_exclusions(_journal_of(events))
                == forensic_exclusions(_journal_of(permuted)))

    @given(events=st.lists(EVENTS, max_size=40),
           min_events=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_min_events_is_monotone(self, events, min_events):
        journal = _journal_of(events)
        stricter = forensic_exclusions(journal, min_events=min_events + 1)
        assert stricter <= forensic_exclusions(journal,
                                               min_events=min_events)

    @given(events=st.lists(EVENTS, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_hardened_view_shrinks_and_blocks_implicated(self, events):
        layout = shared_image().layout
        names = frozenset(sorted(layout.names())[:8])
        isv = InstructionSpeculationView(1, names, layout)
        journal = _journal_of(events)
        outcome = harden_isv_from_journal(isv, journal)
        assert outcome.hardened.functions <= isv.functions
        assert not (outcome.hardened.functions
                    & forensic_exclusions(journal))


class TestControllerProperties:
    @given(batches=st.lists(st.lists(EVENTS, max_size=6), max_size=8),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_history_invariant_under_epoch_reordering(self, batches, data):
        """Escalation decisions depend on evidence content, never on the
        order events landed in the journal slice."""
        permuted = [data.draw(st.permutations(b)) for b in batches]
        first = AdaptiveIsvController(context=1, probe_after_clean=1,
                                      seed=5)
        second = AdaptiveIsvController(context=1, probe_after_clean=1,
                                       seed=5)
        for batch in batches:
            first.observe(batch)
        for batch in permuted:
            second.observe(batch)
        assert first.history == second.history
        assert first.exclusions == second.exclusions
        assert first.flavor == second.flavor

    @given(batches=st.lists(st.lists(EVENTS, max_size=6), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_deescalation_never_reopens_a_blocked_leak(self, batches):
        controller = AdaptiveIsvController(context=1, probe_after_clean=1,
                                           seed=0)
        base = frozenset(fn for fn in FN_NAMES if fn)
        for batch in batches:
            before = controller.exclusions
            decision = controller.observe(batch)
            # Forensic exclusions are sticky: they only ever grow, and
            # the installed view never re-admits one at any rung.
            assert before <= controller.exclusions
            assert not (controller.view_functions(base)
                        & controller.exclusions)
            if decision.action == "escalate":
                assert (ESCALATION_LADDER.index(decision.to_flavor)
                        == ESCALATION_LADDER.index(decision.from_flavor)
                        + 1)
            if decision.action == "deescalate":
                assert controller.exclusions == before
                assert decision.evidence < controller.min_events

    def test_controller_schedule_is_hashseed_proof(self):
        """The probe/backoff schedule must be identical across
        interpreter hash seeds (string-seeded RNG, sorted tallies)."""
        src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = textwrap.dedent("""
            import json
            from repro.core.audit import AdaptiveIsvController
            from repro.obs.events import SecurityEvent

            def ev(fn):
                return SecurityEvent(0, 0.0, 1, 0, fn,
                                     "blocked-leak", "", "perspective")

            c = AdaptiveIsvController(context=1, probe_after_clean=1,
                                      seed=7)
            batches = [[ev("alpha"), ev("beta")], [], [], [ev("beta")],
                       [], [], [], []]
            out = []
            for batch in batches:
                d = c.observe(batch)
                out.append([d.action, d.from_flavor, d.to_flavor,
                            sorted(c.exclusions), c.probe_wait])
            print(json.dumps(out))
        """)
        outputs = set()
        for hashseed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=src_root)
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  env=env, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1


# ---------------------------------------------------------------------------
# Serve-plane fault points (fail-closed unit tests)
# ---------------------------------------------------------------------------


@pytest.mark.faulty
class TestServePlaneFaultPoints:
    def test_ibpb_drop_falls_back_to_full_flush(self):
        config = ServeConfig(scheme="perspective", tenants=2, seed=1,
                             profile_requests=2)
        plane = FaultPlane(seed=0, specs=(
            FaultSpec("serve-ibpb-drop", probability=1.0),))
        # Large enough that the ring never wraps: every fallback event
        # emitted during the run stays observable.
        journal = EventJournal(capacity=1 << 18)
        with instrumented(journal=journal, faults=plane):
            kernel, tenants = boot_tenants(config)
            for i in range(3):
                for tenant in tenants:
                    tenant.profile.request(tenant.driver, tenant.state, i)
        assert kernel.ibpb_fault_flushes > 0
        # Every dropped IBPB took the full-flush fallback, and each one
        # left a forensic trace.
        assert plane.fires["serve-ibpb-drop"] == kernel.ibpb_fault_flushes
        fallbacks = [e for e in journal.events()
                     if e.kind == "fault-fallback"
                     and e.reason == "ibpb-drop-full-flush"]
        assert len(fallbacks) == kernel.ibpb_fault_flushes

    def test_view_refill_fault_installs_nothing(self):
        cache = ViewCache("isv")
        plane = FaultPlane(seed=0, specs=(
            FaultSpec("view-refill-fault", probability=1.0),))
        journal = EventJournal(capacity=64)
        with instrumented(journal=journal, faults=plane):
            assert cache.lookup(1, 0x40) is None
            cache.fill(1, 0x40, True)
            assert cache.stats.refill_faults == 1
            # Fail closed: the faulted refill installed nothing, so the
            # next access re-misses (and re-pays the refill) rather than
            # ever serving a possibly-corrupt view bit.
            assert cache.lookup(1, 0x40) is None
        assert plane.fires["view-refill-fault"] == 1
        assert any(e.reason == "isv-refill-dropped"
                   for e in journal.events())

    def test_unregistered_cache_has_no_fault_point(self):
        cache = ViewCache("scratch")
        plane = FaultPlane(seed=0, specs=(
            FaultSpec("view-refill-fault", probability=1.0),))
        with instrumented(faults=plane):
            cache.fill(1, 0x40, True)
            assert cache.lookup(1, 0x40) is True
        assert plane.fires.get("view-refill-fault", 0) == 0

    def test_new_sweep_scenarios_hold(self):
        checker = InvariantChecker(attacks=("spectre-v1-active",),
                                   schemes=("perspective",), seed=2)
        by_name = {s.name: s for s in FAULT_SWEEP}
        for name in ("serve-ibpb-drop", "view-refill-fault",
                     "admission-corrupt"):
            verdicts = checker.check_scenario(by_name[name])
            assert all(v.passed for v in verdicts), \
                [v for v in verdicts if not v.passed]
