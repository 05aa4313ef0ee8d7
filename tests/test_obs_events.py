"""Tests for the security-event journal (repro.obs.events)."""

from __future__ import annotations

import json

import pytest

from repro.obs import events as ev
from repro.obs import INSTRUMENTS, instrumented
from repro.obs.events import EVENT_KINDS, EventJournal


class TestJournalBasics:
    def test_emit_and_seq_order(self):
        journal = EventJournal()
        journal.emit("fence", cycle=1.0, kernel_fn="sys_read",
                     reason="isv")
        journal.emit("blocked-leak", cycle=2.0, kernel_fn="gadget")
        assert len(journal) == 2
        kinds = [e.kind for e in journal.events()]
        assert kinds == ["fence", "blocked-leak"]
        assert [e.seq for e in journal.events()] == [0, 1]

    def test_ring_overwrites_oldest_and_counts_drops(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.emit("fence", cycle=float(i), reason=f"r{i}")
        assert len(journal) == 3
        assert journal.emitted == 5
        assert journal.dropped == 2
        # Flight-recorder semantics: the most recent window survives.
        assert [e.reason for e in journal.events()] == ["r2", "r3", "r4"]
        assert [e.seq for e in journal.events()] == [2, 3, 4]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            EventJournal(capacity=0)

    def test_advance_offsets_cycle_stamps(self):
        journal = EventJournal()
        journal.emit("fence", cycle=10.0)
        journal.advance(100.0)
        journal.emit("fence", cycle=10.0)
        cycles = [e.cycle for e in journal.events()]
        assert cycles == [10.0, 110.0]
        assert journal.base_cycle == 100.0

    def test_clear_resets_everything(self):
        journal = EventJournal(capacity=2)
        for _ in range(4):
            journal.emit("fence")
        journal.advance(5.0)
        journal.clear()
        assert len(journal) == 0
        assert journal.emitted == 0
        assert journal.dropped == 0
        assert journal.base_cycle == 0.0


class TestJournalQueries:
    def _populated(self) -> EventJournal:
        journal = EventJournal()
        journal.emit("fence", cycle=1.0, context=1, kernel_fn="sys_read",
                     reason="isv", scheme="perspective")
        journal.emit("blocked-leak", cycle=2.0, context=2,
                     kernel_fn="gadget", reason="dsv",
                     scheme="perspective")
        journal.emit("fence", cycle=3.0, context=1, kernel_fn="sys_write",
                     reason="dsv", scheme="perspective")
        return journal

    def test_query_filters_combine(self):
        journal = self._populated()
        assert len(journal.query(kind="fence")) == 2
        assert len(journal.query(kind="fence", context=1)) == 2
        assert len(journal.query(kind="fence", reason="dsv")) == 1
        assert len(journal.query(kernel_fn="gadget")) == 1
        assert len(journal.query(since=2.0, until=2.0)) == 1
        assert journal.query(scheme="unsafe") == []

    def test_counts_by(self):
        journal = self._populated()
        assert journal.counts_by("kind") == {"fence": 2,
                                             "blocked-leak": 1}
        assert journal.counts_by("reason") == {"isv": 1, "dsv": 2}
        assert journal.counts_by("context") == {1: 2, 2: 1}
        with pytest.raises(ValueError, match="counts_by"):
            journal.counts_by("cycle")

    def test_reconstruct_narrows_and_preserves_order(self):
        journal = self._populated()
        seq = journal.reconstruct(context=1)
        assert [e.kernel_fn for e in seq] == ["sys_read", "sys_write"]
        leaks = journal.reconstruct(kinds=("blocked-leak",))
        assert [e.kernel_fn for e in leaks] == ["gadget"]

    def test_jsonl_is_canonical(self):
        journal = self._populated()
        lines = journal.to_jsonl().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "fence"
        assert parsed[1]["kernel_fn"] == "gadget"
        for line, record in zip(lines, parsed):
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))

    def test_summary_mentions_counts(self):
        text = self._populated().summary()
        assert "3 retained / 3 emitted" in text
        assert "fence" in text
        assert "blocked-leak" in text


class TestModuleHooks:
    def test_inactive_hooks_are_noops(self):
        assert INSTRUMENTS.journal is None
        ev.emit("fence")
        ev.emit_here("fence")
        ev.set_site(1.0, 1, 0, "f", "s")
        ev.advance(10.0)  # nothing recorded, nothing raised

    def test_journaling_scopes_and_restores(self):
        journal = EventJournal()
        with instrumented(journal=journal):
            assert INSTRUMENTS.journal is journal
            ev.emit("fence", reason="x")
        assert INSTRUMENTS.journal is None
        assert len(journal) == 1

    def test_emit_here_stamps_current_site(self):
        journal = EventJournal()
        with instrumented(journal=journal):
            ev.set_site(42.0, 7, 0x1234, "sys_read", "perspective")
            ev.emit_here("isv-miss", reason="untrusted")
        (event,) = journal.events()
        assert event.cycle == 42.0
        assert event.context == 7
        assert event.pc == 0x1234
        assert event.kernel_fn == "sys_read"
        assert event.scheme == "perspective"
        assert event.reason == "untrusted"


class TestAttackForensics:
    """Reconstructing a PoC run from the journal (the acceptance test)."""

    def _journaled_attack(self, scheme: str) -> EventJournal:
        from repro.attacks.harness import run_attack
        journal = EventJournal(meta={"scheme": scheme})
        with instrumented(journal=journal):
            run_attack("spectre-rsb-passive", scheme)
        return journal

    def test_run_attack_records_into_the_callers_journal(self):
        """``run_attack`` inherits the caller's journal: it records
        exactly the events of the same PoC run by hand."""
        from repro.attacks.base import make_setup
        from repro.attacks.harness import ATTACKS, build_policy
        from repro.kernel.image import shared_image
        from repro.kernel.kernel import MiniKernel
        kernel = MiniKernel(image=shared_image())
        setup = make_setup(kernel, secret=b"K3Y!")
        build_policy("perspective", kernel)
        by_hand = EventJournal()
        with instrumented(journal=by_hand):
            ATTACKS["spectre-rsb-passive"](setup).run(
                scheme_name="perspective")
        journal = self._journaled_attack("perspective")
        assert journal.emitted > 0
        assert journal.events() == by_hand.events()

    def test_perspective_blocks_are_reconstructable(self):
        journal = self._journaled_attack("perspective")
        leaks = journal.reconstruct(kinds=("blocked-leak",))
        assert leaks, "expected blocked leak attempts in the journal"
        # Every stopped leak happened in the PoC gadget, outside the ISV.
        assert {e.kernel_fn for e in leaks} == {"xilinx_usb_poc_gadget"}
        assert {e.scheme for e in leaks} == {"perspective"}
        # The ISV misses that caused the blocks are in the journal too.
        assert journal.query(kind="isv-miss",
                             kernel_fn="xilinx_usb_poc_gadget")
        cycles = [e.cycle for e in journal.events()]
        assert cycles == sorted(cycles), "stamps must be monotonic"

    def test_unsafe_run_records_no_blocks(self):
        journal = self._journaled_attack("unsafe")
        assert journal.reconstruct(kinds=("blocked-leak", "fence")) == []

    def test_journal_only_kinds_are_documented(self):
        journal = self._journaled_attack("perspective")
        assert {e.kind for e in journal.events()} <= set(EVENT_KINDS)

    def test_attack_outcome_unchanged_by_journaling(self):
        from repro.attacks.harness import run_attack
        plain = run_attack("spectre-rsb-passive", "perspective")
        with instrumented(journal=EventJournal()):
            journaled = run_attack("spectre-rsb-passive", "perspective")
        assert plain.leaked == journaled.leaked
        assert plain.unrecovered == journaled.unrecovered
        assert plain.notes == journaled.notes


class TestForensicHardening:
    def test_harden_isv_from_journal_excludes_implicated_functions(self):
        from repro.core.audit import (forensic_exclusions,
                                      harden_isv_from_journal)
        from repro.kernel.image import shared_image
        from repro.kernel.kernel import MiniKernel
        from repro.core.views import InstructionSpeculationView

        kernel = MiniKernel(image=shared_image())
        journal = EventJournal()
        journal.emit("blocked-leak", kernel_fn="xilinx_usb_poc_gadget",
                     reason="isv")
        journal.emit("fence", kernel_fn="sys_read", reason="isv")
        flagged = forensic_exclusions(journal)
        assert flagged == {"xilinx_usb_poc_gadget"}

        isv = InstructionSpeculationView(
            1, frozenset({"sys_read", "xilinx_usb_poc_gadget"}),
            kernel.layout)
        outcome = harden_isv_from_journal(isv, journal)
        assert "xilinx_usb_poc_gadget" not in outcome.hardened
        assert "sys_read" in outcome.hardened
        assert outcome.functions_removed == 1

    def test_min_events_threshold(self):
        from repro.core.audit import forensic_exclusions
        journal = EventJournal()
        journal.emit("blocked-leak", kernel_fn="noisy")
        journal.emit("blocked-leak", kernel_fn="noisy")
        journal.emit("blocked-leak", kernel_fn="rare")
        assert forensic_exclusions(journal, min_events=2) == {"noisy"}


class TestPipelineWiring:
    def test_breakdown_journal_records_fences(self):
        from repro.exec import run_experiment
        journal = EventJournal()
        with instrumented(journal=journal):
            run_experiment("breakdown", {"workloads": ["lebench"],
                                         "schemes": ["perspective"],
                                         "requests": 6})
        kinds = journal.counts_by("kind")
        assert kinds.get("fence", 0) > 0
        # Committed-path fences name the function they fenced in.
        fns = {e.kernel_fn for e in journal.query(kind="fence")}
        assert fns and all(fns)

    def test_breakdown_results_identical_with_and_without_journal(self):
        """The journal extends PR 2's observation-neutrality guarantee."""
        from repro.exec import run_experiment
        params = {"workloads": ["lebench"], "schemes": ["perspective"],
                  "requests": 6}
        plain = run_experiment("breakdown", params)
        with instrumented(journal=EventJournal()):
            journaled = run_experiment("breakdown", params)
        assert plain.breakdowns == journaled.breakdowns
        assert plain.isv_cache_hit_rate == journaled.isv_cache_hit_rate
        assert plain.dsv_cache_hit_rate == journaled.dsv_cache_hit_rate

    def test_journaled_runs_are_byte_identical(self):
        from repro.exec import run_experiment
        out = []
        for _ in range(2):
            journal = EventJournal()
            with instrumented(journal=journal):
                run_experiment("breakdown", {"workloads": ["lebench"],
                                             "schemes": ["perspective"],
                                             "requests": 6})
            out.append(journal.to_jsonl())
        assert out[0] == out[1]


class TestCli:
    def test_events_subcommand_writes_jsonl(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        out = tmp_path / "events.jsonl"
        assert main(["events", "--attack", "spectre-rsb-passive",
                     "--scheme", "perspective", "--jsonl",
                     str(out)]) == 0
        printed = capsys.readouterr().out
        assert "blocked-leak" in printed
        lines = out.read_text().splitlines()
        assert lines
        assert json.loads(lines[0])["scheme"] == "perspective"

    def test_events_subcommand_rejects_unknown_attack(self, capsys):
        from repro.obs.__main__ import main
        assert main(["events", "--attack", "nope"]) == 2
