"""Every registered defense scheme, held to the full matrix.

The registry (:mod:`repro.defenses.registry`) is open: anyone can add a
scheme in one file.  These tests make that safe by construction --

* :data:`EXPECTED_BLOCKED` must name every registered scheme, checked at
  *collection* time, so registering a scheme without declaring its
  expected attack outcomes fails the whole test run, not silently;
* every scheme goes through the 20-seed conformance corpus against the
  unsafe baseline (architectural digests must agree exactly);
* every scheme runs the full active/passive PoC matrix and must match
  its declared row;
* the committed ``benchmarks/out/defense_matrix.json`` snapshot must
  agree with the declared rows for the schemes it covers, so the
  CI-gated artifact cannot drift from the tested ground truth.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.attacks.harness import ATTACKS, run_attack
from repro.defenses.registry import registered_schemes, scheme_capabilities
from repro.serve.conformance import arch_divergence

CORPUS_SEEDS = range(20)

ALL_ATTACKS = frozenset(ATTACKS)

#: Attacks every scheme blocks "for free" because the PoC's control
#: experiment is stopped by hardware (eIBRS) before the policy matters.
_EIBRS_CONTROL = frozenset({"spectre-v2-vs-eibrs"})

#: The spot-mitigation family (KPTI + retpoline) blocks exactly the
#: indirect-branch v2 variants; v1, Retbleed, RSB poisoning and eBPF
#: injection leak straight through (Table 4.1).
_SPOT_BLOCKED = frozenset({"spectre-v2-active", "spectre-v2-passive",
                           "bhi-passive"}) | _EIBRS_CONTROL

#: Ground truth: ``scheme -> attacks it blocks``.  Keyed by EVERY
#: registered scheme -- the collection-time check below enforces it.
EXPECTED_BLOCKED: dict[str, frozenset[str]] = {
    "unsafe": _EIBRS_CONTROL,
    "fence": ALL_ATTACKS,
    "dom": ALL_ATTACKS,
    "stt": ALL_ATTACKS,
    "invisispec": ALL_ATTACKS,
    "safespec": ALL_ATTACKS,
    "context": ALL_ATTACKS,
    "spot": _SPOT_BLOCKED,
    "spot-nokpti": _SPOT_BLOCKED,
    "spot-ibpb": _SPOT_BLOCKED | {"retbleed-passive"},
    "perspective-static": ALL_ATTACKS,
    "perspective": ALL_ATTACKS,
    "perspective++": ALL_ATTACKS,
}

# --- Collection-time coverage gate -----------------------------------------
# A scheme registered without a matrix row fails collection (and a row
# for an unregistered scheme is equally fatal: it means the matrix
# tests silently stopped exercising something).
_uncovered = set(registered_schemes()) - set(EXPECTED_BLOCKED)
_stale = set(EXPECTED_BLOCKED) - set(registered_schemes())
if _uncovered or _stale:
    raise RuntimeError(
        "defense-matrix coverage gate: every registered scheme needs an "
        f"EXPECTED_BLOCKED row (uncovered: {sorted(_uncovered)}, "
        f"stale: {sorted(_stale)}) -- declare the new scheme's expected "
        "attack outcomes in tests/test_defense_matrix.py")


class TestConformanceCorpus:
    """Architectural digests equal to unsafe across the 20-seed corpus,
    for every registered scheme (parameterized from the registry, so a
    newly registered scheme is exercised automatically)."""

    @pytest.mark.parametrize("scheme", registered_schemes())
    def test_scheme_is_conformant(self, scheme, arch_digest):
        for seed in CORPUS_SEEDS:
            base = arch_digest("unsafe", seed)
            under = arch_digest(scheme, seed)
            diverged = arch_divergence(base, under)
            assert not diverged, (
                f"{scheme} diverged architecturally from unsafe on seed "
                f"{seed}: {diverged}")


class TestAttackMatrix:
    """The full active/passive PoC matrix, per registered scheme."""

    @pytest.mark.parametrize("scheme", registered_schemes())
    def test_matches_declared_row(self, scheme):
        blocked = {attack for attack in sorted(ATTACKS)
                   if run_attack(attack, scheme).blocked}
        assert blocked == EXPECTED_BLOCKED[scheme], (
            f"{scheme}: attack outcomes drifted from the declared row "
            f"(unexpectedly leaked: "
            f"{sorted(EXPECTED_BLOCKED[scheme] - blocked)}, "
            f"unexpectedly blocked: "
            f"{sorted(blocked - EXPECTED_BLOCKED[scheme])})")

    def test_new_hardware_schemes_block_what_perspective_pp_blocks(self):
        """The acceptance bar for SafeSpec and ConTExT: no active PoC
        that perspective++ stops may leak under them."""
        pp = EXPECTED_BLOCKED["perspective++"]
        for scheme in ("safespec", "context"):
            assert EXPECTED_BLOCKED[scheme] >= pp

    def test_every_leak_is_real_secret_bytes(self):
        """A 'leaked' verdict means the PoC recovered the planted
        secret, not garbage."""
        result = run_attack("spectre-v1-active", "spot")
        assert result.success and result.leaked == result.secret


class TestCommittedSnapshot:
    """The CI-gated artifact must agree with the tested ground truth."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        path = (pathlib.Path(__file__).resolve().parent.parent
                / "benchmarks" / "out" / "defense_matrix.json")
        return json.loads(path.read_text())

    def test_attack_rows_match_ground_truth(self, snapshot):
        for scheme, row in snapshot["attacks"].items():
            blocked = {a for a, verdict in row.items()
                       if verdict == "blocked"}
            assert blocked == EXPECTED_BLOCKED[scheme], scheme

    def test_snapshot_schemes_are_registered(self, snapshot):
        assert set(snapshot["schemes"]) <= set(registered_schemes())
        assert len(snapshot["schemes"]) == 8

    def test_all_snapshot_schemes_conformant(self, snapshot):
        for scheme in snapshot["schemes"]:
            assert snapshot["conformance"][scheme]["ok"], scheme
            assert not snapshot["conformance"][scheme]["diverging_seeds"]

    def test_overheads_ordered_sanely(self, snapshot):
        perf = snapshot["performance"]
        # Full fencing is the ceiling; the unsafe baseline is 0 by
        # construction; Perspective/SafeSpec/ConTExT sit well below it.
        assert perf["unsafe"]["overhead_geomean_pct"] == 0.0
        for cheap in ("perspective", "safespec", "context"):
            assert perf[cheap]["overhead_geomean_pct"] < \
                perf["fence"]["overhead_geomean_pct"] / 4

    def test_render_table_mentions_every_scheme(self, snapshot):
        from repro.eval.defense_matrix import render_table
        rendered = render_table(snapshot)
        for scheme in snapshot["schemes"]:
            assert scheme in rendered
        assert "DIVERGED" not in rendered

    def test_capability_flags_match_observed_fencing(self, snapshot):
        """A scheme whose capabilities say it never fences speculative
        loads must show zero fenced loads in the corpus, and the fence
        scheme (speculative_loads='never') must fence plenty."""
        for scheme in snapshot["schemes"]:
            caps = scheme_capabilities(scheme)
            fenced = snapshot["conformance"][scheme]["corpus_fenced_loads"]
            if caps.speculative_loads == "never":
                assert fenced > 0, scheme
            if scheme == "unsafe":
                assert fenced == 0


class TestGridAndCli:
    def test_small_grid_run_matches_cells(self, tmp_path):
        """One end-to-end engine run of the defense-matrix grid (tiny
        slice), checked against directly computed cells."""
        from repro.exec.engine import EngineConfig, ExperimentEngine

        table, report = ExperimentEngine(EngineConfig(use_cache=False)).run(
            "defense-matrix",
            {"schemes": ["unsafe", "safespec"], "seeds": [0]})
        assert report.cells_total == 1 + 16 + 2
        assert table["conformance"]["safespec"]["ok"]
        assert table["attacks"]["safespec"] == {
            attack: "blocked" if run_attack(attack, "safespec").blocked
            else "leaked"
            for attack in sorted(ATTACKS)}
        assert table["performance"]["unsafe"]["overhead_geomean_pct"] == 0.0
        assert table["performance"]["safespec"]["overhead_geomean_pct"] > 0.0

    def test_cli_fails_on_divergence(self, monkeypatch, capsys):
        from repro.exec import ExperimentEngine, RunReport
        from repro.exec.__main__ import main as exec_main
        bad = {"schemes": ["unsafe"],
               "conformance": {"unsafe": {"ok": False,
                                          "diverging_seeds": [3]}},
               "security": {"unsafe": {"leaks_blocked": "0/7"}},
               "performance": {"unsafe": {"overhead_geomean_pct": 0.0,
                                          "fences_per_kinst": 0.0}}}
        monkeypatch.setattr(
            ExperimentEngine, "run",
            lambda self, name, params=None: (bad, RunReport(name, 1, False)))
        assert exec_main(["snapshot", "defense_matrix", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "DIVERGED" in captured.out
        assert "CONFORMANCE DIVERGENCE: unsafe on seeds [3]" in captured.err
