"""Tests for the metric regression gate (repro.obs.diffgate)."""

from __future__ import annotations

import json

from repro.obs.diffgate import (
    DiffReport,
    diff_snapshots,
    flatten_snapshot,
    gate_files,
)


def _snap(counters=None, gauges=None, histograms=None, spans=None):
    return {"meta": {}, "counters": counters or {},
            "gauges": gauges or {}, "histograms": histograms or {},
            "spans": spans or {}}


class TestFlatten:
    def test_all_sections_flatten(self):
        snap = _snap(
            counters={"pipeline.runs": 3},
            gauges={"slab.utilization": 0.5},
            histograms={"run_cycles": {"buckets": [10.0], "counts": [1],
                                       "overflow": 0, "sum": 7.0,
                                       "count": 1}},
            spans={"syscall/read": {"count": 2, "cycles": 9.0}})
        flat = flatten_snapshot(snap)
        assert flat["counters.pipeline.runs"] == 3.0
        assert flat["gauges.slab.utilization"] == 0.5
        assert flat["histograms.run_cycles.sum"] == 7.0
        assert flat["histograms.run_cycles.count"] == 1.0
        assert flat["spans.syscall/read.cycles"] == 9.0
        assert flat["spans.syscall/read.count"] == 2.0


class TestDiffSnapshots:
    def test_identical_snapshots_pass(self):
        snap = _snap(counters={"a": 1, "b": 2})
        report = diff_snapshots(snap, snap)
        assert report.ok
        assert report.compared == 2
        assert "0 regression(s)" in report.render()

    def test_exact_mismatch_regresses(self):
        report = diff_snapshots(_snap(counters={"a": 1}),
                                _snap(counters={"a": 2}))
        assert not report.ok
        (finding,) = report.regressions
        assert finding.verdict == "regressed"
        assert finding.name == "counters.a"
        assert finding.delta == 1.0

    def test_added_and_removed_metrics_are_findings(self):
        report = diff_snapshots(_snap(counters={"old": 1}),
                                _snap(counters={"new": 1}))
        verdicts = {d.name: d.verdict for d in report.regressions}
        assert verdicts == {"counters.old": "removed",
                            "counters.new": "added"}

    def test_render_shows_each_verdict(self):
        report = diff_snapshots(_snap(counters={"old": 1, "x": 1}),
                                _snap(counters={"new": 2, "x": 3}))
        text = report.render()
        assert "ADDED     counters.new" in text
        assert "REMOVED   counters.old" in text
        assert "REGRESSED counters.x: 1.0 -> 3.0" in text

    def test_empty_report_is_ok(self):
        assert DiffReport().ok


class TestGateFiles:
    def _write(self, path, snap):
        path.write_text(json.dumps(snap))
        return str(path)

    def test_gate_files_is_exact(self, tmp_path):
        base = self._write(tmp_path / "base.json",
                           _snap(counters={"a": 100}))
        cur = self._write(tmp_path / "cur.json",
                          _snap(counters={"a": 101}))
        assert not gate_files(base, cur).ok

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        base = self._write(tmp_path / "base.json",
                           _snap(counters={"a": 1}))
        same = self._write(tmp_path / "same.json",
                           _snap(counters={"a": 1}))
        drift = self._write(tmp_path / "drift.json",
                            _snap(counters={"a": 2}))
        assert main(["diff", base, same]) == 0
        assert main(["diff", base, drift]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED counters.a" in out

    def test_cli_gate_on_committed_smoke_baseline(self, capsys):
        """The CI wiring: the committed snapshot gates itself cleanly."""
        import pathlib
        from repro.obs.__main__ import main
        baseline = str(pathlib.Path(__file__).parent.parent
                       / "benchmarks" / "out" / "obs_smoke.json")
        assert main(["diff", baseline, baseline]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
