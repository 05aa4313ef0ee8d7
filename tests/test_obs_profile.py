"""Tests for the differential profiler and exporters (repro.obs.profile)."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profile import (
    OTHER_ROW,
    DiffProfile,
    SpanTree,
    diff_workload,
)

SPANS = {
    "syscall/read": {"count": 2, "cycles": 10.0},
    "syscall/read/fn/sys_read": {"count": 2, "cycles": 70.0},
    "syscall/read/fn/sys_read/phase/fence_stall":
        {"count": 2, "cycles": 20.0},
    "syscall/write/fn/sys_write": {"count": 1, "cycles": 40.0},
    "": {"count": 0, "cycles": 5.0},
}


class TestSpanTree:
    def test_from_spans_builds_segment_tree(self):
        tree = SpanTree.from_spans(SPANS, root_name="run")
        read = tree.root.children["syscall"].children["read"]
        assert read.self_cycles == 10.0
        fn = read.children["fn"].children["sys_read"]
        assert fn.self_cycles == 70.0
        assert fn.inclusive_cycles == 90.0
        assert tree.root.self_cycles == 5.0  # root pseudo-span ticks
        assert tree.root.inclusive_cycles == pytest.approx(145.0)

    def test_cycles_by_fn_attributes_to_innermost_fn(self):
        by_fn = SpanTree.from_spans(SPANS).cycles_by_fn()
        # sys_read keeps its own cycles plus its phase leaf.
        assert by_fn["sys_read"] == 90.0
        assert by_fn["sys_write"] == 40.0
        # syscall-node (trap) and root cycles are visible, not dropped.
        assert by_fn[OTHER_ROW] == 15.0
        assert sum(by_fn.values()) == pytest.approx(145.0)

    def test_cycles_by_phase(self):
        by_phase = SpanTree.from_spans(SPANS).cycles_by_phase()
        assert by_phase["fence_stall"] == 20.0
        assert by_phase["compute"] == pytest.approx(125.0)

    def test_folded_roundtrip_exact(self):
        tree = SpanTree.from_spans(SPANS, root_name="run")
        folded = tree.to_folded()
        rebuilt = SpanTree.from_folded(folded, root_name="run")
        assert rebuilt.to_folded() == folded

    def test_folded_lines_are_parent_prefixed(self):
        folded = SpanTree.from_spans(SPANS, root_name="run").to_folded()
        lines = folded.splitlines()
        assert "run 5" in lines
        assert any(line.startswith(
            "run;syscall;read;fn;sys_read;phase;fence_stall ")
            for line in lines)

    def test_chrome_trace_nesting_and_args(self):
        trace = SpanTree.from_spans(SPANS, root_name="run") \
            .to_chrome_trace()
        events = trace["traceEvents"]
        assert events[0]["name"] == "run"
        assert events[0]["ph"] == "B"
        assert events[-1]["name"] == "run"
        assert events[-1]["ph"] == "E"
        # B/E balanced like parentheses.
        stack = []
        for event in events:
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack.pop() == event["name"]
        assert stack == []
        # Timestamps never go backwards.
        ts = [event["ts"] for event in events]
        assert ts == sorted(ts)

    def test_chrome_trace_json_canonical(self):
        tree = SpanTree.from_spans(SPANS)
        rendered = tree.to_chrome_trace_json()
        assert rendered == json.dumps(json.loads(rendered),
                                      sort_keys=True,
                                      separators=(",", ":")) + "\n"


# -- property tests ---------------------------------------------------------

_SEGMENT = st.text(alphabet="abcdefg_", min_size=1, max_size=6)
_PATH = st.lists(_SEGMENT, min_size=1, max_size=5).map("/".join)
_SPANS = st.dictionaries(
    _PATH,
    st.fixed_dictionaries({
        "count": st.integers(min_value=0, max_value=50),
        # Integral cycles: the folded format is lossless for them.
        "cycles": st.integers(min_value=0, max_value=10_000).map(float),
    }),
    max_size=12)


class TestProperties:
    @given(spans=_SPANS)
    @settings(max_examples=60, deadline=None)
    def test_chrome_trace_properly_nested_and_monotonic(self, spans):
        events = SpanTree.from_spans(spans).to_chrome_trace()[
            "traceEvents"]
        stack: list[tuple[str, float]] = []
        last_ts = 0.0
        for event in events:
            assert event["ts"] >= last_ts - 1e-9
            last_ts = max(last_ts, event["ts"])
            if event["ph"] == "B":
                stack.append((event["name"], event["ts"]))
            else:
                name, begin = stack.pop()
                assert name == event["name"]
                assert event["ts"] >= begin - 1e-9
        assert stack == []

    @given(spans=_SPANS)
    @settings(max_examples=60, deadline=None)
    def test_folded_stacks_roundtrip_through_span_tree(self, spans):
        tree = SpanTree.from_spans(spans, root_name="root")
        folded = tree.to_folded()
        rebuilt = SpanTree.from_folded(folded, root_name="root")
        assert rebuilt.to_folded() == folded
        # Total self cycles survive the round trip exactly.
        assert rebuilt.root.inclusive_cycles == \
            pytest.approx(tree.root.inclusive_cycles)

    @given(spans=_SPANS)
    @settings(max_examples=60, deadline=None)
    def test_attribution_conserves_cycles(self, spans):
        tree = SpanTree.from_spans(spans)
        total = tree.root.inclusive_cycles
        assert sum(tree.cycles_by_fn().values()) == pytest.approx(total)
        assert sum(tree.cycles_by_phase().values()) == \
            pytest.approx(total)


# -- end-to-end -------------------------------------------------------------


@pytest.fixture(scope="module")
def lebench_diff() -> DiffProfile:
    """One shared unsafe -> perspective diff (two full workload runs)."""
    return diff_workload("lebench", "unsafe", "perspective")


class TestDifferentialProfile:
    def test_attribution_matches_end_to_end_within_1pct(
            self, lebench_diff):
        """The acceptance criterion: the table's total added cycles must
        explain the end-to-end cycle delta."""
        assert lebench_diff.end_to_end_delta > 0
        assert lebench_diff.attribution_error < 0.01

    def test_fn_table_joins_fences(self, lebench_diff):
        rows = {row.name: row for row in lebench_diff.fn_table()}
        assert OTHER_ROW in rows
        fenced = [row for row in rows.values() if row.added_fences > 0]
        assert fenced, "perspective must add fences somewhere"
        # Fence counts join per function: every fenced row is a real
        # kernel entry point, not the catch-all.
        assert all(row.name != OTHER_ROW for row in fenced)

    def test_reason_diff_covers_added_fences(self, lebench_diff):
        reasons = lebench_diff.reason_diff()
        total_by_reason = sum(reasons.values())
        total_by_fn = sum(row.added_fences
                          for row in lebench_diff.fn_table())
        assert total_by_reason == pytest.approx(total_by_fn)
        assert reasons.get("isv", 0) + reasons.get("dsv", 0) > 0

    def test_fences_per_kiloinstruction_delta(self, lebench_diff):
        assert lebench_diff.base.fences_per_kiloinstruction == 0.0
        assert lebench_diff.fences_per_kiloinstruction_delta > 0.0

    def test_phase_table_shows_fence_stall_growth(self, lebench_diff):
        phases = {row.name: row for row in lebench_diff.phase_table()}
        assert phases["fence_stall"].added_cycles > 0

    def test_render_mentions_totals(self, lebench_diff):
        text = lebench_diff.render(top=5)
        assert "attribution error" in text
        assert "end-to-end" in text
        assert "per kinst" in text

    def test_mismatched_workloads_rejected(self, lebench_diff):
        import dataclasses
        base = lebench_diff.base
        other = dataclasses.replace(lebench_diff.scheme,
                                    workload="httpd")
        with pytest.raises(ValueError, match="one workload"):
            DiffProfile(base, other)


class TestAppWindow:
    def test_app_attribution_matches_end_to_end(self):
        """Server setup syscalls run after the scheme is armed: the span
        tree, the fence counters and the end-to-end totals must all
        count them, or the table adds up to more than the delta."""
        diff = diff_workload("httpd", "unsafe", "perspective")
        assert diff.end_to_end_delta > 0
        assert diff.attribution_error < 0.01


class TestReproducibility:
    def test_exports_byte_identical_across_runs(self, lebench_diff):
        again = diff_workload("lebench", "unsafe", "perspective")
        for first, second in ((lebench_diff.base, again.base),
                              (lebench_diff.scheme, again.scheme)):
            trees = [first.tree(), second.tree()]
            assert trees[0].to_folded() == trees[1].to_folded()
            assert trees[0].to_chrome_trace_json() == \
                trees[1].to_chrome_trace_json()
            assert json.dumps(first.snapshot, sort_keys=True) == \
                json.dumps(second.snapshot, sort_keys=True)


class TestCli:
    def test_profile_subcommand_writes_artifacts(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        assert main(["profile", "--workload", "lebench", "--base",
                     "unsafe", "--scheme", "perspective", "-o",
                     str(tmp_path), "--top", "5"]) == 0
        printed = capsys.readouterr().out
        assert "differential profile: lebench" in printed
        assert "attribution error" in printed
        for label in ("lebench.unsafe", "lebench.perspective"):
            folded = tmp_path / f"profile_{label}.folded"
            trace = tmp_path / f"profile_{label}.trace.json"
            assert folded.exists() and trace.exists()
            assert folded.read_text().splitlines()
            payload = json.loads(trace.read_text())
            assert payload["traceEvents"]

    def test_profile_flags_default_to_the_obs_matrix_row(self, monkeypatch):
        from repro.exec import grids
        from repro.obs import profile
        from repro.obs.__main__ import main
        row = {"workloads": ["httpd"], "schemes": ["fence", "stt"]}
        monkeypatch.setattr(grids, "get_grid", lambda name: SimpleNamespace(
            defaults=lambda: row if name == "obs-matrix" else None))
        calls = []

        def fake_diff(*args, requests):
            calls.append(args)
            raise ValueError("not run")

        monkeypatch.setattr(profile, "diff_workload", fake_diff)
        assert main(["profile"]) == 2
        assert main(["profile", "--scheme", "perspective"]) == 2
        assert calls == [("httpd", "fence", "stt"),
                         ("httpd", "fence", "perspective")]

    def test_profile_of_one_scheme_against_itself_exits_2(self, capsys):
        from repro.obs.__main__ import main
        assert main(["profile", "--base", "unsafe",
                     "--scheme", "unsafe"]) == 2
        err = capsys.readouterr().err
        assert "repeats cell key(s): lebench/unsafe" in err
