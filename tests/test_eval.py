"""Tests for the evaluation harness: environments, metrics, experiment
grids (at reduced scale), and the table/figure renderers."""

from __future__ import annotations

import pytest

from repro.defenses import PerspectivePolicy
from repro.eval.envs import ALL_SCHEMES, make_env
from repro.eval.metrics import FenceBreakdown, geomean, normalized, \
    overhead_pct
from repro.eval import figures, tables
from repro.exec import run_experiment


class TestMetrics:
    def test_normalized_and_overhead(self):
        assert normalized(110, 100) == pytest.approx(1.1)
        assert overhead_pct(110, 100) == pytest.approx(10.0)

    def test_normalized_rejects_zero_baseline(self):
        with pytest.raises(ValueError, match="zero baseline"):
            normalized(5, 0)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            geomean([])

    def test_max_overhead_returns_least_negative_when_all_speedups(self):
        from repro.eval.runner import LEBenchExperiment
        exp = LEBenchExperiment(schemes=("unsafe", "cachy"))
        exp.cycles["unsafe"] = {"getpid": 100.0, "read": 200.0}
        exp.cycles["cachy"] = {"getpid": 90.0, "read": 160.0}
        test, pct = exp.max_overhead_pct("cachy")
        assert test == "getpid"  # -10% beats -20%: least negative
        assert pct == pytest.approx(-10.0)

    def test_fence_breakdown_shares(self):
        from repro.cpu.pipeline import ExecResult
        er = ExecResult(committed_ops=1000,
                        fenced_loads={"isv": 20, "dsv": 80, "fence": 5})
        fb = FenceBreakdown.from_exec(er)
        assert fb.isv_share == pytest.approx(0.2)
        assert fb.dsv_share == pytest.approx(0.8)
        assert fb.other_fences == 5
        assert fb.fences_per_kiloinstruction("isv") == pytest.approx(20.0)
        assert fb.fences_per_kiloinstruction("total") == \
            pytest.approx(105.0)

    def test_fence_rate_rejects_missing_measurement(self):
        # committed_ops == 0 means the breakdown never ran; 0.0 would
        # masquerade as "no fences" in Table 10.1.
        fb = FenceBreakdown(isv_fences=3)
        with pytest.raises(ValueError, match="no committed instructions"):
            fb.fences_per_kiloinstruction("isv")


class TestEnvironments:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_scheme_builds_and_runs(self, scheme):
        env = make_env("lebench", scheme)
        result = env.kernel.syscall(env.proc, "getpid")
        assert result.exec_result is not None

    def test_perspective_env_has_installed_isv(self):
        env = make_env("httpd", "perspective")
        assert env.framework is not None
        assert env.isv is not None
        assert env.isv.context_id == env.proc.cgroup.cg_id
        assert isinstance(env.policy, PerspectivePolicy)

    def test_static_flavor_uses_binary_analysis(self):
        env = make_env("httpd", "perspective-static")
        assert env.isv.source == "static"
        assert "read_error_path" in env.isv  # static includes error paths

    def test_dynamic_flavor_uses_trace(self):
        env = make_env("httpd", "perspective")
        assert env.isv.source == "dynamic"
        assert "read_error_path" not in env.isv

    def test_plus_plus_flavor_excludes_flagged(self, image):
        env = make_env("httpd", "perspective++")
        from repro.scanner.kasper import scan
        flagged = scan(image, scope=env.isv.functions).functions()
        assert not flagged & env.isv.functions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_env("lebench", "nope")


class TestExperimentsReducedScale:
    def test_lebench_experiment_normalization(self):
        exp = run_experiment("lebench", {"schemes": ["unsafe", "fence"]})
        for test in exp.cycles["unsafe"]:
            assert exp.normalized_latency(test, "unsafe") == 1.0
        assert exp.average_overhead_pct("fence") > 10.0

    def test_apps_experiment_rps(self):
        exp = run_experiment("apps", {"schemes": ["unsafe", "fence"],
                                      "apps": ["memcached"], "requests": 12})
        assert exp.rps("memcached", "unsafe") > 0
        assert exp.normalized_rps("memcached", "unsafe") == 1.0
        assert exp.normalized_rps("memcached", "fence") < 1.0

    def test_surface_experiment_matches_table_8_1(self):
        exp = run_experiment("surface", {"apps": ["httpd"]})
        assert 0.88 <= exp.reduction("httpd", "static") <= 0.94
        assert 0.93 <= exp.reduction("httpd", "dynamic") <= 0.98

    def test_gadget_experiment_ordering(self):
        """Table 8.2's invariant: ISV-S <= ISV <= ISV++ == 100%."""
        exp = run_experiment("gadgets", {"apps": ["redis"]})
        rows = exp.blocked["redis"]
        for cls in ("mds", "port", "cache"):
            assert rows["ISV-S"][cls] <= rows["ISV"][cls] + 0.02
            assert rows["ISV++"][cls] == 1.0


class TestRenderers:
    def test_table_4_1_lists_all_rows(self):
        text = tables.table_4_1()
        assert "Retbleed" in text
        assert "Xilinx" in text
        assert "CVE-2022-27223" in text

    def test_table_7_1_mentions_core_parameters(self):
        text = tables.table_7_1()
        assert "192 ROB entries" in text
        assert "ISV Cache" in text

    def test_table_8_1_renders(self):
        exp = run_experiment("surface", {"apps": ["httpd"]})
        text = tables.table_8_1(exp)
        assert "ISV-S" in text and "httpd" in text

    def test_table_9_1_renders_paper_values(self):
        text = tables.table_9_1()
        assert "0.0024" in text and "114" in text

    def test_figures_render(self):
        exp = run_experiment("lebench", {"schemes": ["unsafe", "fence"]})
        text = figures.figure_9_2(exp)
        assert "select" in text and "fence" in text
