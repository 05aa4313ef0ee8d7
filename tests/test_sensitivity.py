"""Tests for the Section 9.2 sensitivity analyses."""

from __future__ import annotations

import pytest

from repro.exec import run_experiment


@pytest.fixture(scope="module")
def breakdown():
    return run_experiment("breakdown", {
        "workloads": ["lebench", "httpd"],
        "schemes": ["perspective-static", "perspective"]})


class TestFenceBreakdown:
    def test_dsv_fences_dominate(self, breakdown):
        """Table 10.1: DSV accounts for ~73-88% of fences."""
        for workload, per_scheme in breakdown.breakdowns.items():
            for scheme, fb in per_scheme.items():
                assert fb.dsv_share > 0.6, (workload, scheme, fb.dsv_share)

    def test_static_isv_fences_more_than_dynamic(self, breakdown):
        """Static ISVs miss the indirect targets, so their ISV fence share
        is larger (Table 10.1: 20% vs 15-18%)."""
        for workload in breakdown.breakdowns:
            static = breakdown.breakdowns[workload]["perspective-static"]
            dynamic = breakdown.breakdowns[workload]["perspective"]
            assert static.isv_share >= dynamic.isv_share

    def test_fence_rates_in_paper_ballpark(self, breakdown):
        """Paper: ~9 ISV and ~37 DSV fences per kiloinstruction."""
        fb = breakdown.breakdowns["lebench"]["perspective"]
        assert 1.0 <= fb.fences_per_kiloinstruction("isv") <= 30.0
        assert 10.0 <= fb.fences_per_kiloinstruction("dsv") <= 90.0

    def test_view_cache_hit_rates_high(self, breakdown):
        """Section 9.2: both hardware caches hit ~99%."""
        for workload in breakdown.isv_cache_hit_rate:
            for scheme in breakdown.isv_cache_hit_rate[workload]:
                assert breakdown.isv_cache_hit_rate[workload][scheme] > 0.95
                assert breakdown.dsv_cache_hit_rate[workload][scheme] > 0.95


class TestUnknownAllocations:
    def test_unknown_blocking_costs_measurable_share(self):
        """Paper: unknown allocations cause ~1.5 points of the LEBench
        overhead; allowing them removes that share."""
        result = run_experiment("unknown-allocations")
        assert result.unknown_contribution_pct > 0.2
        assert result.overhead_unknown_allowed_pct < \
            result.overhead_full_pct


class TestSecureSlabSensitivity:
    @pytest.fixture(scope="class")
    def slab(self):
        return run_experiment("slab-sensitivity", {"requests": 48})

    def test_memory_overhead_small(self, slab):
        """Paper: 0.91% memory overhead from per-cgroup page lists."""
        assert 0.0 < slab.average_memory_overhead_pct() < 3.0

    def test_secure_never_beats_baseline_utilization(self, slab):
        for app in slab.secure_utilization:
            assert slab.secure_utilization[app] <= \
                slab.baseline_utilization[app] + 1e-9

    def test_baseline_collocates_tenants(self, slab):
        """The vulnerability the secure allocator removes is present in
        the baseline: tenants share cache lines."""
        assert any(v > 0 for v in slab.baseline_collocations.values())

    def test_reassignment_ordering_matches_paper(self, slab):
        """Paper: redis churns pages hardest (0.23%/96 per s), the other
        applications are one to two orders of magnitude lower."""
        redis = slab.page_return_ratio["redis"]
        assert redis > 0
        assert redis >= slab.page_return_ratio["httpd"]
        assert redis >= slab.page_return_ratio["nginx"]
