"""Headline performance-shape assertions against the paper's claims.

These are integration tests over the measurement harness (each builds
several full environments), asserting the *shape* the paper reports: who
wins, by roughly what factor, and where the pain points are.  Tolerances
are deliberately loose -- absolute cycles come from a model, not gem5.
"""

from __future__ import annotations

import pytest

from repro.exec import run_experiment


@pytest.fixture(scope="module")
def lebench():
    return run_experiment("lebench", {"schemes": [
        "unsafe", "fence", "dom", "stt",
        "perspective-static", "perspective", "perspective++"]})


class TestLEBenchShape:
    def test_fence_average_near_paper(self, lebench):
        """Paper: 47.5% average overhead for FENCE."""
        assert 30.0 <= lebench.average_overhead_pct("fence") <= 70.0

    def test_fence_spin_syscalls_catastrophic(self, lebench):
        """Paper: select/poll up to 228% under FENCE."""
        for test in ("select", "poll", "epoll"):
            assert lebench.normalized_latency(test, "fence") > 2.5

    def test_dom_between_fence_and_perspective(self, lebench):
        """Paper: DOM 23.1% -- cheaper than FENCE, far costlier than
        Perspective."""
        dom = lebench.average_overhead_pct("dom")
        assert dom < lebench.average_overhead_pct("fence")
        assert dom > lebench.average_overhead_pct("perspective")
        assert 10.0 <= dom <= 40.0

    def test_dom_tracks_fence_on_spin_tests(self, lebench):
        """Paper: DOM 204% vs FENCE 228% on the select family."""
        for test in ("select", "poll"):
            fence = lebench.normalized_latency(test, "fence")
            dom = lebench.normalized_latency(test, "dom")
            assert dom > 2.0
            assert dom <= fence * 1.05

    def test_stt_small_overhead(self, lebench):
        """Paper: STT 3.7% average."""
        assert lebench.average_overhead_pct("stt") <= 12.0

    def test_perspective_family_small(self, lebench):
        """Paper: 4.1 / 3.6 / 3.5% for static / dynamic / ++."""
        for scheme in ("perspective-static", "perspective",
                       "perspective++"):
            overhead = lebench.average_overhead_pct(scheme)
            assert -0.5 <= overhead <= 8.0, (scheme, overhead)

    def test_perspective_beats_fence_everywhere(self, lebench):
        for test in lebench.cycles["unsafe"]:
            assert lebench.normalized_latency(test, "perspective") <= \
                lebench.normalized_latency(test, "fence") + 0.02

    def test_perspective_alloc_tests_show_dsv_cost(self, lebench):
        """Paper: moderate overhead in big-fork and page-fault, where new
        allocations make the DSV state cold."""
        alloc_cost = max(
            lebench.normalized_latency(t, "perspective")
            for t in ("page-fault", "big-page-fault", "mmap", "big-fork"))
        assert alloc_cost > 1.01

    def test_perspective_spin_tests_near_baseline(self, lebench):
        """Unlike FENCE/DOM, Perspective barely touches select/poll."""
        for test in ("select", "poll", "epoll"):
            assert lebench.normalized_latency(test, "perspective") < 1.15


class TestSpotMitigationShape:
    @pytest.fixture(scope="class")
    def spot(self):
        return run_experiment("lebench", {"schemes": [
            "unsafe", "spot", "spot-nokpti", "perspective"]})

    def test_spot_average_near_paper(self, spot):
        """Paper: KPTI+retpoline cost 14.5% on LEBench."""
        assert 8.0 <= spot.average_overhead_pct("spot") <= 25.0

    def test_dropping_kpti_reduces_cost(self, spot):
        """Paper: without KPTI the spot overhead falls to 6.6%."""
        assert spot.average_overhead_pct("spot-nokpti") < \
            spot.average_overhead_pct("spot")

    def test_perspective_cheaper_and_stronger(self, spot):
        """The paper's pitch: Perspective costs less than the deployed
        mitigations while covering every variant (Chapter 8 shows the
        coverage; here the cost)."""
        assert spot.average_overhead_pct("perspective") < \
            spot.average_overhead_pct("spot")


class TestAppsShape:
    @pytest.fixture(scope="class")
    def apps(self):
        return run_experiment("apps", {
            "schemes": ["unsafe", "fence", "perspective"], "requests": 30})

    def test_fence_app_overhead_near_paper(self, apps):
        """Paper: 5.7% average throughput loss under FENCE."""
        overhead = apps.average_throughput_overhead_pct("fence")
        assert 2.0 <= overhead <= 10.0

    def test_perspective_apps_near_baseline(self, apps):
        """Paper: 1.2% average throughput loss."""
        overhead = apps.average_throughput_overhead_pct("perspective")
        assert -1.0 <= overhead <= 3.0

    def test_app_overheads_smaller_than_micro(self, apps, lebench):
        """Applications spend 35-50% of time in userspace, diluting the
        kernel-side overhead relative to LEBench."""
        assert apps.average_throughput_overhead_pct("fence") < \
            lebench.average_overhead_pct("fence")

    def test_every_app_loses_under_fence(self, apps):
        for app in apps.total_cycles_per_request:
            assert apps.normalized_rps(app, "fence") < 1.0
