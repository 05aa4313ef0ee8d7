"""Tests for the parameter sweeps: the model must respond in the
physically sensible direction."""

from __future__ import annotations

import pytest

from repro.exec import run_experiment


class TestResolveLatencySweep:
    @pytest.fixture(scope="class")
    def fence(self):
        return run_experiment("sweep-branch", {"values": [4.0, 12.0, 20.0]})

    def test_fence_cost_grows_with_window(self, fence):
        """Longer speculation windows mean longer waits at the visibility
        point: FENCE must get monotonically worse."""
        over = [fence.overhead_pct[v] for v in fence.values()]
        assert over[0] < over[1] < over[2]

    def test_perspective_barely_responds(self):
        """Perspective fences are rare, so the window length moves it far
        less than FENCE."""
        perspective = run_experiment(
            "sweep-branch", {"values": [4.0, 20.0], "scheme": "perspective"})
        fence = run_experiment("sweep-branch", {"values": [4.0, 20.0]})
        p_delta = perspective.overhead_pct[20.0] - \
            perspective.overhead_pct[4.0]
        f_delta = fence.overhead_pct[20.0] - fence.overhead_pct[4.0]
        assert p_delta < f_delta / 3

    def test_render(self, fence):
        text = fence.render()
        assert "branch_resolve_latency" in text and "fence" in text

    def test_every_registered_scheme_is_measured_as_itself(self):
        """Delay-on-Miss holds back speculative L1 misses, so it must cost
        something (it once fell through to the unsafe policy and read
        0.0%)."""
        dom = run_experiment("sweep-branch",
                             {"values": [7.0], "scheme": "dom"})
        assert dom.overhead_pct[7.0] > 0.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            run_experiment("sweep-branch",
                           {"values": [7.0], "scheme": "nonesuch"})
        with pytest.raises(ValueError, match="unknown scheme"):
            run_experiment("sweep-rob", {"values": [48], "scheme": "nonesuch"})


class TestROBSweep:
    def test_relative_overhead_saturates_with_depth(self):
        """A deeper ROB helps the *unsafe* baseline (more miss overlap)
        more than FENCE, whose chains are data-limited rather than
        window-limited -- so the overhead ratio grows a little with depth
        and then saturates once the window covers the dependence chains."""
        sweep = run_experiment("sweep-rob", {"values": [48, 192, 384]})
        assert sweep.overhead_pct[48] < sweep.overhead_pct[192]
        assert sweep.overhead_pct[384] == pytest.approx(
            sweep.overhead_pct[192], abs=2.0)
