"""Microarchitectural sweeps (ablation data beyond the paper's fixed
Table 7.1 configuration)."""

from __future__ import annotations

from conftest import run_once

from repro.exec import run_experiment


def test_resolve_latency_sweep(benchmark, emit):
    def sweep():
        fence = run_experiment("sweep-branch")
        perspective = run_experiment("sweep-branch",
                                     {"scheme": "perspective"})
        return fence, perspective

    fence, perspective = run_once(benchmark, sweep)
    emit(fence.render() + "\n" + perspective.render()
         + "\n(FENCE scales with the speculation window; Perspective's "
           "rare fences barely notice -- the pliability argument in "
           "hardware terms)")
    values = fence.values()
    assert fence.overhead_pct[values[-1]] > fence.overhead_pct[values[0]]


def test_rob_depth_sweep(benchmark, emit):
    result = run_once(benchmark, lambda: run_experiment("sweep-rob"))
    emit(result.render()
         + "\n(deeper ROBs help the unprotected baseline overlap misses "
           "more than they help FENCE, so the ratio saturates)")
    values = result.values()
    assert result.overhead_pct[values[-1]] == \
        max(result.overhead_pct[v] for v in values[-2:])
