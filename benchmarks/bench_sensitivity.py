"""Section 9.2 sensitivity analyses: unknown allocations, view-cache hit
rates, slab fragmentation, and domain reassignment."""

from __future__ import annotations

from conftest import run_once

from repro.exec import run_experiment


def test_unknown_allocations(benchmark, emit):
    result = run_once(benchmark,
                      lambda: run_experiment("unknown-allocations"))
    emit(f"Unknown allocations (paper: 1.5 points of LEBench overhead)\n"
         f"full enforcement:   {result.overhead_full_pct:+.2f}%\n"
         f"unknown allowed:    {result.overhead_unknown_allowed_pct:+.2f}%\n"
         f"unknown share:      {result.unknown_contribution_pct:+.2f} points")
    assert result.unknown_contribution_pct > 0.2


def test_view_cache_hit_rates(benchmark, emit):
    exp = run_once(benchmark, lambda: run_experiment(
        "breakdown", {"workloads": ["lebench", "httpd", "redis"]}))
    lines = ["View-cache hit rates (paper: ~99% for both structures)"]
    for workload in exp.isv_cache_hit_rate:
        isv = exp.isv_cache_hit_rate[workload]["perspective"]
        dsv = exp.dsv_cache_hit_rate[workload]["perspective"]
        lines.append(f"{workload:<10} isv {100 * isv:.1f}%  "
                     f"dsv {100 * dsv:.1f}%")
        assert isv > 0.95 and dsv > 0.95
    emit("\n".join(lines))


def test_secure_slab_fragmentation_and_reassignment(benchmark, emit):
    result = run_once(benchmark,
                      lambda: run_experiment("slab-sensitivity"))
    lines = ["Secure slab allocator (paper: 0.91% memory overhead; "
             "redis 0.23%/96 reassignments per s, others near zero)"]
    for app in result.secure_utilization:
        lines.append(
            f"{app:<10} memory overhead "
            f"{result.memory_overhead_pct(app):+.2f}%  "
            f"page-return ratio {100 * result.page_return_ratio[app]:.2f}%  "
            f"reassign/s {result.reassignments_per_second[app]:.0f}")
    lines.append(f"average overhead "
                 f"{result.average_memory_overhead_pct():+.2f}%")
    lines.append("NOTE: per-second figures are inflated by the sampled "
                 "request counts (simulated seconds are tiny); the ratio "
                 "ordering redis >> others is the comparable shape.")
    emit("\n".join(lines))
    assert 0.0 < result.average_memory_overhead_pct() < 3.0
    assert result.page_return_ratio["redis"] >= \
        result.page_return_ratio["httpd"]
