#!/usr/bin/env python3
"""Datacenter operator view: what does each defense cost my server?

Serves redis-benchmark-style traffic against one server model under the
evaluated schemes and prints throughput, the fence breakdown, and the
unknown-allocation sensitivity knob -- the numbers an operator would use
to pick a deployment (Figures 9.2/9.3, Table 10.1, Section 9.2).

Run:  python examples/datacenter_tuning.py [app]
"""

import sys

from repro.defenses import PerspectivePolicy
from repro.eval.envs import make_env
from repro.eval.metrics import FenceBreakdown
from repro.exec import run_experiment
from repro.workloads.apps import APP_NAMES, APP_SPECS, AppWorkload

SCHEMES = ["unsafe", "fence", "dom", "stt", "invisispec", "spot",
           "perspective"]


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "redis"
    if app not in APP_NAMES:
        raise SystemExit(f"unknown app {app!r}; pick one of {APP_NAMES}")

    print(f"== {app}: throughput under each defense "
          f"(kernel-time fraction {APP_SPECS[app].kernel_time_fraction:.0%})")
    exp = run_experiment("apps", {"schemes": SCHEMES, "apps": [app],
                                  "requests": 40})
    for scheme in SCHEMES:
        rps = exp.rps(app, scheme)
        norm = exp.normalized_rps(app, scheme)
        print(f"  {scheme:<14} {rps:>10.0f} rps   {100 * norm:6.1f}% of "
              "baseline")

    print("\n== where Perspective's (small) cost comes from")
    env = make_env(app, "perspective")
    workload = AppWorkload(env.kernel, env.proc, APP_SPECS[app])
    workload.serve(10)  # warm-up
    run = workload.serve(40)
    breakdown = FenceBreakdown.from_exec(workload.driver.stats.exec)
    print(f"  fences: {breakdown.total} over {breakdown.committed_ops} "
          f"committed micro-ops "
          f"({breakdown.fences_per_kiloinstruction('total'):.1f} per "
          "kiloinstruction)")
    print(f"  attribution: ISV {100 * breakdown.isv_share:.0f}%  /  "
          f"DSV {100 * breakdown.dsv_share:.0f}%")
    print(f"  ISV cache hit rate "
          f"{100 * env.framework.isv_cache.stats.hit_rate:.1f}%, "
          f"DSV cache "
          f"{100 * env.framework.dsv_cache.stats.hit_rate:.1f}%")

    print("\n== sensitivity: how much of that is unknown (no-DSV) memory?")
    env2 = make_env(app, "perspective")
    assert isinstance(env2.policy, PerspectivePolicy)
    env2.policy.treat_unknown_as_owned = True  # measurement-only knob
    workload2 = AppWorkload(env2.kernel, env2.proc, APP_SPECS[app])
    workload2.serve(10)  # warm-up
    run2 = workload2.serve(40)
    delta = run.kernel_cycles_per_request - run2.kernel_cycles_per_request
    pct = 100 * delta / run.kernel_cycles_per_request
    print(f"  allowing unknown memory to speculate saves "
          f"{delta:.0f} cycles/request ({pct:.2f}% of kernel time) -- "
          "the cost of conservatively blocking global/per-cpu state.")


if __name__ == "__main__":
    main()
