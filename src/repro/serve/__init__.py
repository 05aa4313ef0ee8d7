"""Multi-tenant traffic simulation (the "heavy traffic" workload plane).

``repro.serve`` opens the workload dimension the paper evaluates with
ab/redis-benchmark/memslap (Ch. 7) but at *multi-tenant* pressure, where
the interesting security/perf trade-off lives: context switches between
distrusting tenants are exactly where ISV/DSV view switches concentrate.

Five modules:

* :mod:`repro.serve.arrival` -- a seeded open-loop arrival process; a
  pure function of ``(seed, config)``, so schedules are byte-identical
  regardless of process, worker count, or hash seed;
* :mod:`repro.serve.engine` -- the deterministic serving engine:
  tenants are cgroup-backed kernel processes placed on one or more
  simulated cores (each a private MiniKernel); a run-to-completion
  scheduler per core charges real context-switch, view-switch and
  migration costs through the pipeline, sheds load at an admission
  bound, and can replay memoized per-class service costs; an
  event-driven loop skips idle gaps, so million-request experiments
  finish in seconds;
* :mod:`repro.serve.shard` -- the ``serve-scale`` grid: one cell per
  shard, merged into scheme x tenants x shards scaling rows;
* :mod:`repro.serve.campaign` -- adversarial campaigns: attacker
  tenants, fault storms and adaptive hardening under live traffic;
* :mod:`repro.serve.conformance` -- the cross-scheme differential
  oracle: every defense scheme must produce identical *architectural*
  results on a seeded syscall corpus, differing only in cycle counts.
"""

from repro.serve.arrival import Arrival, arrival_stream, percentile
from repro.serve.conformance import (
    CONFORMANCE_SCHEMES,
    ConformanceResult,
    check_seed,
    generate_trace,
    minimize_divergence,
    run_corpus,
)
from repro.serve.engine import (
    PLACEMENT_POLICIES,
    Placer,
    ServeConfig,
    ServeReport,
    TenantReport,
    memo_tables_of,
    plan_placement,
    run_serve,
    serve_cell,
    static_placement,
)
from repro.serve.shard import scale_shard_cell

__all__ = [
    "Arrival",
    "arrival_stream",
    "percentile",
    "ServeConfig",
    "ServeReport",
    "TenantReport",
    "run_serve",
    "serve_cell",
    "PLACEMENT_POLICIES",
    "Placer",
    "memo_tables_of",
    "plan_placement",
    "scale_shard_cell",
    "static_placement",
    "CONFORMANCE_SCHEMES",
    "ConformanceResult",
    "check_seed",
    "generate_trace",
    "minimize_divergence",
    "run_corpus",
]
