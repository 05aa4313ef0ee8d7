"""repro.exec -- the deterministic experiment engine.

Every experiment in the evaluation (LEBench, applications, breakdown,
attack surface, gadgets, Kasper, the attack matrix, sweeps, sensitivity
analyses) is a grid of independent (workload, scheme, params) **cells**,
run in process by ``run_experiment(name, params)``; the resilient
campaign runner (:mod:`repro.reliability`) schedules the same grids and
journals their cell payloads.  This package runs those cells through:

* :mod:`repro.exec.engine` -- in-process or process-pool scatter/gather
  with seeded, order-independent merging, byte-identical at any worker
  count;
* :mod:`repro.exec.cache` -- a content-addressed on-disk result cache,
  so re-runs (and unrelated code edits) replay instantly;
* :mod:`repro.exec.fingerprint` -- cell addresses derived from the cell
  configuration plus the source of every ``repro`` module the cell's
  entry points transitively import;
* :mod:`repro.exec.grids` -- the one experiment registry: each
  experiment's parameters, cells, and how to reassemble them.

See ``python -m repro.exec --help`` for the CLI and
``docs/performance.md`` for the full story.
"""

from repro.exec.cache import ResultCache, ResultCacheStats, default_cache_dir
from repro.exec.engine import (
    EngineConfig,
    ExperimentEngine,
    IsolatedResult,
    RunReport,
    run_experiment,
    run_in_subprocess,
)
from repro.exec.fingerprint import (
    cell_fingerprint,
    code_fingerprint,
    import_closure,
)
from repro.exec.grids import GRIDS, Grid, get_grid, grid_names

__all__ = [
    "GRIDS",
    "EngineConfig",
    "ExperimentEngine",
    "Grid",
    "IsolatedResult",
    "ResultCache",
    "ResultCacheStats",
    "RunReport",
    "cell_fingerprint",
    "code_fingerprint",
    "default_cache_dir",
    "get_grid",
    "grid_names",
    "import_closure",
    "run_experiment",
    "run_in_subprocess",
]
