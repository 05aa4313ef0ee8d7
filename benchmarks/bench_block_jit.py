"""Benchmark basic-block trace memoization (``repro.cpu.blockcache``).

Measures the block JIT's replay speedup at four granularities, asserting
**byte-exact parity** (architectural results AND cycle counts) between
cache-on and cache-off at every one, and writes a diffgate-compatible
snapshot (``repro.obs.MetricsRegistry`` shape):

* **counters/gauges** -- parity flags, simulated cycles, per-test ROI
  cycles, and block-cache hit/miss/invalidation counts.  Fully
  deterministic (fixed image seed, fixed run counts), so CI byte-gates
  them with ``python -m repro.obs diff`` against the committed
  ``benchmarks/out/BENCH_block_jit.json``.
* **meta** -- wall-clock seconds and speedups.  Machine-dependent, so it
  rides in ``meta``, which the diff gate skips: the committed numbers
  are a trajectory record, not a gate.

The workloads, from best case to whole system:

* ``straightline`` -- one 256-op ALU basic block, the pure-replay upper
  bound.  The ``>= 5x`` speedup target gates here (``--no-gate`` to
  skip, e.g. on heavily loaded machines).
* ``loop`` -- an 8-op loop body iterated 200 times: back-edge chaining
  inside one compiled region, no interpreter round-trips.
* ``lebench`` -- the full LEBench suite end-to-end on a real kernel
  (gated ``>= 1.3x``), plus per-test speedups.  Byte-exact per-op
  timing replication (every load still walks TLB/L1/L2 state) bounds
  the end-to-end gain well below the straight-line bound; the analysis
  lives in ``docs/performance.md``.
* ``serve`` -- the multi-tenant smoke grid through ``run_serve``,
  identical reports either way.

Usage::

    python benchmarks/bench_block_jit.py -o out.json [--no-gate]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cpu.isa import AluOp, CodeLayout, Function, alu, br, li, ret
from repro.cpu.memsys import MainMemory
from repro.cpu.pipeline import ExecutionContext, Pipeline
from repro.exec.snapshots import SNAPSHOTS
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.obs import MetricsRegistry
from repro.serve.engine import ServeConfig, run_serve
from repro.workloads.lebench import build_tests, run_lebench

#: The serve smoke grid: the seeds, tenant counts and requests per tenant
#: of the ``serve_smoke`` snapshot, resolved through its grid (each run
#: keeps ``ServeConfig``'s other defaults).
SERVE_SMOKE = SNAPSHOTS["serve_smoke"].resolve()

#: Speedup floors enforced unless ``--no-gate`` (CI safety margins well
#: under the measured numbers, which fluctuate with machine load).
GATE_STRAIGHTLINE = 5.0
GATE_LEBENCH = 1.3


# ---------------------------------------------------------------------------
# Microbench programs
# ---------------------------------------------------------------------------


def _straightline_func(layout: CodeLayout, n_ops: int = 256) -> Function:
    """One giant straight-line ALU block: the replay best case."""
    ops = [li("r1", 3), li("r2", 5)]
    kinds = (AluOp.ADD, AluOp.XOR, AluOp.SUB)
    k = 0
    while len(ops) < n_ops - 1:
        ops.append(alu(f"r{3 + k % 8}", kinds[k % 3],
                       "r1" if k % 2 else "r2", f"r{3 + (k + 1) % 8}"))
        k += 1
    ops.append(ret())
    return layout.add(Function("straightline", ops))


def _loop_func(layout: CodeLayout, iters: int = 200) -> Function:
    """A small loop body: back-edges chain inside the compiled region."""
    return layout.add(Function("loop", [
        li("r1", iters), li("r2", 3),
        alu("r3", AluOp.ADD, "r2", "r2"),   # loop head
        alu("r4", AluOp.XOR, "r3", "r1"),
        alu("r5", AluOp.ADD, "r4", "r2"),
        alu("r6", AluOp.XOR, "r5", "r3"),
        alu("r7", AluOp.ADD, "r6", "r2"),
        alu("r1", AluOp.SUB, "r1", imm=1),
        br("r1", target=2),
        ret(),
    ]))


def _run_micro(build, enable: bool, warmup: int = 3, inner: int = 20,
               repeats: int = 5):
    """Fresh pipeline; warm it, then best-of-``repeats`` timed batches.
    Returns (seconds per run, final ExecResult)."""
    layout = CodeLayout(0x40000, stride_ops=1024)
    func = build(layout)
    pipeline = Pipeline(layout, MainMemory())
    pipeline.config.enable_block_cache = enable
    for _ in range(warmup):
        result = pipeline.run(func, ExecutionContext(1))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            result = pipeline.run(func, ExecutionContext(1))
        best = min(best, time.perf_counter() - start)
    return best / inner, result


def _micro(reg: MetricsRegistry, name: str, build) -> float:
    t_off, r_off = _run_micro(build, enable=False)
    t_on, r_on = _run_micro(build, enable=True)
    assert r_off.regs == r_on.regs, f"{name}: architectural divergence"
    assert r_off.cycles == r_on.cycles, f"{name}: timing divergence"
    reg.add(f"block_jit.parity.{name}")
    reg.gauge(f"block_jit.{name}.cycles", r_on.cycles)
    reg.gauge(f"block_jit.{name}.committed_ops", r_on.committed_ops)
    speedup = t_off / t_on
    reg.meta[f"speedup_{name}"] = f"{speedup:.2f}"
    print(f"{name:<14} off={t_off * 1e6:8.1f}us  on={t_on * 1e6:8.1f}us  "
          f"speedup={speedup:.2f}x", file=sys.stderr)
    return speedup


# ---------------------------------------------------------------------------
# LEBench (end-to-end and per-test)
# ---------------------------------------------------------------------------


def _lebench_config(enable: bool, timed_runs: int = 2):
    """One kernel per config: a warmup suite run (which also compiles),
    then ``timed_runs`` timed suite runs, best-of kept."""
    kernel = MiniKernel(image=shared_image())
    kernel.pipeline.config.enable_block_cache = enable
    proc = kernel.create_process("lebench")
    results = [run_lebench(kernel, proc)]
    best = float("inf")
    for _ in range(timed_runs):
        start = time.perf_counter()
        results.append(run_lebench(kernel, proc))
        best = min(best, time.perf_counter() - start)
    return kernel, proc, results, best


def _mem_stats(kernel: MiniKernel):
    pipe = kernel.pipeline
    return (kernel.memory.digest(),
            pipe.tlb.stats.hits, pipe.tlb.stats.misses,
            pipe.hierarchy.l1i.stats.hits, pipe.hierarchy.l1i.stats.misses,
            pipe.hierarchy.l1d.stats.hits, pipe.hierarchy.l1d.stats.misses,
            pipe.hierarchy.l2.stats.hits, pipe.hierarchy.l2.stats.misses)


def _lebench(reg: MetricsRegistry) -> float:
    k_off, p_off, res_off, t_off = _lebench_config(False)
    k_on, p_on, res_on, t_on = _lebench_config(True)
    assert res_off == res_on, "lebench: per-test ROI cycles diverged"
    assert _mem_stats(k_off) == _mem_stats(k_on), \
        "lebench: memory/TLB/cache state diverged"
    reg.add("block_jit.parity.lebench")
    bc = k_on.pipeline._blockcache
    reg.add("block_jit.lebench.hits", bc.hits)
    reg.add("block_jit.lebench.misses", bc.misses)
    reg.add("block_jit.lebench.invalidations", bc.invalidations)
    reg.add("block_jit.lebench.compiled_blocks", bc.compiled_blocks)
    for name, cycles in res_on[-1].items():
        reg.gauge(f"block_jit.lebench.roi_cycles.{name}", round(cycles, 6))
    speedup = t_off / t_on
    reg.meta["speedup_lebench"] = f"{speedup:.2f}"
    reg.meta["wall_lebench_off_s"] = f"{t_off:.2f}"
    reg.meta["wall_lebench_on_s"] = f"{t_on:.2f}"
    print(f"{'lebench':<14} off={t_off:8.2f}s   on={t_on:8.2f}s   "
          f"speedup={speedup:.2f}x  (hits={bc.hits} misses={bc.misses})",
          file=sys.stderr)

    # Per-test wall speedups on the already-warm kernels (trajectory
    # record only; spin-wait heavy tests replay best).
    for test in build_tests():
        walls = []
        for kernel, proc in ((k_off, p_off), (k_on, p_on)):
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                run_lebench(kernel, proc, tests=[test])
                best = min(best, time.perf_counter() - start)
            walls.append(best)
        reg.meta[f"speedup_lebench.{test.name}"] = \
            f"{walls[0] / walls[1]:.2f}"
    return speedup


# ---------------------------------------------------------------------------
# Serve smoke grid
# ---------------------------------------------------------------------------


def _serve(reg: MetricsRegistry) -> float:
    # Warm the process-wide code cache first: a serve cell is a fresh
    # short-lived kernel, so the timed grid measures the steady state
    # (codegen and compiles amortized), not one-off compile cost.
    run_serve(ServeConfig(scheme="perspective", seed=0,
                          tenants=max(SERVE_SMOKE["tenants"]),
                          requests_per_tenant=SERVE_SMOKE[
                              "requests_per_tenant"]),
              block_cache=True)
    total_off = total_on = 0.0
    for seed in SERVE_SMOKE["seeds"]:
        for tenants in SERVE_SMOKE["tenants"]:
            config = ServeConfig(
                scheme="perspective", seed=seed, tenants=tenants,
                requests_per_tenant=SERVE_SMOKE["requests_per_tenant"])
            start = time.perf_counter()
            off = run_serve(config, block_cache=False)
            mid = time.perf_counter()
            on = run_serve(config, block_cache=True)
            end = time.perf_counter()
            assert off.as_dict() == on.as_dict(), \
                f"serve s{seed}.t{tenants}: report diverged"
            reg.add(f"block_jit.parity.serve.s{seed}.t{tenants}")
            reg.gauge(f"block_jit.serve.makespan.s{seed}.t{tenants}",
                      on.makespan_cycles)
            total_off += mid - start
            total_on += end - mid
    speedup = total_off / total_on
    reg.meta["speedup_serve_smoke"] = f"{speedup:.2f}"
    print(f"{'serve-smoke':<14} off={total_off:8.2f}s   "
          f"on={total_on:8.2f}s   speedup={speedup:.2f}x",
          file=sys.stderr)
    return speedup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="snapshot path (default: stdout)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record speedups without enforcing floors")
    args = parser.parse_args(argv)

    reg = MetricsRegistry(meta={"bench": "block_jit"})
    straightline = _micro(reg, "straightline", _straightline_func)
    _micro(reg, "loop", _loop_func)
    lebench = _lebench(reg)
    _serve(reg)

    text = reg.to_json(indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"snapshot written to {args.output}", file=sys.stderr)
    else:
        print(text, end="")

    if not args.no_gate:
        assert straightline >= GATE_STRAIGHTLINE, \
            (f"straightline replay {straightline:.2f}x under the "
             f"{GATE_STRAIGHTLINE}x floor")
        assert lebench >= GATE_LEBENCH, \
            (f"lebench end-to-end {lebench:.2f}x under the "
             f"{GATE_LEBENCH}x floor")
        print(f"gates passed: straightline {straightline:.2f}x >= "
              f"{GATE_STRAIGHTLINE}x, lebench {lebench:.2f}x >= "
              f"{GATE_LEBENCH}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
