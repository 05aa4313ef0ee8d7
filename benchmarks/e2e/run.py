#!/usr/bin/env python3
"""The end-to-end benchmark: host time of the simulator on four workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [-o results.json]
    python3 benchmarks/e2e/run.py --workload serve-full --seed 3 \\
        --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload serve-full --trace 1
    python3 benchmarks/e2e/run.py compare A.json B.json

Untraced (``--trace 0``) prints the end-to-end metrics of
``BENCHMARK.json``; traced (``--trace 1``) prints the per-layer host-time
split and writes folded stacks and a Chrome trace to ``--out-dir``.
Without ``--workload`` every workload runs, one after another.  The last
line of standard output is one JSON object; the exit code is 1 when a
check fails.

Every measurement runs in fresh child processes of this script, one at a
time.  An untraced run starts ``CHILDREN`` children that each set up and
time reps for a share of the window; their reps are pooled, so the
samples span several processes and stretches of the host's load, and
``setup_s`` is the median of their set-up times (child start, before
``import repro``, to the first timed rep).  The last child also runs the
workload's checks.  Each child keeps to one CPU and runs a calibration
loop around every rep, and host-time rates are in reference-host seconds
(``calibration.py``).  A traced run pairs an untraced child with a traced
one and reports the ratio of their rep times as ``trace_overhead``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("lebench-perspective", "lebench-unsafe-jit", "serve-full",
             "serve-memo")
#: Measuring children (and so set-ups) per untraced run.
CHILDREN = 2
#: A single-workload run must end within this many seconds.
DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Metrics from child payloads
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """The median, quartiles (``statistics.quantiles(n=4)``) and count."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def reference_s(rep: dict) -> float:
    """A rep's host time in reference-host seconds: its CPU seconds scaled
    by how much slower than on the reference host the calibration loop
    ran around it (``calibration.py``).

    CPU time leaves out the stretches the child was not running at all,
    and the calibration how much slower the host ran it when it did.
    """
    return rep["cpu"] * calibration.REFERENCE_S / rep["calibration_s"]


def end_to_end(payloads: list[dict]) -> dict:
    """The end-to-end metrics of an untraced run's children: medians over
    the pooled reps (over children for ``setup_s`` and ``peak_rss_mb``)."""
    reps = [r for p in payloads for r in p["reps"]]
    return {
        "setup_s": summary([p["setup_s"] for p in payloads]),
        "ops_per_s": summary([r["ops"] / reference_s(r) for r in reps]),
        "sim_mcycles_per_s": summary(
            [r["sim_cycles"] / reference_s(r) / 1e6 for r in reps]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in payloads]),
        "sim_cycles_per_op": summary([r["cycles_per_op"] for r in reps]),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """The per-layer metrics of a traced child, plus the tracing cost
    against its untraced twin (median reps, in reference-host seconds)."""
    out = {name: summary([value])
           for name, value in traced["layers"]["metrics"].items()}
    for q in ("p50", "p99"):
        out[f"sim.latency_{q}_cycles"] = summary(
            [r[q] for r in traced["reps"]])
    out["trace_overhead"] = summary([
        statistics.median(map(reference_s, traced["reps"]))
        / statistics.median(map(reference_s, untraced["reps"]))])
    return out


def outcome(payloads: list[dict], extra_checks: list = ()) -> dict:
    """correct / attempted / failed over reps and checks; children of one
    run must agree on the simulated outputs."""
    same = len({p["reps"][0]["digest"] for p in payloads}) == 1
    checks = [c for p in payloads for c in p["checks"]] \
        + [("child processes agree on simulated outputs", same)] + list(extra_checks)
    attempted = sum(len(p["reps"]) for p in payloads) + len(checks)
    failed = sum(p["failed_reps"] for p in payloads) \
        + sum(not ok for _, ok in checks)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "checks": checks}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child(kind: str, workload: str, seed: int, seconds: float, trace: int,
          out_dir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", kind,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"e2e: {workload} {kind} child timed out")
    if proc.returncode != 0:
        raise SystemExit(f"e2e: {workload} {kind} child exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(args) -> int:
    # One CPU for the whole child: moving between vCPUs mid-rep costs it
    # its caches at times the host, not the program, decides.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Before anything else, so that the buffer is part of every moment's
    # RSS and peak RSS less the buffer is the program's peak.
    calibration.allocate()
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    payload = measure.measure(
        args.workload, args.seed, args.seconds, t0=_T0,
        trace=bool(args.trace), checks=args.child == "final",
        out_dir=Path(args.out_dir))
    print(json.dumps(payload))
    return 0


def run_workload(workload: str, args) -> dict:
    """One workload: its metrics plus correct / attempted / failed."""
    deadline = time.perf_counter() + DEADLINE_S
    out_dir = Path(args.out_dir)

    def spawn(kind, seconds, trace=0):
        return child(kind, workload, args.seed, seconds, trace, out_dir,
                     deadline)

    if args.trace:
        # Half the window each: untraced twin first, then traced.
        untraced = spawn("part", args.seconds / 2)
        traced = spawn("part", args.seconds / 2, trace=1)
        layers = traced["layers"]
        result = outcome([untraced, traced], [
            ("layer self times sum to the reps' wall time",
             layers["sum_error"] <= 0.01)])
        result["metrics"] = per_layer(traced, untraced)
        result["sum_error"] = layers["sum_error"]
        return result
    payloads = [spawn("part", args.seconds / CHILDREN)
                for _ in range(CHILDREN - 1)]
    payloads.append(spawn("final", args.seconds / CHILDREN))
    result = outcome(payloads)
    result["metrics"] = end_to_end(payloads)
    return result


# ---------------------------------------------------------------------------
# Output and comparison
# ---------------------------------------------------------------------------


def spec_metrics(spec: dict, trace: int) -> dict:
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def table(results: dict, spec_by_name: dict) -> str:
    lines = [f"{'workload':<20} {'metric':<32} {'value':>14} {'q1':>14} "
             f"{'q3':>14} {'n':>4}  unit"]
    for workload, result in results.items():
        for name, spec in spec_by_name.items():
            m = result["metrics"][name]
            lines.append(f"{workload:<20} {name:<32} {m['value']:>14.6g} "
                         f"{m['q1']:>14.6g} {m['q3']:>14.6g} {m['n']:>4}  "
                         f"{spec['unit']}")
        for name, ok in result["checks"]:
            lines.append(f"{workload:<20} check: {name}: "
                         f"{'ok' if ok else 'FAILED'}")
    return "\n".join(lines)


def result_line(results: dict, spec_by_name: dict, single: bool) -> dict:
    """The last stdout line: metrics by name (``workload.name`` when more
    than one workload ran)."""
    metrics = {}
    for workload, result in results.items():
        for name, spec in spec_by_name.items():
            key = name if single else f"{workload}.{name}"
            metrics[key] = {"value": result["metrics"][name]["value"],
                            "unit": spec["unit"]}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


def compare(path_a: str, path_b: str) -> int:
    """Per workload x metric: both values and quartiles, the change
    against the metric's bound, and a verdict.  Exit 1 on a regression."""
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressed = False
    print(f"{'workload':<20} {'metric':<24} {'A value [q1, q3]':>34} "
          f"{'B value [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for name, m in spec.items():
            ma = a[workload]["metrics"].get(name)
            mb = b[workload]["metrics"].get(name)
            if ma is None or mb is None:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mb["value"] - ma["value"]) / ma["value"] \
                if ma["value"] else 0.0
            spread = max((x["q3"] - x["q1"]) / x["value"] if x["value"]
                         else 0.0 for x in (ma, mb))
            if worse > m["bound"] and worse > spread:
                verdict, regressed = "REGRESSED", True
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            cells = [f"{x['value']:.6g} [{x['q1']:.6g}, {x['q3']:.6g}]"
                     for x in (ma, mb)]
            print(f"{workload:<20} {name:<24} {cells[0]:>34} {cells[1]:>34} "
                  f"{100 * worse:>+7.2f}% {100 * m['bound']:>5.0f}%  "
                  f"{verdict}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description="End-to-end host-time benchmark of the simulator.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload input seed (LEBench rare-path "
                        "period, serve arrivals)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("-o", "--output", help="write results JSON here")
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_out"),
                        help="traced runs write stacks and traces here")
    parser.add_argument("--child", choices=("part", "final"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("e2e: no src/repro in this checkout", file=sys.stderr)
        return 2
    if args.child:
        return run_child(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: run_workload(name, args) for name in names}
    spec_by_name = spec_metrics(spec, args.trace)
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": results},
            indent=1, sort_keys=True) + "\n")
    print(table(results, spec_by_name))
    line = result_line(results, spec_by_name, single=len(names) == 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
