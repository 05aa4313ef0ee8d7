"""Self-test of the end-to-end benchmark, on a reduced size table.

    python -m pytest benchmarks/e2e/test_e2e.py -q

Calls the same ``measure`` the benchmark's child processes run, with
``SMALL`` in place of ``workloads.SIZES``; under a minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402

_LEBENCH_TESTS = ("getpid", "mmap", "read", "select")
SMALL = {
    "lebench-perspective": {"scheme": "perspective", "suites_per_rep": 1,
                            "warmup_suites": 2, "tests": _LEBENCH_TESTS},
    "lebench-unsafe-jit": {"scheme": "unsafe", "suites_per_rep": 1,
                           "warmup_suites": 2, "tests": _LEBENCH_TESTS},
    "serve-full": {"seed_drives": "rare_every", "tenants": 3, "shards": 2,
                   "placement": "least-loaded", "migrate_every": 2,
                   "mean_interarrival": 20000.0, "requests_per_tenant": 3,
                   "service_model": "full"},
    "serve-memo": {"seed_drives": "arrivals", "tenants": 2, "shards": 2,
                   "placement": "least-loaded",
                   "migrate_every": 50, "service_model": "memo",
                   "memo_period": 24, "rare_every": 0, "profile_requests": 2,
                   "mean_interarrival": 40000.0, "requests_per_tenant": 300},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIM = ("sim_cycles_per_op",)


def _measure(workload: str, seed: int, **kwargs) -> dict:
    return measure.measure(workload, seed, 0.0, sizes=SMALL, **kwargs)


@pytest.fixture(scope="module", params=list(SMALL))
def runs(request):
    workload = request.param
    plain = _measure(workload, 0)
    return {
        "workload": workload,
        "plain": plain,
        "metrics": run.end_to_end([plain]),
        "traced": _measure(workload, 0, trace=True, checks=False),
        "again": _measure(workload, 0, checks=False),
        "other": _measure(workload, 1, checks=False),
    }


def test_checks_pass(runs):
    result = run.outcome([runs["plain"], runs["again"]])
    assert result["correct"], result["checks"]


def test_every_metric_is_printed_with_its_unit(runs):
    workload = runs["workload"]
    printed = {
        0: (runs["metrics"], "end_to_end"),
        1: (run.per_layer(runs["traced"], runs["plain"]), "per_layer"),
    }
    for trace, (metrics, section) in printed.items():
        results = {workload: {**run.outcome([runs["plain"]]),
                              "metrics": metrics}}
        by_name = run.spec_metrics(SPEC, trace)
        assert set(metrics) == set(by_name)
        lines = run.table(results, by_name).splitlines()
        line = run.result_line(results, by_name, single=True)
        for name, spec in by_name.items():
            assert any(row.split()[1] == name and row.endswith(spec["unit"])
                       for row in lines), (section, name)
            assert line["metrics"][name]["unit"] == spec["unit"]
            assert math.isfinite(line["metrics"][name]["value"])
    for spec in SPEC["end_to_end"]:
        assert runs["metrics"][spec["name"]]["value"] > 0, spec["name"]


def test_layer_self_times_sum_to_the_root(runs):
    assert runs["traced"]["layers"]["sum_error"] <= 0.01


def test_traced_outputs_equal_untraced(runs):
    assert [r["digest"] for r in runs["traced"]["reps"]] \
        == [runs["plain"]["reps"][0]["digest"]] * len(runs["traced"]["reps"])


def test_seed_reproduces_sim_metrics_and_another_seed_changes_them(runs):
    def sim(payload):
        metrics = run.end_to_end([payload])
        return {name: metrics[name]["value"] for name in SIM}

    assert sim(runs["again"]) == sim(runs["plain"])
    assert sim(runs["other"]) != sim(runs["plain"])


def _results(ops_per_s: float) -> dict:
    metric = {"value": ops_per_s, "q1": ops_per_s, "q3": ops_per_s, "n": 5}
    return {"workloads": {"serve-memo": {"metrics": {"ops_per_s": metric}}}}


@pytest.mark.parametrize("after,status", [(100.0, 0), (50.0, 1)])
def test_compare_exits_1_on_a_regression(tmp_path, capsys, after, status):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_results(100.0)))
    b.write_text(json.dumps(_results(after)))
    assert run.compare(str(a), str(b)) == status
    assert ("REGRESSED" in capsys.readouterr().out) == bool(status)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve-memo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
