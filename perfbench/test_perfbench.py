"""Tests of the benchmark itself (not of specbound).

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
The traced-determinism tests run each workload's request list twice, about a
minute in all.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import tracer
import workloads

REFERENCE = json.loads(run.REFERENCE.read_text())
COUNT_STATS = ("calls", "repeats", "subsets", "vertices", "grid_points", "terms", "levels", "nodes")


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # sweep-riesz and martingale-deep run by hand only; see RATIONALE.md
    assert [w["name"] for w in spec["workloads"]] == ["bound-halfband", "verify-all"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.LAYER_METRICS]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_the_request_list(workload):
    assert workloads.requests(workload, 7) == workloads.requests(workload, 7)
    lists = {json.dumps(workloads.requests(workload, seed)) for seed in range(5)}
    assert len(lists) > 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_request_has_a_reference(workload):
    for seed in range(200):
        reqs = workloads.requests(workload, seed)
        assert len({json.dumps(r) for r in reqs}) == len(reqs)  # no (q, B) repeated
        for argv in reqs:
            assert workloads.reference_key(argv) in REFERENCE


def test_corrupted_reference_raises_failed_frac():
    argv = workloads.requests("bound-halfband", 0)[2]
    outcome = run.run_pass([argv], run.child_env())
    assert run.gate_passes([outcome], REFERENCE)["failed"] == 0
    key = workloads.reference_key(argv)
    for field, corrupt in (("bound", lambda v: v + 1e-6), ("kappa_prime_1", lambda v: float("nan")),
                           ("delta", lambda v: float("inf"))):
        reference = copy.deepcopy(REFERENCE)
        reference[key]["table"][0][field] = corrupt(reference[key]["table"][0][field])
        verdict = run.gate_passes([outcome], reference)
        assert verdict["failed"] == 1 and verdict["failed_known"] == 0, field
    reference = copy.deepcopy(REFERENCE)
    reference[key]["vertex_count"] += 1
    assert run.gate_passes([outcome], reference)["failed"] == 1


def _sweep_outcome(a: str, failing: list[str]) -> dict:
    argv = ["sweep", *workloads.SWEEP_Q, "--a", a]
    ref = REFERENCE[workloads.reference_key(argv)]
    checks = [{"name": n, "passed": n not in failing} for n in ref["checks"]]
    report = {"checks": checks, "results": {"table": copy.deepcopy(ref["table"])}}
    return {"argv": argv, "exit": 1 if failing else 0, "error": None, "report": report}


def test_only_the_a_below_1_fan_check_counts_as_known_defect():
    fan = "sweep/q=64/fan_consistency_bounded"
    assert gate.check_request(_sweep_outcome("0.70", []), REFERENCE) == []
    reasons = gate.check_request(_sweep_outcome("0.70", [fan]), REFERENCE)
    assert len(reasons) == 1 and reasons[0][1] is not None
    reasons = gate.check_request(_sweep_outcome("1", [fan]), REFERENCE)
    assert len(reasons) == 1 and reasons[0][1] is None
    outcome = _sweep_outcome("0.70", [fan])
    outcome["report"]["results"]["table"][0]["peyriere"] = float("nan")
    assert any(defect is None for _r, defect in gate.check_request(outcome, REFERENCE))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_every_wrapper_fires(workload, tmp_path):
    reqs = workloads.requests(workload, 3)
    env = run.child_env()
    counts = []
    for i in range(2):
        outcome = run.run_pass(reqs, env, tmp_path / f"spans{i}.jsonl")
        counts.append({name: {k: stat[k] for k in COUNT_STATS}
                       for name, stat in outcome["layers"].items()})
        spans = [json.loads(line) for line in (tmp_path / f"spans{i}.jsonl").read_text().splitlines()]
        assert len(spans) == sum(stat["calls"] for stat in outcome["layers"].values())
        assert all(s["request"] is not None and s["end"] >= s["start"] for s in spans)
    assert counts[0] == counts[1]
    for target, (_hook, home) in tracer.TARGETS.items():
        if home == workload:
            assert counts[0].get(target, {}).get("calls", 0) > 0, target
    verdict = run.gate_passes([outcome], REFERENCE)
    assert verdict["failed"] == verdict["failed_known"]


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
