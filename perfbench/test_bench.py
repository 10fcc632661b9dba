"""Self-test of the benchmark: tiny runs of every workload, the printed
metrics against BENCHMARK.json, determinism of the traced counters, and
known-wrong answers reported as failures.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import reference as ref
import tracer
import workloads

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))

# A few rings of each kind that find-gadgets handles in milliseconds.
SMALL_GADGET_TABLE = [
    row for row in workloads.GADGET_TABLE
    if row[0] in ("zmod:5", "zmod:4", "zmod:6", "product:(zmod:2,zmod:3)", "zmod:25")
]


def tiny(name, trace=False, workload=None, jobs=6, seed=3):
    target = name if workload is None else workload
    return run.execute(target, seed, 0.0, trace, jobs=jobs, min_jobs=1, hard_stop=float("inf"))


def small_find_gadgets(table=SMALL_GADGET_TABLE):
    return lambda work_dir: workloads.FindGadgets(work_dir, table)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_tiny_and_prints_every_end_to_end_metric(name):
    workload = small_find_gadgets() if name == "find-gadgets" else None
    result, line = tiny(name, workload=workload)
    assert line["correct"], result["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_workloads_in_the_spec_are_benchmark_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


def test_traced_run_prints_every_per_layer_metric():
    result, line = tiny("certify", trace=True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert [n for n, _, _ in tracer.PER_LAYER] == list(expected)
    shares = [v["value"] for k, v in line["metrics"].items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("name", ["certify", "lower-only", "find-gadgets"])
def test_two_traced_runs_give_identical_counters(name):
    def counters():
        workload = small_find_gadgets() if name == "find-gadgets" else None
        result, line = tiny(name, trace=True, workload=workload, jobs=4)
        values = {k: line["metrics"][k]["value"] for k in tracer.DETERMINISTIC}
        values["output_terms"] = result["output_terms"]
        return json.dumps(values, sort_keys=True)

    first = counters()
    assert first == counters()


def test_a_wrong_expected_gadget_answer_is_a_failure():
    ring, degree, moduli, connected, nilpotent, nonzero = SMALL_GADGET_TABLE[0]
    wrong = [(ring, degree, moduli, not connected, nilpotent, nonzero)] + SMALL_GADGET_TABLE[1:]
    result, line = tiny("find-gadgets", workload=small_find_gadgets(wrong))
    assert not line["correct"]
    assert line["failed"] >= 1
    assert line["metrics"]["ok_frac"]["value"] < 1.0
    assert all("axes status" in reason for _, reason in result["failures"])


def test_a_wrong_fold_reference_is_a_failure(monkeypatch):
    wrong = ref.parse_polynomial("x^2 + 3*y^2")
    monkeypatch.setattr(workloads.Workload, "origin", lambda self, ring: (wrong, None))
    result, line = tiny("lower-only", jobs=3)
    assert line["failed"] == line["attempted"]
    assert all("differs from the fold" in reason for _, reason in result["failures"])


def test_a_job_past_the_limit_fails_at_the_limit(monkeypatch):
    monkeypatch.setattr(workloads, "JOB_LIMIT_S", 0.05)
    outcome = workloads.call(["find-gadgets", "--ring", "zmod:12"])
    assert outcome.failure == "timeout" and outcome.seconds == 0.05
    slow = [row for row in workloads.GADGET_TABLE if row[0] == "zmod:12"]
    result, line = tiny("find-gadgets", workload=small_find_gadgets(slow))
    assert line["failed"] == line["attempted"] >= 1
    assert line["metrics"]["job_p50_ms"]["value"] == pytest.approx(50.0)


def test_reference_agrees_with_the_naive_test_oracle():
    sys.path.insert(0, os.path.join(run.ROOT, "tests"))
    from _naive import naive_definable_set
    from ringlower import ZMod, parse_formula

    for n in (2, 4, 5, 6):
        for text in workloads.CORPUS:
            expected = naive_definable_set(parse_formula(text), ZMod(n))
            assert tuple(ref.defined_set(ref.parse_formula(text), n)) == expected, (text, n)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "lower-only",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_fastest_cpu_stays_within_the_allowed_cpus():
    allowed = os.sched_getaffinity(0)
    cpu = run.FastestCpu()
    try:
        cpu.settle()
        now = os.sched_getaffinity(0)
        assert now <= allowed
        assert len(now) == 1 or not cpu.active
    finally:
        cpu.release()
    assert os.sched_getaffinity(0) == allowed
