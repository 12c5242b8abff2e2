"""Tests of the benchmark itself, on a tiny case list through the same code path.

Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dwsurf  # noqa: E402
import harness  # noqa: E402
from cases import END_TO_END, PER_LAYER, WORKLOADS, Case  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cases": (
        Case("symmetric:3", "trivial", "orientable:2", "all", 81, "direct = statesum = verlinde"),
        Case("product(cyclic:2,cyclic:2)", "heisenberg:2", "orientable:2", "all", 4,
             "heisenberg:n at genus g: n^(2g-2)"),
        Case("quaternion:8", "q8:cup", "nonorientable:2", "all", 1, "direct = statesum = verlinde"),
    ),
    "argv": ("check", "--suite", "invariance", "--json", "--workers", "1"),
}


def _units(spec):
    return {name: unit for name, unit, *_ in spec}


def test_case_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == _units(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == _units(PER_LAYER)


@pytest.mark.parametrize("seed", [0, 7])
def test_untraced_run_emits_every_end_to_end_metric(seed):
    cases = harness.build(TINY)
    run = harness.run_untraced(cases, seed, seconds=0, min_passes=2, setup_samples=[0.1, 0.2])
    result = run.result()
    assert run.problems == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (len(TINY["cases"]) + 44)  # 44 invariance rows
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_self_times_add_up_to_traced_wall():
    run = harness.run_traced(TINY, seed=0, seconds=0)
    result = run.result()
    assert run.problems == [] and result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(PER_LAYER)
    self_total = sum(row["self_s"] for row in run.details["layers"].values())
    unattributed = metrics["trace.unattributed_s"]["value"]
    assert self_total + unattributed == pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-9)
    assert 0 <= unattributed < metrics["trace.wall_s"]["value"]
    # exact counts of the tiny list
    assert metrics["cli.checks"]["value"] == 44
    assert metrics["algebra.blocks"]["value"] == metrics["algebra.center_dim"]["value"] > 0
    assert metrics["state_sum.states_visited"]["value"] > 0
    assert run.details["absent_layers"] == []


def test_wrong_pinned_value_is_a_failed_case():
    wrong = {"cases": (TINY["cases"][0]._replace(expected=80),)}
    run = harness.run_untraced(harness.build(wrong), 0, seconds=0, min_passes=1,
                               setup_samples=[0.1])
    assert run.failed == 1 and not run.result()["correct"]


def test_missing_layer_is_reported_absent_and_patches_are_undone():
    original = dwsurf.cross_check
    tracer = Tracer(targets=(("invariants.gone", "dwsurf.invariants", "gone", None),
                             ("invariants.cross_check", "dwsurf.invariants", "cross_check",
                              None)))
    tracer.install()
    try:
        assert dwsurf.cross_check is not original
        assert dwsurf.invariants.cross_check is dwsurf.cross_check
    finally:
        tracer.uninstall()
    assert tracer.absent == ["invariants.gone"]
    assert dwsurf.cross_check is original and dwsurf.invariants.cross_check is original


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check_all",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
