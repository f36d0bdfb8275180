"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_runs" / "tests"
COUNT_SUFFIXES = (".calls", ".base", ".solves_per_call", ".hit_ratio")


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "COLD_REPEATS", 1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic(name):
    wl = workloads.make(name, ROOT, SCRATCH)
    first, again, other = wl.generate(7), wl.generate(7), wl.generate(8)
    assert workloads.fingerprint(first) == workloads.fingerprint(again)
    assert workloads.fingerprint(first) != workloads.fingerprint(other)
    warm = wl.generate(workloads.WARMUP_SEED, count=1)
    assert warm == wl.generate(workloads.WARMUP_SEED, count=1)


def test_oracle_shares_no_code_with_the_package():
    tree = ast.parse((BENCH / "oracle.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported <= {"__future__", "functools", "math", "typing"}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS]
    assert spec["paths"] == [BENCH.name]


def test_per_layer_counts_repeat_exactly_on_one_seed():
    first = run.run("statics_cutoff", 3, 0.01, True)
    second = run.run("statics_cutoff", 3, 0.01, True)
    assert first["correct"] and second["correct"]
    counts = {name: entry["value"] for name, entry in first["metrics"].items()
              if name.endswith(COUNT_SUFFIXES)}
    assert counts["contest.solve_contest.calls"] > 0
    assert counts["entry.cutoff_psi.solves_per_call"] > 1
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert {name for name, _ in run.PER_LAYER} == set(first["metrics"])


def test_untraced_runs_carry_no_wrappers(monkeypatch):
    seen = []
    real = workloads.EffortSolve.run

    def spy(self, arg):
        seen.append(tracing.wrapped_bindings())
        return real(self, arg)

    monkeypatch.setattr(workloads.EffortSolve, "run", spy)
    result = run.run("effort_solve", 1, 0.02, False)
    assert result["correct"] and seen and not any(seen)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}

    seen.clear()
    run.run("effort_solve", 1, 0.02, True)
    assert any(seen), "a traced pass should have found its wrappers"
    assert tracing.wrapped_bindings() == []


def test_wrong_answers_count_as_failed(monkeypatch):
    import tricontest

    real = tricontest.solve_contest

    def off_by_a_little(instance, settings=None):
        eq = real(instance, settings)
        return dataclasses.replace(eq, total_effort=eq.total_effort * (1 + 1e-6))

    monkeypatch.setattr(tricontest, "solve_contest", off_by_a_little)
    result = run.run("effort_solve", 1, 0.02, False)
    assert not result["correct"]
    # Only the set-up child, a fresh interpreter without the patch, passes.
    assert result["failed"] == result["attempted"] - run.SETUP_REPEATS > 0


def test_a_dropped_stable_set_counts_as_failed(monkeypatch):
    import tricontest

    real = tricontest.assemble_spe
    monkeypatch.setattr(tricontest, "assemble_spe",
                        lambda scenario, **kw: real(scenario, **kw)[1:])
    result = run.run("entry_enumerate", 1, 0.01, False)
    assert not result["correct"] and result["failed"] > 0


def test_a_wrong_welfare_figure_counts_as_failed(monkeypatch):
    import tricontest

    real = tricontest.welfare_report

    def inflated(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, rent_ratio=report.rent_ratio * 1.001)

    monkeypatch.setattr(tricontest, "welfare_report", inflated)
    result = run.run("statics_cutoff", 1, 0.01, False)
    assert not result["correct"] and result["failed"] > 0


def test_changed_cli_output_counts_as_failed(monkeypatch):
    real = workloads.CliCold.run

    def trailing_space(self, arg):
        code, text = real(self, arg)
        return code, text + " "

    monkeypatch.setattr(workloads.CliCold, "run", trailing_space)
    result = run.run("cli_cold", 1, 0.01, False)
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_package():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run([sys.executable, *command[1:], "--workload", "effort_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
