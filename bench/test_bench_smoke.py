"""Smoke test of the benchmark itself (collected by tier-1, a few seconds).

Runs every workload at ``--scale smoke`` through the same command line the
benchmark driver uses and holds the output to ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import workloads

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "environment " in completed.stdout  # the fingerprint rides along
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_contract_names_the_workloads_the_benchmark_has():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["bench"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_and_nothing_else(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {
        metric["name"]: metric["unit"]
        for metric in CONTRACT["per_layer" if trace else "end_to_end"]
    }
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    assert emitted == expected
    for name, value in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert isinstance(value["value"], (int, float))


def test_a_bad_call_is_counted_and_does_not_abort_the_run(tmp_path):
    spec = workloads.SPECS["smoke"]["interactive_csvm"]
    inputs = workloads.make_inputs(3, spec)
    system = workloads.build_system(spec, inputs, tmp_path)
    try:
        result = workloads.run_clients(system, spec, inputs, 0.0, inject_bad_call=True)
        assert result.count("failed") == result.count("failed", "round") == 1
        assert result.count("failed") / result.count("attempted") > 0
        assert result.completed == spec.fixed_sessions
        assert workloads.check_outputs(result, inputs, system, expect_failures=1) == []
        assert workloads.check_outputs(result, inputs, system) != []
    finally:
        system.close()


def test_the_generator_is_a_pure_function_of_the_seed():
    spec = workloads.SPECS["smoke"]["log_growth"]
    first, again, other = (workloads.make_inputs(seed, spec) for seed in (11, 11, 12))
    assert first.digest() == again.digest() != other.digest()
    assert (first.queries == again.queries).all() and first.seed_log == again.seed_log
    assert (first.queries != other.queries).any() and first.seed_log != other.seed_log


def test_runner_refuses_a_tree_without_the_library(tmp_path):
    """Outside a full checkout (only the benchmark's own files present) the
    command must exit non-zero without printing a result."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wave_search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
