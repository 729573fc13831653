"""Self-tests of the benchmark runner.

    python3 -m pytest bench/test_bench.py -q

They check that every workload passes its correctness gates on a short run,
that a failing task makes the runner exit non-zero, that traced runs repeat
their counters exactly and answer as the untraced ones do, and that the
runner refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_short_run_passes_its_gates(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
    result = _result(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_TASKS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("mode", ["wrong", "raises"])
def test_a_failing_task_fails_the_run(mode, monkeypatch, capsys):
    build = workloads.GENERATORS["certify"]

    def broken(lib, rng, scratch):
        workload = build(lib, rng, scratch)
        task = workload.tasks[1]
        if mode == "wrong":
            task.check = lambda out: "injected wrong answer"
        else:
            def boom():
                raise ArithmeticError("injected")
            task.run = boom
        return workload

    monkeypatch.setitem(workloads.GENERATORS, "certify", broken)
    code = run.main(["--workload", "certify", "--seed", "7", "--seconds", "0.1"])
    result = _result(capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["attempted"] >= run.MIN_TASKS


def _trace(workload: str, capsys) -> dict:
    code = run.main(["--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1"])
    result = _result(capsys)
    assert code == 0 and result["correct"], result
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_traced_runs_repeat_their_counters(workload, capsys):
    first, second = _trace(workload, capsys), _trace(workload, capsys)
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}
    counters = [name for name, m in first.items()
                if m["unit"] != "s" and name != "trace.tasks_per_s_ratio"]
    assert {n: first[n]["value"] for n in counters} == {n: second[n]["value"] for n in counters}
    if workload != "cli_ext":
        assert first["scalars.ext_mul.calls"]["value"] == 0
        assert first["scalars.ext_inverse.calls"]["value"] == 0


def test_every_cli_task_has_a_pinned_report():
    pins = json.loads(workloads.PINS_FILE.read_text("utf-8"))
    assert set(pins) == set(workloads.cli_catalog())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable if BENCHMARK["command"][0] == "python3" else BENCHMARK["command"][0]]
    command += BENCHMARK["command"][1:]
    proc = subprocess.run(
        command + ["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
