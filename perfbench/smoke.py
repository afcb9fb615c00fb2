"""Harness smoke test at tiny scale.

    python3 -m pytest perfbench/smoke.py -q

Runs every workload on tiny programs and checks the contract of the result
line: every metric named in ``BENCHMARK.json`` is emitted with its unit, an
injected wrong answer is reported as a failure (never as a fast op), and the
command refuses to run without the program's sources.  The file name keeps
it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in spec
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_injected_wrong_answer_is_a_failure():
    proc = run("--workload", "cold-corpus", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--tiny", "--inject-wrong-answer")
    assert proc.returncode == 1
    result = result_line(proc)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "FAILED op 1" in proc.stderr


def session_processes(sid: int) -> list:
    """Processes (zombies included) whose session id is ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, ValueError):
            continue
        if int(fields[3]) == sid:
            found.append((int(entry), fields[0]))
    return found


@pytest.mark.parametrize("workload", ["server-mixed", "corpus-fanout"])
def test_no_process_outlives_a_run(workload):
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    assert session_processes(proc.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "cold-corpus", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
