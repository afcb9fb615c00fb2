"""Tests for the differential oracle harness and its wiring."""

import json
import subprocess
import sys

import pytest

from repro import analyze_program
from repro.eval.workloads import generated_suite
from repro.gen import (
    GenProfile,
    OracleMismatch,
    answer_key_json,
    generate_corpus,
    generate_program,
    load_naive_reference,
    result_fingerprint,
    run_oracle,
    write_corpus,
)


def test_oracle_sweep_is_clean_on_a_small_corpus():
    report = run_oracle(
        count=4,
        seed=123,
        profile=GenProfile.smoke(),
        profile_name="smoke",
        backends=("serial", "processes"),
        derives_samples=1,
    )
    assert report.ok, report.summary()
    assert report.programs == 4
    assert report.checks["backend:processes"] == 4
    assert report.fanout_chunks > 0
    assert report.checks["cache:cold"] == 4
    assert report.checks["cache:warm"] == 4
    assert report.checks["cache:incremental"] == 4
    assert report.checks["conservativeness"] == 4
    assert report.checks["derives"] == 4
    assert "zero mismatches" in report.summary()


def test_oracle_processes_check_flags_programs_no_worker_solved(monkeypatch):
    """The processes check is never vacuous: a program that fell back
    in-process (here: every task arrives empty) is a mismatch even though
    its answer is still right."""
    from repro.service import procpool

    real_encode = procpool.encode_corpus_task
    monkeypatch.setattr(
        procpool, "encode_corpus_task", lambda items, **kwargs: real_encode([])
    )
    report = run_oracle(
        count=2,
        seed=123,
        profile=GenProfile.smoke(),
        profile_name="smoke",
        backends=("serial", "processes"),
        derives_samples=0,
    )
    flagged = [m for m in report.mismatches if m.check == "backend:processes"]
    assert len(flagged) == 2
    assert all("fell back in-process" in m.detail for m in flagged)


def test_oracle_summary_prints_reproduction_line_and_mismatches():
    report = run_oracle(
        count=1,
        seed=5,
        profile=GenProfile.smoke(),
        profile_name="smoke",
        backends=("serial",),
        derives_samples=0,
    )
    assert "--seed 5" in report.summary()
    report.mismatches.append(OracleMismatch("prog", "backend:processes", "boom"))
    assert not report.ok
    assert "MISMATCHES: 1" in report.summary()
    assert "[backend:processes] boom" in report.summary()


def test_result_fingerprint_ignores_timings_but_not_types():
    program = generate_program(2, GenProfile.smoke())
    compiled = program.compile().program
    first = analyze_program(compiled)
    second = analyze_program(compiled)
    assert first.stats["total_seconds"] != second.stats["total_seconds"] or True
    assert result_fingerprint(first) == result_fingerprint(second)

    other = analyze_program(generate_program(3, GenProfile.smoke()).compile().program)
    assert result_fingerprint(first) != result_fingerprint(other)


def test_naive_reference_loads_from_the_test_tree():
    module = load_naive_reference()
    assert module is not None
    assert hasattr(module, "naive_simplify_constraints")
    assert hasattr(module, "naive_saturate")


def test_write_corpus_emits_sources_answer_keys_and_manifest(tmp_path):
    corpus = generate_corpus(2, seed=44, profile=GenProfile.smoke())
    manifest_path = write_corpus(corpus, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest_path.endswith("manifest.json")
    assert len(manifest["programs"]) == 2
    for entry in manifest["programs"]:
        source = (tmp_path / entry["source"]).read_text()
        truth = json.loads((tmp_path / entry["truth"]).read_text())
        assert source.strip()
        assert truth["seed"] == entry["seed"]
        assert truth["functions"]
        for info in truth["functions"].values():
            for param in info["params"]:
                assert param["location"].startswith("stack")
                assert "type" in param and "const" in param


def test_answer_key_json_round_trips_ctypes():
    from repro.core.ctype import ctype_from_json

    program = generate_program(6, GenProfile.default())
    key = answer_key_json(program)
    for info in key["functions"].values():
        for param in info["params"]:
            assert str(ctype_from_json(param["type"])) == param["c"]


def test_generated_suite_feeds_the_evaluation_harness():
    from repro.eval.harness import run_engine
    from repro.baselines import ALL_ENGINES

    workloads = generated_suite(count=2, seed=31, profile=GenProfile.smoke())
    assert len(workloads) == 2
    assert all(w.cluster == "generated" for w in workloads)
    assert all(w.ground_truth.functions for w in workloads)
    report = run_engine(ALL_ENGINES["retypd"](), workloads)
    overall = report.overall()
    assert 0.0 <= overall["conservativeness"] <= 1.0
    assert overall["distance"] < 4.0


def test_gen_cli_oracle_smoke(tmp_path):
    """``python -m repro gen`` end to end: emit + verify, exit code 0."""
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "gen",
            "--count",
            "2",
            "--seed",
            "9",
            "--profile",
            "smoke",
            "--out",
            str(tmp_path / "corpus"),
            "--oracle",
            "--backends",
            "serial,processes",
            "--quiet",
        ],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={
            "PYTHONPATH": os.path.join(repo_root, "src"),
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        },
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "zero mismatches" in out.stdout
    assert (tmp_path / "corpus" / "manifest.json").exists()
