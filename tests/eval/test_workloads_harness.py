"""Tests for the synthetic workload generator, the harness, and the scaling fits."""

import math

import pytest

from repro.eval.harness import EngineReport, compare_engines, figure8_rows, figure9_rows, figure10_rows, format_rows, run_engine
from repro.eval.metrics import ProgramMetrics, aggregate, evaluate_program
from repro.eval.scaling import fit_power_law, measure_scaling
from repro.eval.workloads import (
    SourceGenerator,
    generate_program_source,
    make_cluster,
    make_workload,
    scaling_suite,
    standard_suite,
)
from repro.baselines import ALL_ENGINES, RetypdEngine
from repro.frontend import compile_c


def test_generated_source_is_deterministic():
    a = generate_program_source("demo", 10, seed=3)
    b = generate_program_source("demo", 10, seed=3)
    c = generate_program_source("demo", 10, seed=4)
    assert a == b
    assert a != c


def test_generated_source_compiles_across_seeds():
    for seed in range(5):
        workload = make_workload(f"gen{seed}", 10, seed=seed)
        assert workload.instructions > 50
        assert len(workload.program.procedures) >= 5
        assert workload.ground_truth.functions


def test_generator_emits_const_and_recursive_structs():
    source = generate_program_source("demo", 20, seed=1)
    assert "const struct" in source
    assert "->next" in source
    compiled = compile_c(source)
    consts = [
        flag
        for truth in compiled.ground_truth.functions.values()
        for flag in truth.param_const
    ]
    assert any(consts)


def test_cluster_members_share_library_code():
    members = make_cluster("clu", members=3, shared_functions=8, member_functions=3, seed=5)
    assert len(members) == 3
    shared_names = None
    for member in members:
        names = {n for n in member.program.procedures if n.startswith("clu_")}
        shared_names = names if shared_names is None else shared_names & names
    assert shared_names, "cluster members must share the library procedures"


def test_dash_in_cluster_name_is_handled():
    members = make_cluster("vpx-d", members=1, shared_functions=6, member_functions=3, seed=9)
    assert members[0].instructions > 0


def test_scaling_suite_sizes_increase():
    suite = scaling_suite(sizes=(4, 8, 16), seed=2)
    sizes = [w.instructions for w in suite]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]


@pytest.fixture(scope="module")
def tiny_suite():
    return [
        make_workload("tiny_a", 8, seed=21, cluster="pair"),
        make_workload("tiny_b", 8, seed=22, cluster="pair"),
        make_workload("solo", 8, seed=23),
    ]


def test_run_engine_and_cluster_averaging(tiny_suite):
    report = run_engine(RetypdEngine(), tiny_suite)
    assert set(report.per_program) == {"tiny_a", "tiny_b", "solo"}
    assert set(report.clusters) == {"pair", "solo"}
    overall_clustered = report.overall(clustered=True)
    overall_flat = report.overall(clustered=False)
    for key in ("distance", "conservativeness", "const_recall"):
        assert key in overall_clustered
        assert key in overall_flat
    assert 0.0 <= overall_clustered["conservativeness"] <= 1.0


def test_compare_engines_and_figure_rows(tiny_suite):
    reports = compare_engines(tiny_suite, engine_names=("retypd", "propagation"))
    rows8 = figure8_rows(reports)
    rows9 = figure9_rows(reports)
    assert {row["engine"] for row in rows8} == {"retypd", "propagation"}
    by_engine = {row["engine"]: row for row in rows8}
    assert by_engine["retypd"]["overall_distance"] <= by_engine["propagation"]["overall_distance"]
    by_engine9 = {row["engine"]: row for row in rows9}
    assert (
        by_engine9["retypd"]["overall_conservativeness"]
        >= by_engine9["propagation"]["overall_conservativeness"]
    )
    rows10 = figure10_rows(reports["retypd"], tiny_suite)
    assert any(str(row.get("cluster")).startswith("OVERALL") for row in rows10)
    table = format_rows(rows10)
    assert "cluster" in table.splitlines()[0]


def test_aggregate_empty_and_nonempty():
    assert aggregate([]) == {}
    metrics = ProgramMetrics(name="empty")
    assert aggregate([metrics])["conservativeness"] == 1.0


def test_all_engines_run_on_one_workload(tiny_suite):
    workload = tiny_suite[0]
    for name, engine_cls in ALL_ENGINES.items():
        types = engine_cls().analyze(workload.program)
        metrics = evaluate_program(workload.name, types, workload.ground_truth)
        assert metrics.variable_count > 0, name
        assert 0.0 <= metrics.conservativeness <= 1.0


# -- scaling fits ------------------------------------------------------------------------------


def test_fit_power_law_recovers_synthetic_exponent():
    xs = [10, 50, 100, 500, 1000, 5000]
    ys = [0.002 * (x ** 1.1) for x in xs]
    fit = fit_power_law(xs, ys)
    assert fit.b == pytest.approx(1.1, abs=0.05)
    assert fit.a == pytest.approx(0.002, rel=0.3)
    assert fit.r_squared > 0.99


def test_fit_power_law_survives_floored_data():
    # Figure 12 floors peak memory at 1 MB, so a memory pass of its own can
    # read flat for the small programs; full Gauss-Newton steps on these
    # points overflow.
    xs = [27, 49, 93, 209, 398, 748, 1483]
    ys = [1.0, 1.0, 1.0, 1.343, 2.749, 5.595, 11.369]
    fit = fit_power_law(xs, ys)
    assert 0.5 < fit.b < 1.5
    assert fit.r_squared > 0.9


def test_fit_power_law_degenerate_input():
    fit = fit_power_law([1.0], [1.0])
    assert fit.a == 0.0 and fit.b == 0.0


def test_measure_scaling_produces_monotone_sizes():
    suite = scaling_suite(sizes=(4, 10), seed=6)
    points = measure_scaling(suite, measure_memory=False)
    assert len(points) == 2
    assert points[0].instructions < points[1].instructions
    assert all(p.seconds >= 0 for p in points)

def test_standard_suite_is_stable_across_hash_seeds():
    """Regression (generated-corpus sweep era): per-name workload seeds used
    ``hash(name)``, so the *content* of the figure suites varied with
    ``PYTHONHASHSEED`` -- the same latent sensitivity the process backend
    forced out of the constraint-graph core in the PR-4 fixes.  crc32 makes
    the suite byte-identical in every interpreter."""
    import hashlib
    import os
    import subprocess
    import sys

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    script = (
        "import hashlib\n"
        "from repro.eval.workloads import standard_suite\n"
        "digest = hashlib.sha256()\n"
        "for workload in standard_suite(scale=0.25):\n"
        "    digest.update(workload.name.encode())\n"
        "    digest.update(workload.source.encode())\n"
        "print(digest.hexdigest())\n"
    )
    digests = set()
    for hashseed in ("0", "31337"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            cwd=repo_root,
            env={
                "PYTHONHASHSEED": hashseed,
                "PYTHONPATH": os.path.join(repo_root, "src"),
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            },
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, "standard_suite content varies with PYTHONHASHSEED"
