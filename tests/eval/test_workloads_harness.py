"""Tests for the benchmark suites, the harness, and the scaling fits."""

import math

import pytest

from repro.eval.harness import EngineReport, compare_engines, figure8_rows, figure9_rows, figure10_rows, format_rows, run_engine
from repro.eval.metrics import ProgramMetrics, aggregate, evaluate_program
from repro.eval.scaling import fit_power_law, measure_scaling
from repro.eval.workloads import (
    family_workloads,
    program_workload,
    scaling_suite,
    standard_suite,
)
from repro.baselines import ALL_ENGINES, RetypdEngine
from repro.gen import GenProfile, generate_family, generate_program


def test_cluster_members_share_library_code():
    members = family_workloads(generate_family(5, GenProfile.smoke(), members=3, name="clu"))
    assert len(members) == 3
    assert {member.cluster for member in members} == {"clu"}
    shared = None
    for member in members:
        texts = {str(procedure) for procedure in member.program}
        shared = texts if shared is None else shared & texts
    assert shared, "cluster members must share procedures byte for byte"


def test_dash_in_cluster_name_is_handled():
    members = family_workloads(generate_family(9, GenProfile.smoke(), members=1, name="vpx-d"))
    assert members[0].cluster == "vpx-d"
    assert members[0].instructions > 0


def test_standard_suite_keeps_the_figure_10_clusters():
    suite = standard_suite(scale=0.25)
    counts = {}
    for workload in suite:
        counts[workload.cluster] = counts.get(workload.cluster, 0) + 1
    assert {cluster: count for cluster, count in counts.items() if count > 1} == {
        "freeglut-demos": 3,
        "coreutils": 8,
        "vpx-d": 4,
        "vpx-e": 3,
        "sphinx2": 4,
        "putty": 4,
    }
    assert len({workload.name for workload in suite}) == len(suite)


def test_figure_7_standalone_sizes_span_an_order_of_magnitude():
    """Figure 7's corpus spans orders of magnitude in size; the largest
    standalone program must have at least 10x the procedures of the smallest."""
    suite = standard_suite()
    clusters = [w.cluster for w in suite]
    standalone = [w for w in suite if clusters.count(w.cluster) == 1]
    assert len(standalone) == 8
    sizes = [len(w.program.procedures) for w in standalone]
    assert max(sizes) >= 10 * min(sizes), sizes


def test_scaling_suite_sizes_increase():
    suite = scaling_suite(sizes=(4, 8, 16), seed=2)
    sizes = [w.instructions for w in suite]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]


@pytest.fixture(scope="module")
def tiny_suite():
    profile = GenProfile(n_functions=8)
    return [
        program_workload(generate_program(21, profile, name="tiny_a"), cluster="pair"),
        program_workload(generate_program(22, profile, name="tiny_b"), cluster="pair"),
        program_workload(generate_program(23, profile, name="solo")),
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
    """Regression: per-name workload seeds once used ``hash(name)``, so the
    *content* of the figure suites varied with ``PYTHONHASHSEED``.  crc32
    makes the suite byte-identical in every interpreter."""
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
