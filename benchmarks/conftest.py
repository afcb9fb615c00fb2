"""Shared fixtures for the benchmark suite.

Every figure/table of the paper's evaluation has a matching ``bench_fig*.py``
module.  Expensive artifacts (the synthetic benchmark suite and the engine
reports over it) are computed once per session and shared; each module then
benchmarks its figure's core computation and writes the regenerated table to
``benchmarks/results/``.
"""

import dataclasses
import os
import statistics
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: scale factor for the synthetic suite; raise for a closer match to the paper's
#: corpus sizes, lower for a quicker run.
SUITE_SCALE = float(os.environ.get("REPRO_SUITE_SCALE", "0.75"))
SCALING_SIZES = tuple(
    int(s) for s in os.environ.get("REPRO_SCALING_SIZES", "6,12,25,50,100,200,400").split(",")
)

#: untraced passes over the Figure 11 sweep; each point keeps its median time.
TIMING_REPEATS = 5

#: traced passes over the Figure 12 sweep; each point keeps its median peak.
MEMORY_REPEATS = 3


def write_result(name: str, content: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(content + "\n")
    return path


@pytest.fixture(scope="session")
def suite():
    """The clustered benchmark suite (Figures 7-10)."""
    from repro.eval.workloads import standard_suite

    return standard_suite(scale=SUITE_SCALE)


@pytest.fixture(scope="session")
def engine_reports(suite):
    """All four engines run over the whole suite (Figures 8 and 9)."""
    from repro.eval.harness import compare_engines

    return compare_engines(suite)


@pytest.fixture(scope="session")
def retypd_report(engine_reports):
    return engine_reports["retypd"]


@pytest.fixture(scope="session")
def scaling_workloads():
    """The size sweep shared by Figures 11 and 12."""
    from repro.eval.workloads import scaling_suite

    return scaling_suite(sizes=SCALING_SIZES)


@pytest.fixture(scope="session")
def scaling_points(scaling_workloads):
    """Figure 11 timings over the size sweep, with ``tracemalloc`` off.

    Tracing slows each analysis 3.5-4.4x, and not uniformly across sizes,
    so a traced sweep fits a different exponent than the analysis has.  One
    pass is noisy on a shared host (single-pass exponents spread over
    roughly 0.8-1.5 on a 2-CPU container), so each point is the median of
    :data:`TIMING_REPEATS` passes.
    """
    from repro.eval.scaling import measure_scaling

    passes = [
        measure_scaling(scaling_workloads, measure_memory=False)
        for _ in range(TIMING_REPEATS)
    ]
    return [
        dataclasses.replace(runs[0], seconds=statistics.median(p.seconds for p in runs))
        for runs in zip(*passes)
    ]


@pytest.fixture(scope="session")
def memory_points(scaling_workloads):
    """Figure 12 peak traced memory over the same sweep, in passes of its own.

    One pass's peaks move 5-20% between runs of the same tree, so each point
    is the median peak of :data:`MEMORY_REPEATS` traced passes, as Figure 11
    takes the median time.
    """
    from repro.eval.scaling import measure_scaling

    passes = [
        measure_scaling(scaling_workloads, measure_memory=True)
        for _ in range(MEMORY_REPEATS)
    ]
    return [
        dataclasses.replace(
            runs[0], peak_memory_bytes=statistics.median(p.peak_memory_bytes for p in runs)
        )
        for runs in zip(*passes)
    ]
