"""Service layer: cold vs. warm-cache vs. incremental analysis.

The analysis service caches per-SCC type summaries under content-addressed
keys, so re-analyzing an unmodified program performs zero SCC solves, and
editing one procedure re-solves only its SCC plus transitive callers.  This
benchmark measures, on the Figure 11 scaling workload:

* cold analysis (empty store) vs. warm re-analysis (full store) vs.
  incremental re-analysis after editing a single leaf procedure;
* an uncached serial analysis, the service's floor without a store.

The warm and incremental runs must beat the cold run -- that is the point of
the subsystem -- and all paths must produce identical reports.
"""

import time

from conftest import SCALING_SIZES, write_result


def _copy_with_edit(program):
    """A shallowly-copied program with one extra nop in one leaf procedure."""
    from repro.ir.instructions import Nop
    from repro.ir.program import Procedure, Program

    edited = Program(
        procedures=dict(program.procedures),
        externs=set(program.externs),
        globals=dict(program.globals),
    )
    name = sorted(edited.procedures)[0]
    victim = edited.procedures[name]
    edited.procedures[name] = Procedure(
        name=victim.name, instructions=list(victim.instructions) + [Nop()]
    )
    return edited, name


def test_incremental_scaling(benchmark):
    from repro.eval.workloads import scaling_suite
    from repro.service import AnalysisService, IncrementalSession, ServiceConfig

    workloads = scaling_suite(sizes=SCALING_SIZES)

    lines = [
        "Service layer: cold vs warm vs incremental, plus uncached serial",
        "",
        f"{'program':>12} {'sccs':>5} {'cold_s':>8} {'warm_s':>8} {'incr_s':>8} "
        f"{'resolved':>8} {'serial_s':>8}",
    ]
    cold_total = warm_total = incremental_total = 0.0
    for workload in workloads:
        session = IncrementalSession(AnalysisService())

        start = time.perf_counter()
        cold = session.analyze(workload.program)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = session.analyze(workload.program)
        warm_seconds = time.perf_counter() - start
        assert warm.stats["sccs_solved"] == 0
        assert warm.report() == cold.report()

        edited, _ = _copy_with_edit(workload.program)
        start = time.perf_counter()
        incremental = session.analyze(edited)
        incremental_seconds = time.perf_counter() - start
        assert incremental.stats["sccs_solved"] <= cold.stats["scc_count"]

        serial_service = AnalysisService(ServiceConfig(use_cache=False))
        start = time.perf_counter()
        serial = serial_service.analyze(workload.program)
        serial_seconds = time.perf_counter() - start
        assert serial.report() == cold.report()

        cold_total += cold_seconds
        warm_total += warm_seconds
        incremental_total += incremental_seconds
        lines.append(
            f"{workload.name:>12} {cold.stats['scc_count']:>5} {cold_seconds:>8.3f} "
            f"{warm_seconds:>8.3f} {incremental_seconds:>8.3f} "
            f"{incremental.stats['sccs_solved']:>8} {serial_seconds:>8.3f}"
        )

    lines += [
        "",
        f"totals: cold {cold_total:.3f}s, warm {warm_total:.3f}s "
        f"({cold_total / max(warm_total, 1e-9):.1f}x), incremental {incremental_total:.3f}s "
        f"({cold_total / max(incremental_total, 1e-9):.1f}x)",
    ]
    write_result("incremental_scaling.txt", "\n".join(lines))

    # The acceptance bar: warm/incremental beat cold on the scaling workload.
    assert warm_total < cold_total, "warm-cache re-analysis should beat cold analysis"
    assert incremental_total < cold_total, "incremental re-analysis should beat cold analysis"

    # Benchmark the steady state: warm re-analysis of the largest program.
    largest = workloads[-1]
    steady = AnalysisService()
    steady.analyze(largest.program)
    types = benchmark(steady.analyze, largest.program)
    assert types.stats["sccs_solved"] == 0
