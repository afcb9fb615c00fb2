"""Batch API: corpus analysis over one shared summary store."""

import pytest

from repro import analyze_corpus, analyze_program
from repro.eval.harness import run_engine, run_suite_batched
from repro.eval.workloads import family_workloads
from repro.baselines import RetypdEngine
from repro.gen import generate_family
from repro.ir.callgraph import CallGraph
from repro.service import AnalysisService


def _cluster():
    return family_workloads(generate_family(77, members=3, name="batch_c"))


def test_corpus_shares_summaries_across_cluster_members():
    workloads = _cluster()
    report = analyze_corpus({w.name: w.program for w in workloads})

    first, *rest = report
    assert first.cache_hits == 0  # empty store on the first member
    for member in rest:
        assert member.cache_hits > 0, "cluster members must reuse shared-code summaries"
    assert report.total_cache_hits > 0
    assert 0.0 < report.hit_rate < 1.0
    assert report.total_seconds > 0
    assert len(report) == len(workloads)


def test_corpus_results_match_standalone_analysis():
    workloads = _cluster()
    report = analyze_corpus({w.name: w.program for w in workloads})
    for workload in workloads:
        standalone = analyze_program(workload.program)
        assert report[workload.name].types.report() == standalone.report()


def test_corpus_per_program_stats():
    workloads = _cluster()
    report = analyze_corpus([(w.name, w.program) for w in workloads])
    for member in report:
        assert member.procedures > 0
        assert member.cache_hits + member.cache_misses >= 1
        assert member.seconds >= 0
    summary = report.summary()
    assert "TOTAL" in summary and workloads[0].name in summary
    assert report.store_stats["puts"] > 0


def test_warm_corpus_rerun_is_all_hits():
    workloads = _cluster()
    service = AnalysisService()
    analyze_corpus({w.name: w.program for w in workloads}, service=service)
    warm = analyze_corpus({w.name: w.program for w in workloads}, service=service)
    assert warm.total_cache_misses == 0
    assert warm.hit_rate == 1.0


def test_harness_batched_suite_matches_engine_path():
    workloads = _cluster()
    batched = run_suite_batched(workloads)
    plain = run_engine(RetypdEngine(), workloads)

    assert set(batched.per_program) == set(plain.per_program)
    for name in plain.per_program:
        assert batched.per_program[name].summary() == plain.per_program[name].summary()
    assert batched.overall() == plain.overall()
    assert batched.batch is not None
    assert batched.batch.total_cache_hits > 0


def test_corpus_on_the_process_backend_matches_serial():
    """analyze_corpus(config=...) routes the executor choice through; the
    internally-created service keeps one warm pool across members and
    releases it when the corpus finishes."""
    from repro.service import ServiceConfig

    workloads = _cluster()
    serial = analyze_corpus({w.name: w.program for w in workloads})
    parallel = analyze_corpus(
        {w.name: w.program for w in workloads},
        config=ServiceConfig(executor="processes", max_workers=2),
    )
    for workload in workloads:
        assert (
            parallel[workload.name].types.report()
            == serial[workload.name].types.report()
        )
    # Shared-library reuse still happens under the process backend.
    assert parallel.total_cache_hits > 0


def test_corpus_fanout_prewarms_every_program_and_stays_byte_identical():
    """Program-grain fan-out: workers solve whole programs and ship every
    SCC's summary plus the typing inputs of the SCCs their store missed; the
    parent replay must be byte-identical to the serial corpus run."""
    from repro.gen import result_fingerprint
    from repro.service import ServiceConfig
    from repro.service import batch as batch_mod

    workloads = _cluster()
    programs = {w.name: w.program for w in workloads}
    serial = analyze_corpus(programs)

    service = AnalysisService(ServiceConfig(executor="processes", max_workers=2))
    try:
        items = list(programs.items())
        assert batch_mod._use_corpus_fanout(service, items)
        prewarmed = batch_mod._prewarm_corpus(service, service._ensure_procpool(), items)
        assert set(prewarmed) == set(programs)
        for workload in workloads:
            entry = prewarmed[workload.name]
            sccs = CallGraph.from_program(workload.program).sccs_bottom_up()
            generated = [scc for scc in sccs if set(scc) <= set(entry.inputs)]
            # Inputs come whole SCCs at a time, exactly for the misses.
            assert sum(map(len, generated)) == len(entry.inputs)
            assert len(generated) == entry.cache_misses
            assert entry.cache_hits + entry.cache_misses == len(sccs)
            # Every SCC's summary, hit or solved, was admitted here.
            probe = service._probe(workload.program)
            assert len(probe.cached) == len(sccs)
        report = analyze_corpus(programs, service=service)
    finally:
        service.close()
    for name in programs:
        assert result_fingerprint(report[name].types) == result_fingerprint(
            serial[name].types
        )


def test_corpus_fanout_falls_back_to_in_process_analysis(monkeypatch):
    """When fan-out brings back nothing usable (crashed workers, undecodable
    replies), every program silently takes the in-process path and the corpus
    result is still correct."""
    from repro.gen import result_fingerprint
    from repro.service import ServiceConfig, procpool

    workloads = _cluster()
    programs = {w.name: w.program for w in workloads}
    serial = analyze_corpus(programs)

    # An empty task: workers reply with zero program entries, so no program
    # gets prewarmed and analyze_corpus must fall back per program.
    real_encode = procpool.encode_corpus_task
    monkeypatch.setattr(
        procpool, "encode_corpus_task", lambda items, **kwargs: real_encode([])
    )
    report = analyze_corpus(
        programs, config=ServiceConfig(executor="processes", max_workers=2)
    )
    for name in programs:
        assert result_fingerprint(report[name].types) == result_fingerprint(
            serial[name].types
        )


def _duplicate_name_corpus():
    """Six pairs over two programs, one name given twice (once per program)."""
    from repro.frontend import compile_c

    deref = compile_c("int f(int *p) { return *p; }").program
    add = compile_c("int f(int a, int b) { return a + b; }").program
    return [("x", deref), ("dup", deref), ("y", add), ("z", deref), ("dup", add), ("w", add)]


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_corpus_rejects_a_repeated_program_name(executor):
    """A name given twice would keep one report and drop the other (and, on
    the process backend, display one program with the other's inputs)."""
    from repro.service import ServiceConfig

    with pytest.raises(ValueError, match="'dup'"):
        analyze_corpus(
            _duplicate_name_corpus(),
            config=ServiceConfig(executor=executor, max_workers=2),
        )
