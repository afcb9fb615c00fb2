"""The analysis service layer: corpus batching, warm caches, corpus fan-out.

Three demonstrations on a generated family of binaries built from one code
base (a ``repro.gen`` product line: the shape of the paper's coreutils/vpx
clusters, Figure 10):

1. ``repro.analyze_corpus`` -- analyze the whole family against one shared
   summary store; after the first member, every shared SCC is a cache hit;
2. warm-cache re-analysis -- re-analyzing an unmodified program performs zero
   SCC solves, and editing one procedure re-solves only its SCC and the
   transitive callers (``IncrementalSession`` reports the invalidation cone);
3. corpus fan-out -- with ``ServiceConfig(executor="processes")`` the
   family's programs are solved on warm worker processes, one program per
   unit of work, with results identical to the serial run.

Run with::

    python examples/corpus_service.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import AnalysisService, IncrementalSession, ServiceConfig, analyze_corpus
from repro.eval.workloads import family_workloads
from repro.gen import generate_family


def main() -> None:
    print("generating a family of binaries built from one code base ...")
    workloads = family_workloads(generate_family(2016, members=4, name="democluster"))
    corpus = {workload.name: workload.program for workload in workloads}

    # -- 1. batched corpus analysis over one shared store ----------------------
    print("\n=== analyze_corpus: one shared summary store ===")
    service = AnalysisService()
    report = analyze_corpus(corpus, service=service)
    print(report.summary())
    print(
        f"shared-code reuse: {report.total_cache_hits} SCC summaries served "
        f"from cache ({report.hit_rate:.0%} of lookups)"
    )

    # -- 2. warm-cache and incremental re-analysis -----------------------------
    print("\n=== warm-cache re-analysis ===")
    session = IncrementalSession(service)
    target = workloads[0].program

    start = time.perf_counter()
    first = session.analyze(target)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    second = session.analyze(target)
    warm_seconds = time.perf_counter() - start
    assert second.report() == first.report(), "warm results must be identical"
    print(f"unmodified program:  {second.stats['sccs_solved']} SCCs solved "
          f"(was {first.stats['sccs_solved'] + first.stats['sccs_cached']}), "
          f"{cold_seconds * 1000:.1f} ms -> {warm_seconds * 1000:.1f} ms")

    # Edit one procedure that has callers: append a harmless instruction,
    # changing its content hash without changing its meaning.
    from repro.ir import Nop, Procedure

    edited = workloads[0].program
    called = {callee for procedure in edited for callee in procedure.direct_callees()}
    name = min(called & set(edited.procedures))
    edited.add_procedure(Procedure(name, edited.procedures[name].instructions + [Nop()]))
    third = session.analyze(edited)
    print(f"after editing {name!r}: invalidation cone = "
          f"{third.stats.get('invalidated_procedures', [])}")
    print(f"re-solved procedures  = {third.stats['solved_procedures']}")

    # -- 3. corpus fan-out on worker processes ---------------------------------
    print("\n=== corpus fan-out ===")
    start = time.perf_counter()
    serial = analyze_corpus(corpus)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fanned = analyze_corpus(
        corpus, config=ServiceConfig(executor="processes", max_workers=2)
    )
    fanned_seconds = time.perf_counter() - start

    for name in corpus:
        assert fanned[name].types.report() == serial[name].types.report()
    solved_by_workers = sum(
        entry.types.stats["executor"] == "processes" for entry in fanned
    )
    print(f"{solved_by_workers} of {len(corpus)} programs solved on worker processes")
    print(f"serial {serial_seconds * 1000:.1f} ms, "
          f"fan-out {fanned_seconds * 1000:.1f} ms (pool spawn included) "
          f"-- identical results")


if __name__ == "__main__":
    main()
