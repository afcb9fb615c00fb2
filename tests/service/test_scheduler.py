"""The service's bottom-up SCC loop.

A single program solves in-process, one SCC at a time in bottom-up order;
each SCC's summary is published before the next SCC starts.
"""

from repro.core.solver import Solver
from repro.ir.asmparser import parse_program
from repro.ir.callgraph import CallGraph
from repro.service import AnalysisService, ServiceConfig


def _asm_diamond():
    return parse_program(
        """
        leaf1:
            mov eax, [esp+4]
            ret
        leaf2:
            mov eax, [esp+4]
            ret
        mid1:
            mov eax, [esp+4]
            push eax
            call leaf1
            add esp, 4
            ret
        mid2:
            mov eax, [esp+4]
            push eax
            call leaf2
            add esp, 4
            ret
        top:
            mov eax, [esp+4]
            push eax
            call mid1
            add esp, 4
            push eax
            call mid2
            add esp, 4
            ret
        """
    )


def test_each_scc_sees_its_callees_summaries_before_it_is_solved(monkeypatch):
    """The bottom-up loop publishes every SCC's summary to the store before
    the next SCC is solved, so each SCC sees its callees' summaries."""
    service = AnalysisService()
    events = []
    real_put = service.store.put
    real_solve = Solver.solve_scc

    def put(key, summary):
        events.append(("put", tuple(summary.members)))
        return real_put(key, summary)

    def solve_scc(self, scc, *args, **kwargs):
        events.append(("solve", tuple(scc)))
        return real_solve(self, scc, *args, **kwargs)

    monkeypatch.setattr(service.store, "put", put)
    monkeypatch.setattr(Solver, "solve_scc", solve_scc)
    program = _asm_diamond()
    service.analyze(program)

    graph = CallGraph.from_program(program)
    order = [tuple(scc) for scc in graph.sccs_bottom_up()]
    # Solved in bottom-up order, each published before the next starts.
    assert events == [(kind, scc) for scc in order for kind in ("solve", "put")]
    published = set()
    for kind, scc in events:
        if kind == "put":
            published.update(scc)
            continue
        callees = {callee for name in scc for callee in graph.edges[name]} - set(scc)
        assert callees <= published, f"{scc} solved before its callees {callees - published}"


def test_schedule_stats_shape():
    program = _asm_diamond()
    stats = AnalysisService(ServiceConfig(use_cache=False)).analyze(program).stats
    assert [name for name, _ in stats["scc_seconds"]] == [
        ",".join(scc) for scc in CallGraph.from_program(program).sccs_bottom_up()
    ]
    assert stats["sccs_solved"] == stats["scc_count"] == 5
    assert stats["executor"] == "serial"
    assert stats["worker_failed"] == 0 and stats["requeued_sccs"] == []


def test_processes_without_a_remote_runner_degrades_to_serial():
    """A process-backend service solves one program in-process: the worker
    pool is corpus fan-out's runner only and is never built for a single
    analyze."""
    with AnalysisService(ServiceConfig(use_cache=False, executor="processes")) as service:
        types = service.analyze(_asm_diamond())
        assert service.procpool_snapshot() == {}
    assert types.stats["executor"] == "serial"
    assert types.stats["sccs_solved"] == 5
