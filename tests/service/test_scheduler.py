"""Wave scheduling: levelling invariants and the service's bottom-up wave loop.

A single program solves in-process, wave by wave over the call-graph
condensation; each wave's summaries are published before the next starts.
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


def test_wave_levelling_respects_dependencies():
    graph = CallGraph.from_program(_asm_diamond())
    waves = graph.scc_waves()
    wave_of = {}
    for level, wave in enumerate(waves):
        for scc in wave:
            for name in scc:
                wave_of[name] = level
    # Every callee strictly below its caller.
    for caller, callees in graph.edges.items():
        for callee in callees:
            assert wave_of[callee] < wave_of[caller]
    assert wave_of["leaf1"] == wave_of["leaf2"] == 0
    assert wave_of["mid1"] == wave_of["mid2"] == 1
    assert wave_of["top"] == 2
    assert [len(w) for w in waves] == [2, 2, 1]


def test_wave_levelling_handles_cycles():
    program = parse_program(
        """
        a:
            call b
            ret
        b:
            call a
            ret
        c:
            call a
            ret
        """
    )
    graph = CallGraph.from_program(program)
    waves = graph.scc_waves()
    assert [sorted(scc) for scc in waves[0]] == [["a", "b"]]
    assert waves[1] == [["c"]]


def test_after_wave_runs_between_waves(monkeypatch):
    """Every SCC of a wave sees the previous waves' summaries in the store."""
    service = AnalysisService()
    published = []
    real_put = service.store.put
    real_solve = Solver.solve_scc

    def put(key, summary):
        published.extend(summary.members)
        return real_put(key, summary)

    def solve_scc(self, scc, *args, **kwargs):
        published.append(f"solving {','.join(scc)}")
        return real_solve(self, scc, *args, **kwargs)

    monkeypatch.setattr(service.store, "put", put)
    monkeypatch.setattr(Solver, "solve_scc", solve_scc)
    service.analyze(_asm_diamond())
    assert published == [
        "solving leaf1", "solving leaf2", "leaf1", "leaf2",
        "solving mid1", "solving mid2", "mid1", "mid2",
        "solving top", "top",
    ]


def test_schedule_stats_shape():
    stats = AnalysisService(ServiceConfig(use_cache=False)).analyze(_asm_diamond()).stats
    assert stats["wave_count"] == 3
    assert stats["wave_widths"] == [2, 2, 1]
    assert stats["max_wave_width"] == 2
    assert abs(stats["mean_wave_width"] - 5 / 3) < 1e-9
    assert [name for name, _ in stats["scc_seconds"]] == [
        "leaf1", "leaf2", "mid1", "mid2", "top"
    ]
    assert stats["executor"] == "serial" and not stats["parallel"]
    assert stats["worker_failed"] == 0 and stats["requeued_sccs"] == []


def test_processes_without_a_remote_runner_degrades_to_serial():
    """A process-backend service solves one program in-process: the worker
    pool is corpus fan-out's runner only and is never built for a single
    analyze."""
    with AnalysisService(ServiceConfig(use_cache=False, executor="processes")) as service:
        types = service.analyze(_asm_diamond())
        assert service.procpool_snapshot() == {}
    assert types.stats["executor"] == "serial"
    assert types.stats["wave_widths"] == [2, 2, 1]
