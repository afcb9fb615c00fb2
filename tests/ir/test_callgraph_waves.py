"""CallGraph: caller queries, SCC orders, invalidation cones."""

from repro.ir.asmparser import parse_program
from repro.ir.callgraph import CallGraph


def _chain_program():
    # main -> helper -> leaf, plus mutually recursive pair (ping/pong) called
    # by main, plus an isolated procedure.
    return parse_program(
        """
        leaf:
            mov eax, [esp+4]
            ret
        helper:
            mov eax, [esp+4]
            push eax
            call leaf
            add esp, 4
            ret
        ping:
            mov eax, [esp+4]
            push eax
            call pong
            add esp, 4
            ret
        pong:
            mov eax, [esp+4]
            push eax
            call ping
            add esp, 4
            ret
        main:
            mov eax, [esp+4]
            push eax
            call helper
            add esp, 4
            push eax
            call ping
            add esp, 4
            ret
        isolated:
            mov eax, 1
            ret
        """
    )


def test_callers_inverts_callees():
    graph = CallGraph.from_program(_chain_program())
    assert graph.callees("main") == {"helper", "ping"}
    assert graph.callers("leaf") == {"helper"}
    assert graph.callers("helper") == {"main"}
    assert graph.callers("ping") == {"pong", "main"}
    assert graph.callers("main") == set()
    assert graph.callers("isolated") == set()
    # Every callee edge has a matching caller edge and vice versa.
    for name in graph.edges:
        for callee in graph.callees(name):
            assert name in graph.callers(callee)


def test_scc_orders_are_reverses():
    graph = CallGraph.from_program(_chain_program())
    bottom_up = graph.sccs_bottom_up()
    top_down = graph.sccs_top_down()
    assert top_down == list(reversed(bottom_up))

    position = {}
    for index, scc in enumerate(bottom_up):
        for name in scc:
            position[name] = index
    # Bottom-up: every callee's SCC comes no later than its caller's.
    for caller, callees in graph.edges.items():
        for callee in callees:
            if position[callee] != position[caller]:
                assert position[callee] < position[caller]
    # The recursive pair is one component.
    recursive = next(scc for scc in bottom_up if set(scc) == {"ping", "pong"})
    assert len(recursive) == 2


def test_transitive_callers_cone():
    graph = CallGraph.from_program(_chain_program())
    assert graph.transitive_callers({"leaf"}) == {"leaf", "helper", "main"}
    assert graph.transitive_callers({"ping"}) == {"ping", "pong", "main"}
    assert graph.transitive_callers({"main"}) == {"main"}
    assert graph.transitive_callers({"isolated"}) == {"isolated"}
    assert graph.transitive_callers(set()) == set()


def test_scc_of_maps_members_to_components():
    graph = CallGraph.from_program(_chain_program())
    scc_of = graph.scc_of()
    assert scc_of["ping"] == scc_of["pong"]
    assert set(scc_of["ping"]) == {"ping", "pong"}
    assert scc_of["leaf"] == ("leaf",)
