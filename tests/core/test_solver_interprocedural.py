"""Tests for the SCC-based solver: polymorphism, recursion, refinement (Algorithms F.1-F.3)."""

import pytest

from repro.core import (
    Callsite,
    ConstraintSet,
    DerivedTypeVariable,
    LoadLabel,
    ProcedureTypingInput,
    SolveStats,
    Solver,
    SolverConfig,
    default_lattice,
    field,
    in_label,
    out_label,
    parse_constraints,
    parse_dtv,
    tarjan_sccs,
)

LOAD = LoadLabel()


def _proc(name, lines, ins=(), outs=(), callsites=()):
    return ProcedureTypingInput(
        name=name,
        constraints=parse_constraints(lines),
        formal_ins=tuple(DerivedTypeVariable(name, (in_label(loc),)) for loc in ins),
        formal_outs=tuple(DerivedTypeVariable(name, (out_label(loc),)) for loc in outs),
        callsites=tuple(callsites),
    )


def _solve(solver, procedures):
    """Solve ``procedures`` SCC by SCC, bottom-up over their callsites."""
    edges = {
        name: {c.callee for c in proc.callsites if c.callee in procedures}
        for name, proc in procedures.items()
    }
    results = {}
    for scc in tarjan_sccs(edges):
        results.update(solver.solve_scc(scc, procedures, results))
    return results


def test_tarjan_scc_order_is_callee_first():
    edges = {"main": {"helper"}, "helper": {"leaf"}, "leaf": set()}
    order = tarjan_sccs(edges)
    flattened = [n for scc in order for n in scc]
    assert flattened.index("leaf") < flattened.index("helper") < flattened.index("main")


def test_tarjan_groups_mutual_recursion():
    edges = {"even": {"odd"}, "odd": {"even"}, "main": {"even"}}
    order = tarjan_sccs(edges)
    assert any(set(scc) == {"even", "odd"} for scc in order)


def test_callee_tag_flows_to_caller():
    """A #FileDescriptor discovered in a callee propagates to the caller's formal."""
    callee = _proc(
        "get_fd",
        ["get_fd.in_stack0.load.sigma32@4 <= tmp", "tmp <= #FileDescriptor", "tmp <= get_fd.out_eax"],
        ins=["stack0"],
        outs=["eax"],
    )
    caller = _proc(
        "caller",
        [
            "caller.in_stack0 <= get_fd$1.in_stack0",
            "get_fd$1.out_eax <= caller.out_eax",
        ],
        ins=["stack0"],
        outs=["eax"],
        callsites=[Callsite("get_fd", "get_fd$1")],
    )
    results = _solve(Solver(default_lattice()), {"get_fd": callee, "caller": caller})
    out_sketch = results["caller"].formal_out_sketches[parse_dtv("caller.out_eax")]
    root = out_sketch.node(out_sketch.root)
    assert "#FileDescriptor" in (root.lower, root.upper)
    in_sketch = results["caller"].formal_in_sketches[parse_dtv("caller.in_stack0")]
    node = in_sketch.follow([LOAD, field(32, 4)])
    assert node is not None


def test_polymorphic_callsites_do_not_interfere():
    """Two calls to an identity-like function keep their types separate (let-polymorphism)."""
    identity = _proc(
        "id",
        ["id.in_stack0 <= id.out_eax"],
        ins=["stack0"],
        outs=["eax"],
    )
    caller = _proc(
        "caller",
        [
            "int <= id$a.in_stack0",
            "id$a.out_eax <= x",
            "str <= id$b.in_stack0",
            "id$b.out_eax <= y",
            "x <= caller.out_eax",
        ],
        outs=["eax"],
        callsites=[Callsite("id", "id$a"), Callsite("id", "id$b")],
    )
    solver = Solver(default_lattice())
    results = _solve(solver, {"id": identity, "caller": caller})
    out = results["caller"].formal_out_sketches[parse_dtv("caller.out_eax")]
    # x should be int; with monomorphic treatment it would be joined with str.
    assert out.node(out.root).lower == "int"


def test_monomorphic_configuration_merges_callsites():
    identity = _proc("id", ["id.in_stack0 <= id.out_eax"], ins=["stack0"], outs=["eax"])
    caller = _proc(
        "caller",
        [
            "int <= id$a.in_stack0",
            "id$a.out_eax <= x",
            "str <= id$b.in_stack0",
            "x <= caller.out_eax",
        ],
        outs=["eax"],
        callsites=[Callsite("id", "id$a"), Callsite("id", "id$b")],
    )
    config = SolverConfig(polymorphic=False, refine_parameters=False)
    results = _solve(
        Solver(default_lattice(), config=config), {"id": identity, "caller": caller}
    )
    out = results["caller"].formal_out_sketches[parse_dtv("caller.out_eax")]
    # both callsites collapse onto one type: join(int, str) = TOP in this lattice
    assert out.node(out.root).lower in ("TOP", "num32", "int")


def test_recursive_procedure_gets_recursive_sketch():
    walker = _proc(
        "walk",
        [
            "walk.in_stack0.load.sigma32@0 <= next",
            "next <= walk$self.in_stack0",
            "walk$self.out_eax <= walk.out_eax",
            "walk.in_stack0.load.sigma32@4 <= walk.out_eax",
            "walk.out_eax <= int",
        ],
        ins=["stack0"],
        outs=["eax"],
        callsites=[Callsite("walk", "walk$self")],
    )
    results = _solve(Solver(default_lattice()), {"walk": walker})
    sketch = results["walk"].formal_in_sketches[parse_dtv("walk.in_stack0")]
    assert sketch.is_recursive()


def test_extern_scheme_used_when_provided():
    from repro.typegen.externs import extern_schemes

    caller = _proc(
        "caller",
        ["caller.in_stack0 <= close$1.in_stack0", "close$1.out_eax <= caller.out_eax"],
        ins=["stack0"],
        outs=["eax"],
        callsites=[Callsite("close", "close$1")],
    )
    solver = Solver(default_lattice(), extern_schemes())
    results = _solve(solver, {"caller": caller})
    in_sketch = results["caller"].formal_in_sketches[parse_dtv("caller.in_stack0")]
    assert in_sketch.node(in_sketch.root).upper == "#FileDescriptor"


def test_unknown_extern_is_harmless():
    caller = _proc(
        "caller",
        ["caller.in_stack0 <= mystery$1.in_stack0"],
        ins=["stack0"],
        callsites=[Callsite("mystery", "mystery$1")],
    )
    results = _solve(Solver(default_lattice()), {"caller": caller})
    assert "caller" in results


def test_solver_stats_populated():
    proc = _proc("f", ["f.in_stack0 <= f.out_eax"], ins=["stack0"], outs=["eax"])
    stats = SolveStats()
    Solver(default_lattice()).solve_scc(["f"], {"f": proc}, {}, stats=stats)
    assert stats.sccs_timed == 1
    assert stats.graph_nodes > 0
    assert stats.total_seconds > 0


def test_scheme_roundtrips_through_instantiation():
    """A callee scheme instantiated in a fresh constraint set reproduces its capabilities."""
    callee = _proc(
        "get",
        ["get.in_stack0.load.sigma32@0 <= get.out_eax"],
        ins=["stack0"],
        outs=["eax"],
    )
    results = _solve(Solver(default_lattice()), {"get": callee})
    scheme = results["get"].scheme
    instantiated = scheme.instantiate_as("get$99")
    from repro.core import infer_shapes

    shapes = infer_shapes(instantiated, default_lattice())
    formal = parse_dtv("get$99.in_stack0")
    assert shapes.lookup(formal) is not None
    assert shapes.sketch_for(formal).accepts([LOAD, field(32, 0)])
