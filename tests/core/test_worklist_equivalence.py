"""Equivalence of the worklist core against the retained seed reference.

Two oracles, both kept in ``tests/core/naive_reference.py``:

* saturation -- the worklist fixpoint must add exactly the same shortcut
  edges as the seed's whole-graph Gauss-Seidel re-scan, on random constraint
  sets over loads/stores/fields (the alphabet where the lazy S-POINTER rule
  fires) and on the structured examples;
* simplification -- the memoized state traversal must find everything the
  seed's per-source elementary-path DFS found, and anything extra must itself
  be derivable (the DFS under-approximated: its per-path node-visited set
  dropped valid derivations that revisit a node with a different pending
  stack, and its global path budget silently truncated large graphs).
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstraintGraph,
    parse_constraints,
    proves,
    saturate,
    simplify_constraints,
)

from naive_reference import EdgeKind, GraphView, naive_saturate, naive_simplify_constraints


_VARS = ["a", "b", "c", "d", "p", "q"]
_LABELS = ["", ".load", ".store", ".sigma32@0", ".load.sigma32@4", ".store.sigma32@0"]


@st.composite
def constraint_lines(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        left = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))
        right = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))
        if left != right:
            lines.append(f"{left} <= {right}")
    return lines


def _saturation_edges(graph):
    return {
        (edge.source, edge.target)
        for edge in GraphView(graph).edges()
        if edge.kind is EdgeKind.SATURATION
    }


@settings(max_examples=120, deadline=None)
@given(constraint_lines())
def test_worklist_saturation_matches_naive_reference(lines):
    """Both fixpoints add the same shortcut edges (and report the same count)."""
    if not lines:
        return
    constraints = parse_constraints(lines)
    fast_graph = ConstraintGraph(constraints)
    fast_added = saturate(fast_graph)
    slow_graph = ConstraintGraph(constraints)
    slow_added = naive_saturate(slow_graph)
    assert _saturation_edges(fast_graph) == _saturation_edges(slow_graph)
    assert fast_added == slow_added == len(_saturation_edges(fast_graph))


@settings(max_examples=60, deadline=None)
@given(constraint_lines(), st.sets(st.sampled_from(_VARS), min_size=1, max_size=3))
def test_memoized_simplify_superset_of_naive_dfs(lines, interesting):
    """The state traversal finds everything the seed DFS found; extras are sound."""
    if not lines:
        return
    constraints = parse_constraints(lines)
    new_out = set(simplify_constraints(constraints, interesting).subtype)
    old_out = set(naive_simplify_constraints(constraints, interesting).subtype)
    assert old_out <= new_out, f"lost judgements: {old_out - new_out}"
    for extra in new_out - old_out:
        assert proves(constraints, extra), f"unsound extra judgement: {extra}"


def test_figure14_same_shortcuts_both_engines():
    constraints = parse_constraints(["y <= p", "p <= x", "A <= x.store", "y.load <= B"])
    fast_graph = ConstraintGraph(constraints)
    saturate(fast_graph)
    slow_graph = ConstraintGraph(constraints)
    naive_saturate(slow_graph)
    assert _saturation_edges(fast_graph) == _saturation_edges(slow_graph)


def test_worklist_is_idempotent_after_naive():
    """Running the worklist over an already naive-saturated graph adds nothing."""
    constraints = parse_constraints(["y <= p", "p <= x", "A <= x.store", "y.load <= B"])
    graph = ConstraintGraph(constraints)
    naive_saturate(graph)
    assert saturate(graph) == 0
