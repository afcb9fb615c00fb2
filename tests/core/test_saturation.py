"""The Figure 14 saturation example.

Constraint set: ``{y <= p, p <= x, A <= x.store, y.load <= B}`` (the program
``p = y; x = p; *x = A; B = *y;``).  Saturation must add the shortcut edge from
``(x.store, +)`` to ``(y.load, +)`` via the lazy S-POINTER rule, after which
``A <= B`` is derivable.
"""

from repro.core import (
    ConstraintGraph,
    Variance,
    parse_constraint,
    parse_constraints,
    parse_dtv,
    proves,
    saturate,
)

from naive_reference import EdgeKind, GraphView, Node


FIG14 = ["y <= p", "p <= x", "A <= x.store", "y.load <= B"]


def test_figure14_shortcut_edge():
    constraints = parse_constraints(FIG14)
    graph = ConstraintGraph(constraints)
    added = saturate(graph)
    assert added >= 1
    source = Node(parse_dtv("x.store"), Variance.COVARIANT)
    target = Node(parse_dtv("y.load"), Variance.COVARIANT)
    assert GraphView(graph).has_edge(source, target, EdgeKind.SATURATION)


def test_figure14_interesting_constraint():
    constraints = parse_constraints(FIG14)
    assert proves(constraints, parse_constraint("A <= B"))


def test_figure14_no_reverse_flow():
    constraints = parse_constraints(FIG14)
    assert not proves(constraints, parse_constraint("B <= A"))


def test_saturation_is_idempotent():
    constraints = parse_constraints(FIG14)
    graph = ConstraintGraph(constraints)
    saturate(graph)
    edges_after_first = len(graph)
    saturate(graph)
    assert len(graph) == edges_after_first


def test_original_edges_present_in_both_polarities():
    constraints = parse_constraints(["a <= b"])
    graph = ConstraintGraph(constraints)
    a_cov = Node(parse_dtv("a"), Variance.COVARIANT)
    b_cov = Node(parse_dtv("b"), Variance.COVARIANT)
    a_con = Node(parse_dtv("a"), Variance.CONTRAVARIANT)
    b_con = Node(parse_dtv("b"), Variance.CONTRAVARIANT)
    view = GraphView(graph)
    assert view.has_edge(a_cov, b_cov, EdgeKind.ORIGINAL)
    assert view.has_edge(b_con, a_con, EdgeKind.ORIGINAL)


def test_forget_recall_edges_flip_variance_for_store():
    constraints = parse_constraints(["A <= x.store"])
    graph = ConstraintGraph(constraints)
    inner = Node(parse_dtv("x.store"), Variance.COVARIANT)
    outer = Node(parse_dtv("x"), Variance.CONTRAVARIANT)
    view = GraphView(graph)
    assert view.has_edge(inner, outer, EdgeKind.FORGET)
    assert view.has_edge(outer, inner, EdgeKind.RECALL)
