"""Scheme serialization and bound placement against the per-cell references.

:func:`repro.core.solver.scheme_from_shapes` reads each reachable class's
sorted children once and carries the emitted path's variance down the walk;
:meth:`repro.core.shapes.ShapeInference.place_bounds` walks each bound's
label word with a memo keyed by ``(cell, remaining word)``.
``tests/core/naive_reference.py`` keeps the versions they replaced: a
serializer re-reading decoded capabilities in every pass and recomputing
each child's path variance, and a per-bound ``cell_at`` walk.  Over
generated constraint sets both must produce the same scheme (constraints
and quantified variables) and the same per-cell bounds.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstraintGraph,
    ConstraintSet,
    default_lattice,
    infer_shapes,
    parse_constraints,
    parse_dtv,
    saturate,
)
from repro.core.lattice import BOTTOM
from repro.core.simplify import constant_bound_ids
from repro.core.solver import ProcedureTypingInput, scheme_from_shapes

from naive_reference import naive_cell_at, naive_scheme_from_shapes

LATTICE = default_lattice()

_VARS = ["f.in_stack0", "f.in_ecx", "f.out_eax", "a", "b", "p", "int", "num32", "ptr"]
_LABELS = [
    "",
    "",
    ".load",
    ".store",
    ".sigma32@0",
    ".load.sigma32@0",
    ".load.sigma32@4",
    ".store.sigma32@0",
    ".load.sigma32@0.load",
]

FORMAL_INS = (parse_dtv("f.in_stack0"), parse_dtv("f.in_ecx"))
FORMAL_OUTS = (parse_dtv("f.out_eax"),)


def _term(draw):
    return draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))


@st.composite
def constraint_sets(draw):
    constraints = ConstraintSet()
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        left, right = _term(draw), _term(draw)
        if left != right:
            constraints.add(parse_constraints([f"{left} <= {right}"]).subtype.pop())
    return constraints


def _solved(constraints):
    """Shapes, constraint graph and bound list as the solver builds them."""
    shapes = infer_shapes(constraints, LATTICE)
    graph = ConstraintGraph(constraints, encoding=shapes.encoding)
    saturate(graph)
    shapes.clear_bounds()
    return shapes, constant_bound_ids(graph, LATTICE), len(graph._labels) + 1


def _place_per_bound(shapes, bounds, base):
    for did, word, kind, constant in bounds:
        cell = naive_cell_at(shapes, did, word, base)
        if cell is None:
            continue
        if kind == "lower":
            shapes.apply_lower(cell, constant)
        else:
            shapes.apply_upper(cell, constant)


def _assert_same_placement(constraints):
    memoized, bounds, base = _solved(constraints)
    memoized.place_bounds(bounds, base)
    per_bound, same_bounds, _ = _solved(constraints)
    assert same_bounds == bounds
    _place_per_bound(per_bound, bounds, base)
    assert memoized._lower == per_bound._lower
    assert memoized._upper == per_bound._upper
    return memoized


def _assert_children_sorted(shapes):
    for cell in range(len(shapes._parent)):
        if shapes.find(cell) == cell:
            children = shapes.children(cell)
            assert [str(label) for label, _ in children] == sorted(
                str(label) for label in shapes._labels if shapes._label_ids[label] in shapes._edges[cell]
            )
            assert all(shapes.find(target) == target for _, target in children)


def _assert_same_scheme(constraints, max_depth):
    shapes = _assert_same_placement(constraints)
    _assert_children_sorted(shapes)
    procedure = ProcedureTypingInput("f", constraints, FORMAL_INS, FORMAL_OUTS)
    fast = scheme_from_shapes(procedure, shapes, LATTICE, max_depth=max_depth)
    naive = naive_scheme_from_shapes(procedure, shapes, LATTICE, max_depth=max_depth)
    assert fast.constraints == naive.constraints
    assert fast.quantified == naive.quantified
    assert str(fast) == str(naive)
    return fast


@settings(max_examples=200, deadline=None)
@given(constraint_sets(), st.integers(min_value=1, max_value=6))
def test_scheme_and_placement_match_per_cell_references(constraints, max_depth):
    _assert_same_scheme(constraints, max_depth)


def test_recursive_and_shared_classes_get_existentials():
    # A linked list through the formal-in, shared with the formal-out.
    constraints = parse_constraints(
        [
            "f.in_stack0 <= a",
            "a.load.sigma32@0 <= a",
            "a.load.sigma32@4 <= int",
            "a <= f.out_eax",
            "f.in_ecx <= b",
            "b.store.sigma32@0 <= num32",
        ]
    )
    scheme = _assert_same_scheme(constraints, max_depth=6)
    # The cycle runs through two classes: ``a`` and ``a.load``.
    assert len(scheme.quantified) == 2


def test_contravariant_paths_link_existentials_on_the_left():
    # ``store`` flips variance: the existential sits on the other side.
    constraints = parse_constraints(
        ["f.in_stack0 <= a", "a.store.sigma32@0 <= p", "p <= a", "ptr <= p"]
    )
    _assert_same_scheme(constraints, max_depth=6)


def test_placement_memo_keeps_classes_apart():
    # ``y.load`` and ``q.load`` are never named: both bounds walk the word
    # ``load``, from two different classes.
    constraints = parse_constraints(["int <= x.load", "x <= y", "num32 <= p.load", "p <= q"])
    shapes = _assert_same_placement(constraints)
    y_load, q_load = shapes.lookup(parse_dtv("y.load")), shapes.lookup(parse_dtv("q.load"))
    assert y_load != q_load
    assert shapes.bounds(y_load)[0] == "int"
    assert shapes.bounds(q_load)[0] == "num32"


def test_children_sort_by_label_string_not_label_id():
    # ``a.load`` sorts before ``b.in_stack0``, so ``load`` gets the smaller
    # label id; ``in_stack0`` still comes first.
    constraints = parse_constraints(["a.load <= int", "b.in_stack0 <= int", "b.load <= int", "a <= b"])
    shapes = infer_shapes(constraints, LATTICE)
    _assert_children_sorted(shapes)
    labels = [str(label) for label, _ in shapes.children(shapes.lookup(parse_dtv("b")))]
    assert labels == ["in_stack0", "load"]


def test_placement_memo_reuses_shared_suffixes():
    # Several variables in one class with bounds on the same word.
    constraints = parse_constraints(
        [
            "a <= b",
            "b <= p",
            "a.load.sigma32@0 <= int",
            "b.load.sigma32@0 <= num32",
            "int <= p.load.sigma32@4",
            "ptr <= a.load.sigma32@0.load",
        ]
    )
    shapes = _assert_same_placement(constraints)
    cell = shapes.lookup(parse_dtv("a.load.sigma32@0"))
    assert shapes.bounds(cell) == (BOTTOM, "int")
