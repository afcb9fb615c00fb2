"""The per-SCC integer encoding against the per-variable construction it replaced.

:func:`repro.core.shapes.infer_shapes` builds the constraint set's
:class:`~repro.core.intern.SccEncoding` and runs the union-find over dtv ids
with label-id-keyed edges; the solver builds the constraint graph from the
same encoding and places each derived bound by walking label ids from its
variable's cell.  The references in ``tests/core/naive_reference.py`` do the
same work over :class:`~repro.core.variables.DerivedTypeVariable` objects.
The two must agree exactly -- cell numbering included, since ``τN`` and
``struct_N`` names follow it:

* the quotient: each cell's representative, ranks, decoded edges, bounds,
  marks, base cells and ``scalar_checks``.  Raw parent pointers may differ by
  path compression alone: the reference walks every variable from its base
  cell, calling ``find`` on the way, where the encoding reuses a memoized
  cell;
* the constant bounds: the same list in the same order (deduplicated on the
  variable a state reads back as), and the same per-cell bounds once placed.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    AddConstraint,
    ConstraintGraph,
    ConstraintSet,
    Solver,
    SubConstraint,
    default_lattice,
    derive_constant_bounds,
    infer_shapes,
    parse_constraints,
    parse_dtv,
    saturate,
)
from repro.core.intern import SccEncoding
from repro.core.solver import ProcedureTypingInput
from repro.core.simplify import constant_bound_ids

from naive_reference import naive_constant_bounds, naive_infer_shapes

LATTICE = default_lattice()

_VARS = ["a", "b", "c", "p", "q", "int", "num32", "ptr"]
_LABELS = [
    "",
    ".load",
    ".store",
    ".sigma32@0",
    ".load.sigma32@4",
    ".store.sigma32@0",
    ".in_stack0",
    ".out_eax.load",
]


def _term(draw):
    return draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))


@st.composite
def constraint_sets(draw):
    constraints = ConstraintSet()
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        left, right = _term(draw), _term(draw)
        if left != right:
            constraints.add(parse_constraints([f"{left} <= {right}"]).subtype.pop())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        ctor = draw(st.sampled_from([AddConstraint, SubConstraint]))
        constraints.add(ctor(*(parse_dtv(_term(draw)) for _ in range(3))))
    return constraints


def _decoded_edges(shapes):
    return {
        cell: {shapes._labels[lid]: target for lid, target in edges.items()}
        for cell, edges in enumerate(shapes._edges)
        if edges is not None
    }


def _representatives(shapes):
    return [shapes.find(cell) for cell in range(len(shapes._parent))]


def _assert_same_quotient(fast, naive):
    count = len(naive._parent)
    assert _representatives(fast) == _representatives(naive)
    assert fast._rank == naive._rank
    assert _decoded_edges(fast) == naive._edges
    assert fast._lower == [naive._lower[cell] for cell in range(count)]
    assert fast._upper == [naive._upper[cell] for cell in range(count)]
    assert fast._int_mark == naive._int_mark
    assert fast._ptr_mark == naive._ptr_mark
    assert fast._base_cells == naive._base_cells
    assert fast.scalar_checks == naive.scalar_checks


def _place_bounds_fast(constraints):
    """The solver's path: encoding -> shapes -> graph -> int bounds -> cells."""
    shapes = infer_shapes(constraints, LATTICE)
    graph = ConstraintGraph(constraints, encoding=shapes.encoding)
    saturate(graph)
    shapes.clear_bounds()
    shapes.place_bounds(constant_bound_ids(graph, LATTICE), len(graph._labels) + 1)
    return shapes, graph


def _place_bounds_naive(constraints):
    """The per-variable path: materialize each bound's variable, look it up."""
    shapes = naive_infer_shapes(constraints, LATTICE)
    graph = ConstraintGraph(constraints)
    saturate(graph)
    shapes.clear_bounds()
    bounds = naive_constant_bounds(graph, LATTICE)
    for dtv, kind, constant in bounds:
        cell = shapes.lookup(dtv)
        if cell is None:
            continue
        if kind == "lower":
            shapes.apply_lower(cell, constant)
        else:
            shapes.apply_upper(cell, constant)
    return shapes, graph, bounds


def _assert_equivalent(constraints):
    _assert_same_quotient(
        infer_shapes(constraints, LATTICE), naive_infer_shapes(constraints, LATTICE)
    )
    fast, fast_graph = _place_bounds_fast(constraints)
    naive, naive_graph, naive_bounds = _place_bounds_naive(constraints)
    assert derive_constant_bounds(fast_graph, LATTICE) == naive_bounds
    assert list(fast_graph._edge_list) == list(naive_graph._edge_list)
    _assert_same_quotient(fast, naive)


@settings(max_examples=200, deadline=None)
@given(constraint_sets())
def test_encoded_quotient_and_bounds_match_per_variable_reference(constraints):
    _assert_equivalent(constraints)


def test_memoized_cells_skip_path_compression_only():
    # The reference re-walks ``b.load`` from ``b``'s base cell on every
    # additive pass, compressing ``b``'s path; the memo does not.
    constraints = parse_constraints(["a <= a.sigma32@0", "a.load <= b"])
    constraints.add(AddConstraint(parse_dtv("a"), parse_dtv("b.load"), parse_dtv("a.load")))
    _assert_equivalent(constraints)


def test_additive_constraints():
    constraints = parse_constraints(
        ["p.load.sigma32@0 <= w", "i <= int", "z.load.sigma32@0 <= v", "a <= int", "b <= int"]
    )
    constraints.add(AddConstraint(parse_dtv("p"), parse_dtv("i"), parse_dtv("z")))
    constraints.add(SubConstraint(parse_dtv("a"), parse_dtv("b"), parse_dtv("c")))
    constraints.add(AddConstraint(parse_dtv("int"), parse_dtv("z"), parse_dtv("q.load")))
    _assert_equivalent(constraints)


def test_constants_on_both_sides():
    constraints = parse_constraints(
        ["int <= num32", "int <= x", "x <= num32", "int.load <= y", "ptr <= int"]
    )
    _assert_equivalent(constraints)
    shapes = infer_shapes(constraints, LATTICE)
    assert shapes.scalar_checks == [("int", "num32"), ("ptr", "int")]


def test_load_store_pointer_closure():
    # Load and store children exist before any union: the closure pass, not
    # a union, must identify them (and transitively their field children).
    constraints = parse_constraints(
        [
            "v <= p.store.sigma32@0",
            "p.load.sigma32@0 <= w",
            "q.load <= r",
            "s <= q.store",
            "r.load.sigma32@4 <= int",
            "t <= r.store.sigma32@4",
        ]
    )
    _assert_equivalent(constraints)
    shapes = infer_shapes(constraints, LATTICE)
    assert shapes.lookup(parse_dtv("v")) == shapes.lookup(parse_dtv("w"))
    assert shapes.lookup(parse_dtv("s")) == shapes.lookup(parse_dtv("r"))


def test_bounds_deduplicate_on_the_variable_read_back():
    # ``x.load`` reached with an empty stack and ``x`` with ``load`` pending
    # are one bound, not two.
    constraints = parse_constraints(["int <= x.load", "x <= y", "int <= y.load"])
    fast, graph = _place_bounds_fast(constraints)
    bounds = derive_constant_bounds(graph, LATTICE)
    assert len(bounds) == len(set(bounds))
    naive, _, naive_bounds = _place_bounds_naive(constraints)
    assert bounds == naive_bounds


def test_encoding_orders_are_canonical():
    constraints = parse_constraints(["b.load <= a", "a.store.sigma32@0 <= c", "int <= c"])
    encoding = SccEncoding.from_constraints(constraints, LATTICE)
    dtvs = [encoding.dtv(did) for did in range(len(encoding.names))]
    names = [str(dtv) for dtv in dtvs]
    assert names == sorted(names) == encoding.names
    for did, dtv in enumerate(dtvs):
        if dtv.labels:
            assert dtvs[encoding.prefix[did]] == dtv.prefix
            assert encoding.labels[encoding.last_lid[did]] == dtv.labels[-1]
        else:
            assert encoding.prefix[did] == encoding.last_lid[did] == -1
    assert encoding.constant == [str(dtv) == "int" for dtv in dtvs]
    pairs = [(str(dtvs[l]), str(dtvs[r])) for l, r in encoding.subtype]
    assert pairs == [
        (str(c.left), str(c.right)) for c in sorted(constraints.subtype, key=str)
    ]


def test_solver_releases_the_encoding():
    solver = Solver(LATTICE)
    proc = ProcedureTypingInput(
        "f",
        parse_constraints(["f.in_stack0 <= x", "x.load.sigma32@0 <= int", "x <= f.out_eax"]),
        formal_ins=(parse_dtv("f.in_stack0"),),
        formal_outs=(parse_dtv("f.out_eax"),),
    )
    result = solver.solve_scc([proc.name], {proc.name: proc}, {})[proc.name]
    assert result.shapes.encoding is None
    assert result.shapes._cells is None
    assert result.shapes.lookup(parse_dtv("x.load")) is not None
