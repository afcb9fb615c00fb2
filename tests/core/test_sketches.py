"""Tests for sketches and their lattice structure (Definition 3.5, Figure 18)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import BOTTOM, TOP, LoadLabel, Sketch, StoreLabel, default_lattice, field, top_sketch
from repro.core.labels import Label

LOAD = LoadLabel()
STORE = StoreLabel()
F0 = field(32, 0)
F4 = field(32, 4)


def _lattice():
    return default_lattice()


def _linked_list_sketch():
    """The Figure 16-style sketch: load.sigma32@0 loops, load.sigma32@4 is an int."""
    sketch = Sketch(_lattice())
    pointee = sketch.add_node()
    sketch.add_edge(sketch.root, LOAD, pointee)
    sketch.add_edge(pointee, F0, sketch.root)
    handle = sketch.add_node()
    sketch.add_edge(pointee, F4, handle)
    sketch.nodes[handle].upper = "#FileDescriptor"
    return sketch


def test_add_path_and_accepts():
    sketch = Sketch(_lattice())
    node = sketch.add_path([LOAD, F4])
    assert sketch.accepts([LOAD])
    assert sketch.accepts([LOAD, F4])
    assert not sketch.accepts([STORE])
    assert sketch.follow([LOAD, F4]) == node


def test_recursive_sketch_detection():
    sketch = _linked_list_sketch()
    assert sketch.is_recursive()
    flat = Sketch(_lattice())
    flat.add_path([LOAD, F0])
    assert not flat.is_recursive()


def test_recursive_sketch_accepts_unbounded_paths():
    sketch = _linked_list_sketch()
    path = [LOAD, F0] * 5 + [LOAD, F4]
    assert sketch.accepts(path)


def test_display_label_uses_variance():
    sketch = Sketch(_lattice())
    out = sketch.add_path([field(32, 0)])
    sketch.nodes[out].lower = "int"
    sketch.nodes[out].upper = "num32"
    # covariant path -> join of lower bounds
    assert sketch.display_label([field(32, 0)]) == "int"
    # contravariant path -> meet of upper bounds
    contra = sketch.add_path([STORE])
    sketch.nodes[contra].upper = "#FileDescriptor"
    assert sketch.display_label([STORE]) == "#FileDescriptor"


def test_apply_bounds():
    sketch = Sketch(_lattice())
    sketch.apply_lower(sketch.root, "int")
    sketch.apply_lower(sketch.root, "#SuccessZ")
    sketch.apply_upper(sketch.root, "num32")
    node = sketch.node(sketch.root)
    assert node.lower == "int"
    assert node.upper == "num32"


def test_meet_is_union_of_capabilities():
    a = Sketch(_lattice())
    a.add_path([LOAD])
    b = Sketch(_lattice())
    b.add_path([STORE])
    met = a.meet(b)
    assert met.accepts([LOAD])
    assert met.accepts([STORE])


def test_join_is_intersection_of_capabilities():
    a = Sketch(_lattice())
    a.add_path([LOAD, F0])
    a.add_path([STORE])
    b = Sketch(_lattice())
    b.add_path([LOAD, F0])
    joined = a.join(b)
    assert joined.accepts([LOAD, F0])
    assert not joined.accepts([STORE])


def test_meet_and_join_node_labels():
    a = Sketch(_lattice())
    a.nodes[a.root].lower = "int"
    b = Sketch(_lattice())
    b.nodes[b.root].lower = "#FileDescriptor"
    met = a.meet(b)
    joined = a.join(b)
    # covariant root: meet of sketches meets the labels, join joins them
    assert met.nodes[met.root].lower == "#FileDescriptor"
    assert joined.nodes[joined.root].lower == "int"


def test_leq_with_capabilities():
    more = Sketch(_lattice())
    more.add_path([LOAD, F0])
    more.add_path([STORE])
    less = Sketch(_lattice())
    less.add_path([LOAD, F0])
    # more capable sketches are lower in the order
    assert more.leq(less)
    assert not less.leq(more)


def test_top_sketch_is_greatest():
    top = top_sketch(_lattice())
    other = _linked_list_sketch()
    assert other.leq(top)


def test_copy_is_independent():
    sketch = _linked_list_sketch()
    clone = sketch.copy()
    assert clone.accepts([LOAD, F0, LOAD])
    clone.nodes[clone.root].lower = "int"
    assert sketch.nodes[sketch.root].lower == BOTTOM


def test_paths_enumeration_bounded():
    sketch = _linked_list_sketch()
    words = [w for w, _ in sketch.paths(max_depth=3)]
    assert () in words
    assert all(len(w) <= 3 for w in words)


def test_to_dot_renders():
    dot = _linked_list_sketch().to_dot("example")
    assert dot.startswith("digraph example")
    assert "load" in dot


# -- property tests -----------------------------------------------------------------

_label_pool = [LOAD, STORE, F0, F4]


def _random_sketch(draw_paths):
    sketch = Sketch(_lattice())
    for path in draw_paths:
        sketch.add_path(path)
    return sketch


_paths = st.lists(st.lists(st.sampled_from(_label_pool), max_size=3), max_size=4)


@given(_paths, _paths)
def test_meet_accepts_everything_either_operand_accepts(paths_a, paths_b):
    a, b = _random_sketch(paths_a), _random_sketch(paths_b)
    met = a.meet(b)
    for path in paths_a + paths_b:
        assert met.accepts(path)


@given(_paths, _paths)
def test_join_accepts_only_common_paths(paths_a, paths_b):
    a, b = _random_sketch(paths_a), _random_sketch(paths_b)
    joined = a.join(b)
    for path in paths_a:
        assert joined.accepts(path) == b.accepts(path)


@given(_paths)
def test_meet_idempotent_on_language(paths):
    sketch = _random_sketch(paths)
    met = sketch.meet(sketch)
    for path in paths:
        assert met.accepts(path)
    assert sketch.leq(met) or met.leq(sketch)


@given(_paths, _paths)
def test_meet_is_a_lower_bound_in_sketch_order(paths_a, paths_b):
    a, b = _random_sketch(paths_a), _random_sketch(paths_b)
    met = a.meet(b)
    assert met.leq(a)
    assert met.leq(b)


def _leafy_sketch():
    """root -load-> p; p -sigma32@0-> leaf; p -sigma32@4-> leaf2 (leaves have no edge dict)."""
    sketch = Sketch(_lattice())
    pointee = sketch.add_path([LOAD])
    first = sketch.add_path([LOAD, F0])
    second = sketch.add_node(upper="int")
    sketch.add_edge(pointee, F4, second)
    return sketch, pointee, first, second


def test_leaf_nodes_have_no_edge_dict():
    sketch, pointee, first, second = _leafy_sketch()
    assert set(sketch.edges) == {sketch.root, pointee}
    assert sketch.follow([LOAD, F0]) == first
    assert sketch.follow([LOAD, F0, LOAD]) is None
    assert sketch.successors(first) == {}
    assert sketch.reachable(first) == {first}
    assert sketch.reachable() == {sketch.root, pointee, first, second}
    assert sketch.add_path([LOAD, F0]) == first  # no new node, no new edge dict
    assert set(sketch.edges) == {sketch.root, pointee}


def test_leaf_nodes_copy_and_serialize():
    sketch, _, _, _ = _leafy_sketch()
    copied = sketch.copy()
    assert copied.to_json() == sketch.to_json()
    assert str(copied) == str(sketch)
    rebuilt = Sketch.from_json(sketch.to_json(), sketch.lattice)
    assert rebuilt.to_json() == sketch.to_json()
    assert len(rebuilt.edges) == 2, "decoding keeps leaves edge-dict free"
    assert sketch.to_json()["nodes"][-1][2] == "int"
    single = Sketch(_lattice())
    assert single.edges == {}
    assert single.to_json() == {"nodes": [[0, BOTTOM, TOP]], "edges": []}
    assert single.copy().to_json() == single.to_json()
    assert single.reachable() == {single.root} and single.successors(single.root) == {}


def test_sketches_are_slotted():
    sketch, pointee, _, _ = _leafy_sketch()
    for obj in (sketch, sketch.node(pointee)):
        assert not hasattr(obj, "__dict__")
