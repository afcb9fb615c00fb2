"""Tests for the C type model and the sketch-to-C display policies (section 4.3)."""

import pytest

from repro.core import (
    FunctionType,
    IntType,
    PointerType,
    Sketch,
    StructRef,
    StructType,
    TypeDisplay,
    TypedefType,
    UnionType,
    UnknownType,
    Variance,
    VoidType,
    default_lattice,
    field,
    render_function,
)
from repro.core.ctype import StructField, is_integral, is_pointer, strip_typedefs
from repro.core.labels import InLabel, LoadLabel, OutLabel, StoreLabel

LOAD = LoadLabel()
STORE = StoreLabel()


# -- ctype model ------------------------------------------------------------------------


def test_ctype_rendering():
    assert str(IntType(32, True)) == "int"
    assert str(IntType(8, False)) == "unsigned char"
    assert str(PointerType(IntType(8, True), const=True)) == "const char *"
    assert str(VoidType()) == "void"
    struct = StructType("node", (StructField(0, PointerType(StructRef("node"))), StructField(4, IntType(32))))
    assert "struct node" in str(struct)


def test_pointer_depth():
    assert PointerType(PointerType(IntType(32))).pointer_depth() == 2
    assert IntType(32).pointer_depth() == 0
    assert TypedefType("HANDLE", PointerType(VoidType())).pointer_depth() == 1


def test_struct_size_and_field_lookup():
    struct = StructType("s", (StructField(0, IntType(32)), StructField(4, IntType(32))))
    assert struct.size_bits == 64
    assert struct.field_at(4).ctype == IntType(32)
    assert struct.field_at(12) is None


def test_strip_typedefs_and_predicates():
    handle = TypedefType("HANDLE", PointerType(VoidType()))
    assert isinstance(strip_typedefs(handle), PointerType)
    assert is_pointer(handle)
    assert is_integral(TypedefType("DWORD", IntType(32, False)))


def test_render_function():
    ftype = FunctionType((PointerType(IntType(8), const=True), IntType(32)), IntType(32))
    text = render_function("strncmp_like", ftype, ["s", "n"])
    assert text == "int strncmp_like(const char * s, int n);"
    assert render_function("f", FunctionType((), VoidType())) == "void f(void);"


# -- display ----------------------------------------------------------------------------


def _display():
    return TypeDisplay(default_lattice())


def test_scalar_display_prefers_variance_appropriate_bound():
    display = _display()
    assert display.scalar_from_bounds("int", "TOP", Variance.COVARIANT) == IntType(32, True)
    assert str(display.scalar_from_bounds("BOTTOM", "#FileDescriptor", Variance.CONTRAVARIANT)) == "#FileDescriptor"
    # no evidence at all: default machine-word integer
    assert display.scalar_from_bounds("BOTTOM", "TOP", Variance.COVARIANT) == IntType(32, True)


def test_union_policy_builds_antichain():
    display = _display()
    union = display.union_of_atoms(["int", "str"])
    assert isinstance(union, UnionType)
    assert len(union.members) == 2
    single = display.union_of_atoms(["int", "#FileDescriptor"])
    assert not isinstance(single, UnionType)


def test_pointer_display_with_const():
    lattice = default_lattice()
    sketch = Sketch(lattice)
    pointee = sketch.add_node()
    sketch.add_edge(sketch.root, LOAD, pointee)
    sketch.nodes[pointee].upper = "int"
    display = _display()
    ctype = display.ctype_of_sketch(sketch, Variance.CONTRAVARIANT)
    assert isinstance(ctype, PointerType)
    assert ctype.const  # load but no store
    # adding a store capability removes the const annotation
    sketch.add_edge(sketch.root, STORE, pointee)
    ctype = _display().ctype_of_sketch(sketch, Variance.CONTRAVARIANT)
    assert isinstance(ctype, PointerType)
    assert not ctype.const


def test_struct_display_from_fields():
    lattice = default_lattice()
    sketch = Sketch(lattice)
    pointee = sketch.add_node()
    sketch.add_edge(sketch.root, LOAD, pointee)
    f0 = sketch.add_node()
    f4 = sketch.add_node()
    sketch.add_edge(pointee, field(32, 0), f0)
    sketch.add_edge(pointee, field(32, 4), f4)
    sketch.nodes[f4].upper = "#FileDescriptor"
    display = _display()
    ctype = display.ctype_of_sketch(sketch, Variance.CONTRAVARIANT)
    assert isinstance(ctype, PointerType)
    assert isinstance(ctype.pointee, StructType)
    assert {f.offset for f in ctype.pointee.fields} == {0, 4}


def _struct_sketch(*offsets):
    sketch = Sketch(default_lattice())
    pointee = sketch.add_node()
    sketch.add_edge(sketch.root, LOAD, pointee)
    for offset in offsets:
        sketch.add_edge(pointee, field(32, offset), sketch.add_node())
    return sketch


def test_replay_reapplies_a_recording_only_where_it_would_convert_the_same():
    box, other = _struct_sketch(0, 4), _struct_sketch(0, 8)
    display = _display()
    display.start_recording()
    first = display.ctype_of_sketch(box, Variance.CONTRAVARIANT)
    defined = display.stop_recording()
    display.start_recording()
    again = display.ctype_of_sketch(box, Variance.CONTRAVARIANT)
    rerolled = display.stop_recording()
    assert first.pointee.name == "struct_0"
    assert again.pointee == StructRef("struct_0")  # re-rolled: a lookup, no definition

    # Replayed in order, the recordings rebuild the state exactly.
    replayed = _display()
    assert replayed.replay(defined) and replayed.replay(rerolled)
    assert replayed.struct_definitions() == display.struct_definitions()
    assert str(replayed.ctype_of_sketch(other, Variance.CONTRAVARIANT)) == str(
        display.ctype_of_sketch(other, Variance.CONTRAVARIANT)
    )

    # Same counter, but the re-roll lookup would now find nothing: no replay,
    # and nothing changes.
    shifted = _display()
    shifted.ctype_of_sketch(other, Variance.CONTRAVARIANT)
    before = shifted.struct_definitions()
    assert not shifted.replay(rerolled)
    assert shifted.struct_definitions() == before
    assert shifted.ctype_of_sketch(box, Variance.CONTRAVARIANT).pointee.name == "struct_1"
    # A different counter alone also refuses.
    assert not _display().replay(rerolled)


def test_recursive_struct_gets_named_and_rerolled():
    lattice = default_lattice()
    sketch = Sketch(lattice)
    pointee = sketch.add_node()
    sketch.add_edge(sketch.root, LOAD, pointee)
    sketch.add_edge(pointee, field(32, 0), sketch.root)  # next pointer loops back
    handle = sketch.add_node()
    sketch.add_edge(pointee, field(32, 4), handle)
    display = _display()
    ctype = display.ctype_of_sketch(sketch, Variance.CONTRAVARIANT)
    assert isinstance(ctype, PointerType)
    pointee_type = ctype.pointee
    assert isinstance(pointee_type, (StructType, StructRef))
    assert display.struct_definitions(), "a named struct should have been synthesized"


def test_single_field_at_offset_zero_collapses():
    """Pointer-to-struct-with-one-field is displayed as pointer-to-field (section 2.4)."""
    lattice = default_lattice()
    sketch = Sketch(lattice)
    pointee = sketch.add_node()
    sketch.add_edge(sketch.root, LOAD, pointee)
    leaf = sketch.add_node()
    sketch.add_edge(pointee, field(32, 0), leaf)
    leaf_node = sketch.nodes[leaf]
    leaf_node.upper = "int"
    ctype = _display().ctype_of_sketch(sketch, Variance.CONTRAVARIANT)
    assert isinstance(ctype, PointerType)
    assert isinstance(ctype.pointee, (IntType, TypedefType))


def test_function_display_from_in_out():
    lattice = default_lattice()
    sketch = Sketch(lattice)
    argument = sketch.add_node()
    result = sketch.add_node()
    sketch.add_edge(sketch.root, InLabel("stack0"), argument)
    sketch.add_edge(sketch.root, OutLabel("eax"), result)
    sketch.nodes[result].lower = "int"
    ctype = _display().ctype_of_sketch(sketch)
    assert isinstance(ctype, FunctionType)
    assert len(ctype.params) == 1


def test_semantic_tag_becomes_typedef():
    display = _display()
    ctype = display.atom_to_ctype("#FileDescriptor")
    assert isinstance(ctype, TypedefType)
    assert ctype.name == "#FileDescriptor"
    assert isinstance(ctype.underlying, IntType)


def test_function_type_builder_orders_stack_params():
    lattice = default_lattice()
    display = _display()
    s_int = Sketch(lattice)
    s_int.nodes[s_int.root].upper = "int"
    s_ptr = Sketch(lattice)
    child = s_ptr.add_node()
    s_ptr.add_edge(s_ptr.root, LOAD, child)
    ftype, names = display.function_type(
        [("stack4", s_int), ("stack0", s_ptr)], [("eax", s_int)]
    )
    assert len(ftype.params) == 2
    assert isinstance(ftype.params[0], PointerType)  # stack0 first
    assert names == ["arg_stack0", "arg_stack4"]
