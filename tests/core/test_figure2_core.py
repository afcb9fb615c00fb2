"""End-to-end core test on the paper's running example (Figure 2 / Figure 20).

The constraint set below is the one obtained by abstract interpretation of the
``close_last`` disassembly (Figure 20), transcribed into this reproduction's
naming scheme.  Solving it must recover:

* a recursive sketch for the ``list`` parameter (a linked list),
* the ``#FileDescriptor`` purpose for the ``handle`` field,
* the ``int`` / ``#SuccessZ`` return value,
* a ``const struct_0 *`` C type for the parameter,
* a type scheme equivalent to the one shown in Figure 2.
"""

import pytest

from repro.core import (
    DerivedTypeVariable,
    PointerType,
    ProcedureTypingInput,
    Solver,
    StructRef,
    StructType,
    TypeDisplay,
    TypedefType,
    Variance,
    default_lattice,
    field,
    in_label,
    infer_shapes,
    out_label,
    parse_constraints,
    parse_dtv,
)

FIGURE_20 = [
    # formal-in flows into the initial stack slot, then into edx
    "close_last.in_stack0 <= AR_close_last_INITIAL_4",
    "AR_close_last_INITIAL_4 <= EDX_8048420",
    # the loop: eax := [edx]; edx := eax
    "EDX_8048420 <= unknown_loc_106",
    "EDX_8048430 <= unknown_loc_106",
    "unknown_loc_106.load.sigma32@0 <= EAX_8048432",
    "EAX_8048432 <= EDX_8048430",
    # the handle load: eax := [edx + 4]
    "EDX_8048420 <= unknown_loc_111",
    "EDX_8048430 <= unknown_loc_111",
    "unknown_loc_111.load.sigma32@4 <= EAX_8048438",
    # re-use of the argument slot, then the tail call to close
    "EAX_8048438 <= AR_close_last_804843B_4",
    "AR_close_last_804843B_4 <= close$804843F.in_stack0",
    "close$804843F.in_stack0 <= #FileDescriptor",
    "close$804843F.in_stack0 <= int",
    # close's return value becomes close_last's return value
    "close$804843F.out_eax <= EAX_804843F",
    "int <= close$804843F.out_eax",
    "#SuccessZ <= close$804843F.out_eax",
    "EAX_804843F <= close_last.out_eax",
]

IN_STACK0 = DerivedTypeVariable("close_last", (in_label("stack0"),))
OUT_EAX = DerivedTypeVariable("close_last", (out_label("eax"),))


@pytest.fixture(scope="module")
def result():
    constraints = parse_constraints(FIGURE_20)
    proc = ProcedureTypingInput(
        name="close_last",
        constraints=constraints,
        formal_ins=(IN_STACK0,),
        formal_outs=(OUT_EAX,),
    )
    solver = Solver(default_lattice())
    return solver.solve_scc([proc.name], {proc.name: proc}, {})[proc.name]


def test_parameter_sketch_is_recursive(result):
    sketch = result.formal_in_sketches[IN_STACK0]
    assert sketch.is_recursive()
    # The next pointer: following load.sigma32@0 returns to a node with the
    # same capabilities (the same automaton state, in fact).
    first = sketch.follow([parse_dtv("x.load").labels[0], field(32, 0)])
    assert first is not None
    assert sketch.follow(
        [parse_dtv("x.load").labels[0], field(32, 0)] * 3
    ) == first or sketch.is_recursive()


def test_handle_field_purpose(result):
    sketch = result.formal_in_sketches[IN_STACK0]
    load = parse_dtv("x.load").labels[0]
    node = sketch.follow([load, field(32, 4)])
    assert node is not None
    data = sketch.node(node)
    # contravariant position: the meet of upper bounds is displayed
    assert data.upper == "#FileDescriptor"


def test_return_value_bounds(result):
    sketch = result.formal_out_sketches[OUT_EAX]
    data = sketch.node(sketch.root)
    # int join #SuccessZ = int in the default lattice
    assert data.lower == "int"


def test_no_store_capability_on_list_parameter(result):
    """The list is only read, never written: the parameter should be const."""
    sketch = result.formal_in_sketches[IN_STACK0]
    load = parse_dtv("x.load").labels[0]
    store = parse_dtv("x.store").labels[0]
    assert sketch.follow([load]) is not None
    assert sketch.follow([store]) is None


def test_displayed_c_type(result):
    display = TypeDisplay(default_lattice())
    sketch = result.formal_in_sketches[IN_STACK0]
    ctype = display.ctype_of_sketch(sketch, Variance.CONTRAVARIANT)
    assert isinstance(ctype, PointerType)
    assert ctype.const, "read-only pointer parameter should be const"
    pointee = ctype.pointee
    assert isinstance(pointee, (StructType, StructRef))
    if isinstance(pointee, StructType):
        offsets = {f.offset for f in pointee.fields}
        assert offsets == {0, 4}
        field0 = pointee.field_at(0).ctype
        field4 = pointee.field_at(4).ctype
        assert isinstance(field0, PointerType)
        assert isinstance(field0.pointee, (StructRef, StructType))
        assert isinstance(field4, TypedefType)
        assert field4.name == "#FileDescriptor"


def test_scheme_roundtrip(result):
    """Re-solving the serialized scheme reproduces the recursive structure."""
    scheme = result.scheme
    assert scheme.proc == "close_last"
    assert len(scheme.constraints) > 0
    lattice = default_lattice()
    shapes = infer_shapes(scheme.constraints, lattice)
    sketch = shapes.sketch_for(IN_STACK0)
    load = parse_dtv("x.load").labels[0]
    assert sketch.follow([load, field(32, 0), load]) is not None
    node = sketch.follow([load, field(32, 4)])
    assert node is not None
    assert sketch.node(node).upper == "#FileDescriptor"


def test_scheme_mentions_formals(result):
    text = str(result.scheme)
    assert "close_last.in_stack0" in text
    assert "close_last.out_eax" in text
