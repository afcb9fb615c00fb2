"""The pointer-subtyping examples of section 3.3 and Figure 4.

Both aliased-copy programs must entail ``X <= Y``; the naive unary ``Ptr``
constructor cannot type both, which is why the paper splits the read and write
capabilities into ``.load`` / ``.store`` and adds the S-POINTER rule.
"""

import pytest
from naive_reference import DeductionEngine

from repro.core import parse_constraint, parse_constraints, proves


# f() { p = q; *p = x; y = *q; }
PROGRAM_1 = [
    "q <= p",
    "x <= p.store",
    "q.load <= y",
]

# g() { p = q; *q = x; y = *p; }
PROGRAM_2 = [
    "q <= p",
    "x <= q.store",
    "p.load <= y",
]


@pytest.mark.parametrize("program", [PROGRAM_1, PROGRAM_2], ids=["fig4-f", "fig4-g"])
def test_copy_through_aliased_pointers_saturation(program):
    constraints = parse_constraints(program)
    goal = parse_constraint("x <= y")
    assert proves(constraints, goal)


@pytest.mark.parametrize("program", [PROGRAM_1, PROGRAM_2], ids=["fig4-f", "fig4-g"])
def test_copy_through_aliased_pointers_deduction(program):
    constraints = parse_constraints(program)
    engine = DeductionEngine(constraints, max_depth=2)
    goal = parse_constraint("x <= y")
    assert engine.entails(goal)


def test_wrong_direction_not_provable():
    """The converse flow must not be derivable (no over-unification)."""
    constraints = parse_constraints(PROGRAM_1)
    assert not proves(constraints, parse_constraint("y <= x"))


def test_store_load_consistency():
    """S-POINTER: what is stored through a pointer can be loaded back."""
    constraints = parse_constraints(["int <= a.store", "a.load <= b"])
    assert proves(constraints, parse_constraint("int <= b"))


def test_unrelated_pointers_stay_unrelated():
    constraints = parse_constraints(
        ["x <= p.store", "q.load <= y"]
    )
    assert not proves(constraints, parse_constraint("x <= y"))
