"""Tests for constraint simplification (section 5) and the deduction rules (Figure 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from naive_reference import DeductionEngine
from repro.core import (
    ConstraintGraph,
    default_lattice,
    derive_constant_bounds,
    parse_constraint,
    parse_constraints,
    parse_dtv,
    proves,
    saturate,
    simplify_constraints,
)


def test_simplification_eliminates_intermediate_variables():
    constraints = parse_constraints(
        ["f.in_stack0 <= a", "a <= b", "b <= c", "c <= f.out_eax"]
    )
    simplified = simplify_constraints(constraints, {"f"})
    assert parse_constraint("f.in_stack0 <= f.out_eax") in simplified.subtype
    bases = {c.left.base for c in simplified} | {c.right.base for c in simplified}
    assert bases == {"f"}


def test_simplification_keeps_constant_bounds():
    constraints = parse_constraints(["f.in_stack0 <= t", "t <= int", "#SuccessZ <= u", "u <= f.out_eax"])
    simplified = simplify_constraints(constraints, {"f", "int", "#SuccessZ"})
    assert parse_constraint("f.in_stack0 <= int") in simplified.subtype
    assert parse_constraint("#SuccessZ <= f.out_eax") in simplified.subtype


def test_simplification_through_fields():
    constraints = parse_constraints(["f.in_stack0 <= p", "p.load.sigma32@4 <= t", "t <= int"])
    simplified = simplify_constraints(constraints, {"f", "int"})
    assert parse_constraint("f.in_stack0.load.sigma32@4 <= int") in simplified.subtype


def test_simplification_respects_store_contravariance():
    constraints = parse_constraints(["x <= f.in_stack0.store", "int <= x"])
    simplified = simplify_constraints(constraints, {"f", "int"})
    assert parse_constraint("int <= f.in_stack0.store") in simplified.subtype


def test_memcpy_like_scheme_derivation():
    """The memcpy shape of section 2.2: what's loaded from src is stored to dst."""
    constraints = parse_constraints(
        [
            "f.in_stack4 <= src",
            "f.in_stack0 <= dst",
            "src.load.sigma8@0 <= v",
            "v <= dst.store.sigma8@0",
        ]
    )
    simplified = simplify_constraints(constraints, {"f"})
    assert parse_constraint(
        "f.in_stack4.load.sigma8@0 <= f.in_stack0.store.sigma8@0"
    ) in simplified.subtype


def test_proves_negative():
    constraints = parse_constraints(["a <= b"])
    assert not proves(constraints, parse_constraint("b <= a"))


def test_constant_bounds_queries():
    constraints = parse_constraints(
        ["int <= f.out_eax", "f.in_stack0 <= t", "t <= #FileDescriptor"]
    )
    graph = ConstraintGraph(constraints)
    saturate(graph)
    bounds = derive_constant_bounds(graph, default_lattice())
    assert (parse_dtv("f.out_eax"), "lower", "int") in bounds
    assert (parse_dtv("f.in_stack0"), "upper", "#FileDescriptor") in bounds
    # and no bogus reversed judgements
    assert (parse_dtv("f.out_eax"), "upper", "int") not in bounds


def test_constant_bounds_through_pointer():
    constraints = parse_constraints(["int <= p.store.sigma32@0", "p.load.sigma32@0 <= x"])
    graph = ConstraintGraph(constraints)
    saturate(graph)
    bounds = derive_constant_bounds(graph, default_lattice())
    assert (parse_dtv("x"), "lower", "int") in bounds


# -- deduction engine ----------------------------------------------------------------------


def test_deduction_reflexivity_and_transitivity():
    engine = DeductionEngine(parse_constraints(["a <= b", "b <= c"]))
    assert engine.entails(parse_constraint("a <= a"))
    assert engine.entails(parse_constraint("a <= c"))
    assert not engine.entails(parse_constraint("c <= a"))


def test_deduction_field_covariance():
    engine = DeductionEngine(parse_constraints(["a <= b", "b.load <= x"]))
    assert engine.entails(parse_constraint("a.load <= b.load"))


def test_deduction_field_contravariance():
    engine = DeductionEngine(parse_constraints(["a <= b", "x <= b.store"]))
    assert engine.entails(parse_constraint("b.store <= a.store"))


def test_deduction_inherit_capabilities():
    engine = DeductionEngine(parse_constraints(["a <= b", "a.load <= x"]))
    assert engine.entails_var(parse_dtv("b.load"))


def test_deduction_s_pointer():
    engine = DeductionEngine(parse_constraints(["x <= p.store", "p.load <= y"]))
    assert engine.entails(parse_constraint("p.store <= p.load"))
    assert engine.entails(parse_constraint("x <= y"))


# -- agreement between the two engines -----------------------------------------------------

_VARS = ["a", "b", "c", "d"]
_LABELS = ["", ".load", ".store"]


@st.composite
def _random_constraint_set(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        left = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))
        right = draw(st.sampled_from(_VARS)) + draw(st.sampled_from(_LABELS))
        if left != right:
            lines.append(f"{left} <= {right}")
    return lines


@settings(max_examples=40, deadline=None)
@given(_random_constraint_set(), st.sampled_from(_VARS), st.sampled_from(_VARS))
def test_saturation_agrees_with_deduction_rules_on_base_judgements(lines, left, right):
    """Soundness/completeness spot-check of the pushdown machinery.

    Every judgement ``left <= right`` between *base* variables derivable by the
    reference deduction engine must be derivable from the saturated graph, and
    vice versa.
    """
    if not lines or left == right:
        return
    constraints = parse_constraints(lines)
    goal = parse_constraint(f"{left} <= {right}")
    engine = DeductionEngine(constraints, max_depth=2)
    assert proves(constraints, goal) == engine.entails(goal)


def test_base_judgement_through_interesting_interior_node():
    """Deterministic regression for the hypothesis counterexample once in ROADMAP.md.

    ``{a.load <= a, b <= a.load} |- b <= a`` by S-TRANS, but every witnessing
    path runs *through* the node of ``a.load`` -- an endpoint-base node, which
    the old membership-in-simplification query refused to cross, so ``proves``
    disagreed with the Figure 3 deduction rules.  The direct ``derives``
    reachability query must find it.
    """
    constraints = parse_constraints(["a.load <= a", "b <= a.load"])
    goal = parse_constraint("b <= a")
    assert DeductionEngine(constraints, max_depth=2).entails(goal)
    assert proves(constraints, goal)
    # The mirrored orientation stays underivable.
    assert not proves(constraints, parse_constraint("a <= b"))
