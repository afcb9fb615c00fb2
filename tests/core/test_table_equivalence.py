"""Constraint tables against the object-level generator and encoder they replaced.

Constraint generation writes each procedure's constraints into a sealed
:class:`~repro.core.intern.ConstraintTable`, and each SCC's
:class:`~repro.core.intern.SccEncoding` merges the member tables with the
instantiated callee schemes.  ``tests/core/naive_reference.py`` keeps the
generator that built one ``DerivedTypeVariable`` per definition site and
use, and the encoder that re-collected, prefix-closed and sorted those
objects.  The two must agree exactly:

* per procedure: the same decoded ``ConstraintSet``, formals and callsites,
  over generated programs and the single-procedure ``_LINES`` strategy of
  ``tests/ir/test_procedure_pass.py``;
* per SCC: the same variable strings in the same order, and the same
  ``prefix``, ``last_lid``, labels, ``constant``, ``subtype`` and
  ``additive`` as the encoding of the decoded, instantiated constraint set --
  for the parts real solves merge, and for random parts with base renames;
* cold generation builds no variable objects beyond the formals.
"""

import os
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.solver as solver_module
import repro.core.variables as variables_module
from repro import analyze_program
from repro.core import (
    AddConstraint,
    ConstraintSet,
    DerivedTypeVariable,
    SubConstraint,
    SubtypeConstraint,
    default_lattice,
)
from repro.core.intern import ConstraintTable, SccEncoding
from repro.core.labels import LOAD, STORE, FieldLabel, InLabel, OutLabel
from repro.gen import GenProfile, generate_program
from repro.ir.program import Program
from repro.typegen import generate_program_constraints

from naive_reference import NaiveSccEncoding, naive_generate_program_constraints

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "ir"))

from test_procedure_pass import procedures  # noqa: E402

LATTICE = default_lattice()


def _program(seed, profile=GenProfile.smoke):
    return generate_program(seed, profile()).compile().program


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


def _assert_same_generation(program):
    fast = generate_program_constraints(program)
    slow = naive_generate_program_constraints(program)
    assert list(fast) == [name for name in program.procedures if name in slow]
    for name, proc in fast.items():
        reference = slow[name]
        assert proc.constraints == reference.constraints, name
        assert len(proc.constraints) == len(reference.constraints)
        assert proc.formal_ins == reference.formal_ins
        assert proc.formal_outs == reference.formal_outs
        assert proc.callsites == reference.callsites


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generator_matches_reference_on_generated_programs(seed):
    _assert_same_generation(_program(seed))


def test_generator_matches_reference_on_a_stress_program():
    _assert_same_generation(_program(20161117, GenProfile.stress))


@settings(max_examples=150, deadline=None)
@given(procedures())
def test_generator_matches_reference_on_single_procedures(procedure):
    _assert_same_generation(Program(procedures={procedure.name: procedure}))


# ---------------------------------------------------------------------------
# The merged per-SCC encoding
# ---------------------------------------------------------------------------


def _decoded(parts):
    """The parts as one instantiated constraint set (the replaced path)."""
    combined = ConstraintSet()
    for part in parts:
        table, renames = part if isinstance(part, tuple) else (part, None)
        constraints = table.to_constraints()
        if renames:
            constraints = constraints.substitute(dict(renames))
        combined.update(constraints)
    return combined


def _assert_same_encoding(parts):
    merged = SccEncoding(parts, LATTICE)
    reference = NaiveSccEncoding(_decoded(parts), LATTICE)
    assert merged.names == [str(dtv) for dtv in reference.dtvs]
    assert merged.prefix == reference.prefix
    assert merged.last_lid == reference.last_lid
    assert merged.labels.items == reference.labels.items
    assert merged.constant == reference.constant
    assert merged.subtype == reference.subtype
    assert merged.additive == reference.additive
    assert [merged.dtv(did) for did in range(len(merged.names))] == reference.dtvs.items


@pytest.mark.parametrize("seed,profile", [(7, "default"), (20161117, "stress")])
def test_merged_encodings_of_real_solves_match_reference(monkeypatch, seed, profile):
    captured = []
    real = solver_module.infer_shapes

    def capturing(constraints, lattice):
        captured.append(list(constraints))
        return real(constraints, lattice)

    monkeypatch.setattr(solver_module, "infer_shapes", capturing)
    types = analyze_program(_program(seed, getattr(GenProfile, profile)))
    assert len(captured) == types.stats["sccs_solved"]
    assert any(len(parts) > 1 for parts in captured)
    assert any(isinstance(part, tuple) and part[1] for parts in captured for part in parts)
    for parts in captured:
        _assert_same_encoding(parts)


#: bases include names the ``(left, right)`` sort cannot order by itself
#: (a space sorts below the `` <= `` separator's continuation).
_BASES = ["a", "a b", "ab", "a$1", "f", "τ0", "int", "num32"]
_WORDS = [
    (),
    (LOAD,),
    (STORE,),
    (FieldLabel(32, 0),),
    (LOAD, FieldLabel(32, 4)),
    (InLabel("stack0"),),
    (OutLabel("eax"), LOAD),
]


@st.composite
def _variables(draw):
    return DerivedTypeVariable(draw(st.sampled_from(_BASES)), draw(st.sampled_from(_WORDS)))


@st.composite
def _tables(draw):
    constraints = ConstraintSet()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        left, right = draw(_variables()), draw(_variables())
        if left != right:
            constraints.add(SubtypeConstraint(left, right))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        ctor = draw(st.sampled_from([AddConstraint, SubConstraint]))
        constraints.add(ctor(draw(_variables()), draw(_variables()), draw(_variables())))
    return ConstraintTable.from_constraints(constraints)


@st.composite
def _parts(draw):
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        table = draw(_tables())
        if draw(st.booleans()):
            renames = {"f": draw(st.sampled_from(["g$f_3", "f", "a"]))}
            if draw(st.booleans()):
                renames["τ0"] = draw(st.sampled_from(["τ0$12", "τ0$9"]))
            parts.append((table, renames))
        else:
            parts.append(table)
    return parts


@settings(max_examples=200, deadline=None)
@given(_parts())
def test_merged_encoding_matches_reference_on_random_parts(parts):
    _assert_same_encoding(parts)


def test_a_single_table_is_adopted_as_is():
    table = ConstraintTable.from_constraints(
        ConstraintSet({SubtypeConstraint(DerivedTypeVariable("b", (LOAD,)), DerivedTypeVariable("a"))})
    )
    encoding = SccEncoding([table], LATTICE)
    assert encoding.names is table.names
    assert encoding.subtype is table.subtype
    _assert_same_encoding([table])


# ---------------------------------------------------------------------------
# No variable objects per site
# ---------------------------------------------------------------------------


class _CountingWeakref:
    """Stands in for the ``weakref`` module inside ``repro.core.variables``:
    every variable the intern table misses on registers one ``KeyedRef``."""

    def __init__(self):
        self.created = []

    def KeyedRef(self, obj, callback, key):  # noqa: N802 - the module's spelling
        self.created.append(key)
        return weakref.KeyedRef(obj, callback, key)


def test_cold_generation_builds_only_formal_variables(monkeypatch):
    program = _program(20161117, GenProfile.stress)
    counting = _CountingWeakref()
    before = len(variables_module._INTERNED)
    monkeypatch.setattr(variables_module, "weakref", counting)
    inputs = generate_program_constraints(program)
    monkeypatch.undo()
    formals = {
        (dtv.base, dtv.labels)
        for proc in inputs.values()
        for dtv in proc.formal_ins + proc.formal_outs
    }
    assert formals and set(counting.created) <= formals
    assert len(variables_module._INTERNED) - before <= len(formals)
