"""Tests for derived type variables and constraint sets (Definitions 3.1, 3.3)."""

import copy
import gc
import operator
import pickle
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    AddConstraint,
    ConstraintSet,
    DerivedTypeVariable,
    LoadLabel,
    StoreLabel,
    SubtypeConstraint,
    field,
    fresh_var,
    in_label,
    out_label,
    parse_constraint,
    parse_constraints,
    parse_dtv,
)
from repro.core.labels import FieldLabel
from repro.core.variables import _INTERNED, _forget


def test_dtv_construction_and_str():
    dtv = DerivedTypeVariable("F", (in_label("stack0"), LoadLabel(), field(32, 4)))
    assert str(dtv) == "F.in_stack0.load.sigma32@4"
    assert dtv.base == "F"
    assert dtv.depth == 3
    assert dtv.last_label == field(32, 4)


def test_dtv_prefix_chain():
    dtv = parse_dtv("F.load.sigma32@0")
    prefixes = list(dtv.prefixes())
    assert [str(p) for p in prefixes] == ["F", "F.load"]
    assert dtv.prefix == parse_dtv("F.load")
    assert parse_dtv("F").prefix is None


def test_dtv_with_label_and_base():
    dtv = parse_dtv("x")
    extended = dtv.with_label(LoadLabel()).with_label(field(32, 8))
    assert str(extended) == "x.load.sigma32@8"
    assert str(extended.with_base("y")) == "y.load.sigma32@8"
    assert extended.base_var == parse_dtv("x")


def test_parse_dtv_roundtrip():
    for text in ("x", "F.in_stack0", "p.load.sigma32@4", "f.out_eax", "q.store.sigma8@0"):
        assert str(parse_dtv(text)) == text


def test_fresh_vars_are_distinct():
    assert fresh_var() != fresh_var()


def test_parse_constraint_forms():
    c = parse_constraint("a.load <= b")
    assert c == SubtypeConstraint(parse_dtv("a.load"), parse_dtv("b"))
    # Unicode forms used in the paper are accepted too.
    assert parse_constraint("a ⊑ b") == parse_constraint("a <= b")
    assert parse_constraint("a <: b") == parse_constraint("a <= b")
    with pytest.raises(ValueError):
        parse_constraint("a b")


def test_constraint_set_behaves_like_a_set():
    cs = parse_constraints(["a <= b", "b <= c", "a <= b"])
    assert len(cs) == 2
    assert parse_constraint("a <= b") in cs
    assert parse_constraint("c <= a") not in cs
    texts = {str(c) for c in cs}
    assert texts == {"a <= b", "b <= c"}


def test_constraint_set_derived_type_variables_include_prefixes():
    cs = parse_constraints(["x.load.sigma32@4 <= y"])
    dtvs = {str(d) for d in cs.derived_type_variables()}
    assert dtvs == {"x", "x.load", "x.load.sigma32@4", "y"}
    assert cs.base_variables() == {"x", "y"}


def test_constraint_set_union_and_update():
    a = parse_constraints(["a <= b"])
    b = parse_constraints(["b <= c"])
    union = a.union(b)
    assert len(union) == 2
    a.update(b)
    assert a == union


def test_substitution_renames_bases_only():
    cs = parse_constraints(["f.in_stack0 <= t", "t.load <= f.out_eax"])
    renamed = cs.substitute({"f": "f$1", "t": "t$1"})
    texts = {str(c) for c in renamed}
    assert texts == {"f$1.in_stack0 <= t$1", "t$1.load <= f$1.out_eax"}


def test_additive_constraints_tracked_separately():
    cs = ConstraintSet()
    cs.add(AddConstraint(parse_dtv("a"), parse_dtv("b"), parse_dtv("c")))
    assert len(cs) == 0
    assert len(cs.additive) == 1
    dtvs = {str(d) for d in cs.derived_type_variables()}
    assert dtvs == {"a", "b", "c"}


def test_constraints_mentioning():
    cs = parse_constraints(["a <= b", "b.load <= c"])
    assert len(cs.constraints_mentioning("b")) == 2
    assert len(cs.constraints_mentioning("c")) == 1
    assert cs.constraints_mentioning("zzz") == []


_base_names = st.sampled_from(["a", "b", "c", "f", "g"])
_labels = st.lists(
    st.sampled_from([LoadLabel(), StoreLabel(), FieldLabel(32, 0), FieldLabel(32, 4), in_label("stack0")]),
    max_size=4,
)


@given(_base_names, _labels)
def test_dtv_str_parse_roundtrip_property(base, labels):
    dtv = DerivedTypeVariable(base, tuple(labels))
    assert parse_dtv(str(dtv)) == dtv


@given(_base_names, _labels, _base_names, _labels)
def test_constraint_str_parse_roundtrip_property(base_l, labels_l, base_r, labels_r):
    constraint = SubtypeConstraint(
        DerivedTypeVariable(base_l, tuple(labels_l)),
        DerivedTypeVariable(base_r, tuple(labels_r)),
    )
    assert parse_constraint(str(constraint)) == constraint


@given(st.lists(st.tuples(_base_names, _base_names), max_size=10))
def test_constraint_set_idempotent_union(pairs):
    cs = ConstraintSet()
    for left, right in pairs:
        cs.add_subtype(parse_dtv(left), parse_dtv(right))
    assert cs.union(cs) == cs
    assert len(cs) <= len(pairs)


# -- parse/str round trip over the full label grammar ---------------------------------
#
# The narrow-pool property above never exercised unusual locations; widening it
# falsified three label words the grammar could construct but not re-parse:
# empty locations (``in_``), locations containing ``.`` (str() emits a word
# that parse_dtv splits into bogus extra labels) and negative field sizes
# (``sigma-8@0``).  Construction now rejects all three, so every constructible
# label word round-trips.

_locations = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@$#-",
    min_size=1,
    max_size=8,
)
_any_label = st.one_of(
    st.just(LoadLabel()),
    st.just(StoreLabel()),
    st.builds(in_label, _locations),
    st.builds(out_label, _locations),
    st.builds(
        FieldLabel,
        st.integers(min_value=0, max_value=512),
        st.integers(min_value=-1024, max_value=1024),
    ),
)


@given(_base_names, st.lists(_any_label, max_size=5))
def test_dtv_roundtrip_over_arbitrary_constructible_labels(base, labels):
    dtv = DerivedTypeVariable(base, tuple(labels))
    assert parse_dtv(str(dtv)) == dtv


def test_unroundtrippable_label_words_rejected_at_construction():
    from repro.core.labels import InLabel, OutLabel

    for bad_location in ("", "stack0.load", "a.b", "a b", "x\ty", " "):
        with pytest.raises(ValueError):
            InLabel(bad_location)
        with pytest.raises(ValueError):
            OutLabel(bad_location)
    with pytest.raises(ValueError):
        FieldLabel(-8, 0)


def test_unparseable_label_text_still_rejected():
    from repro.core import parse_label

    for bad_text in ("in_", "out_", "sigma-8@0", "sigma32@", "bogus"):
        with pytest.raises(ValueError):
            parse_label(bad_text)


# -- interning contract -----------------------------------------------------------------
#
# Construction returns the canonical live instance for a (base, labels) key, the
# table holds instances weakly, and the frozen-dataclass contract (hash, value
# equality, tuple ordering, immutability) still holds.


def test_intern_hit_returns_same_object_without_growing_table():
    first = DerivedTypeVariable("intern_hit", (LoadLabel(), FieldLabel(32, 4)))
    size = len(_INTERNED)
    again = DerivedTypeVariable("intern_hit", (LoadLabel(), FieldLabel(32, 4)))
    assert again is first
    assert parse_dtv("intern_hit.load.sigma32@4") is first
    assert len(_INTERNED) == size


def test_list_labels_are_coerced_to_the_same_instance():
    from_tuple = DerivedTypeVariable("x", (LoadLabel(),))
    from_list = DerivedTypeVariable("x", [LoadLabel()])
    assert from_list == from_tuple
    assert from_list is from_tuple
    assert type(from_list.labels) is tuple


def test_dead_variables_leave_the_intern_table():
    key = ("intern_gc_probe", (StoreLabel(),))
    dtv = DerivedTypeVariable(*key)
    assert key in _INTERNED
    del dtv
    gc.collect()
    assert key not in _INTERNED


def test_stale_forget_callback_does_not_evict_replacement():
    key = ("intern_stale", (LoadLabel(),))
    old = DerivedTypeVariable(*key)
    # A miss that raced the old instance's death stores a new entry under the
    # same key while the old instance (and its pending callback) still exists.
    del _INTERNED[key]
    replacement = DerivedTypeVariable(*key)
    assert replacement is not old and replacement == old
    del old
    gc.collect()  # runs the old instance's _forget callback
    assert _INTERNED[key]() is replacement
    assert DerivedTypeVariable(*key) is replacement
    stale = weakref.KeyedRef(replacement, _forget, key)
    _forget(stale)  # a callback for a ref that is not the entry is a no-op
    assert _INTERNED[key]() is replacement


def test_pickle_and_copy_return_the_canonical_instance():
    empty = DerivedTypeVariable("")
    dtv = DerivedTypeVariable("x", (LoadLabel(),))
    clones = [pickle.loads(pickle.dumps(dtv, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(dtv), copy.deepcopy(dtv), copy.deepcopy([dtv, dtv])[0]]
    for clone in clones:
        assert clone is dtv
    # Reconstruction must never write state into the live empty variable.
    assert DerivedTypeVariable("") is empty
    assert str(empty) == "" and empty.base == "" and empty.labels == ()
    assert hash(empty) == hash(("", ()))


def test_assigning_or_deleting_a_field_raises_frozen_instance_error():
    dtv = DerivedTypeVariable("frozen", (LoadLabel(),))
    for name in ("base", "labels", "_hash", "_str", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(dtv, name, "y")
        with pytest.raises(FrozenInstanceError):
            delattr(dtv, name)
    assert str(dtv) == "frozen.load"
    assert not hasattr(dtv, "__dict__")


def _compare(op, left, right):
    try:
        return op(left, right)
    except TypeError:
        return TypeError


@given(_base_names, st.lists(_any_label, max_size=4), _base_names, st.lists(_any_label, max_size=4))
def test_dtv_hash_order_and_parse_agree_with_the_value_tuple(base_a, labels_a, base_b, labels_b):
    a = DerivedTypeVariable(base_a, tuple(labels_a))
    b = DerivedTypeVariable(base_b, tuple(labels_b))
    for dtv in (a, b):
        assert hash(dtv) == hash((dtv.base, dtv.labels))
        assert parse_dtv(str(dtv)) is dtv
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
        assert _compare(op, a, b) == _compare(op, (a.base, a.labels), (b.base, b.labels))
    assert a.__lt__((a.base, a.labels)) is NotImplemented
    assert a != (a.base, a.labels)


def test_threads_constructing_the_same_variables_get_equal_results():
    words = [(f"t{i % 97}", (FieldLabel(32, 4 * (i % 11)), LoadLabel())[: i % 3]) for i in range(1000)]
    results = [None] * 8
    start = threading.Barrier(len(results))

    def build(slot):
        start.wait(timeout=10)
        results[slot] = [DerivedTypeVariable(base, labels) for base, labels in words]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    for built in results:
        assert built is not None and len(built) == len(words)
        for dtv, (base, labels) in zip(built, words):
            assert dtv.base == base and dtv.labels == labels
            assert hash(dtv) == hash((base, labels))
        assert built == results[0]
