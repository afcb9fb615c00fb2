"""Unit and property tests for field labels and variance (Table 1, Definition 3.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CONTRAVARIANT,
    COVARIANT,
    FieldLabel,
    InLabel,
    LoadLabel,
    OutLabel,
    StoreLabel,
    Variance,
    field,
    in_label,
    out_label,
    parse_label,
    parse_label_word,
    path_variance,
)


def test_variance_of_each_label():
    assert InLabel("stack0").variance is CONTRAVARIANT
    assert OutLabel("eax").variance is COVARIANT
    assert LoadLabel().variance is COVARIANT
    assert StoreLabel().variance is CONTRAVARIANT
    assert FieldLabel(32, 4).variance is COVARIANT


def test_variance_is_a_sign_monoid():
    assert COVARIANT * COVARIANT is COVARIANT
    assert CONTRAVARIANT * CONTRAVARIANT is COVARIANT
    assert COVARIANT * CONTRAVARIANT is CONTRAVARIANT
    assert CONTRAVARIANT * COVARIANT is CONTRAVARIANT


def test_variance_flip():
    assert COVARIANT.flip() is CONTRAVARIANT
    assert CONTRAVARIANT.flip() is COVARIANT


def test_path_variance_empty_word_is_covariant():
    assert path_variance([]) is COVARIANT


def test_path_variance_examples_from_figure2():
    # in_stack0.load.sigma32@4 is contravariant (one contravariant letter).
    word = (in_label("stack0"), LoadLabel(), field(32, 4))
    assert path_variance(word) is CONTRAVARIANT
    # out_eax is covariant.
    assert path_variance((out_label("eax"),)) is COVARIANT
    # store.store is covariant (two flips).
    assert path_variance((StoreLabel(), StoreLabel())) is COVARIANT


def test_label_string_forms():
    assert str(LoadLabel()) == "load"
    assert str(StoreLabel()) == "store"
    assert str(InLabel("stack4")) == "in_stack4"
    assert str(OutLabel("eax")) == "out_eax"
    assert str(FieldLabel(32, 8)) == "sigma32@8"


def test_parse_label_roundtrip_fixed():
    for label in (LoadLabel(), StoreLabel(), InLabel("stack0"), OutLabel("eax"), FieldLabel(8, 12)):
        assert parse_label(str(label)) == label


def test_parse_label_word():
    word = parse_label_word("load.sigma32@4")
    assert word == (LoadLabel(), FieldLabel(32, 4))
    assert parse_label_word("") == ()


def test_parse_label_rejects_garbage():
    with pytest.raises(ValueError):
        parse_label("not_a_label!")


def test_in_label_from_int():
    assert in_label(4) == InLabel("stack4")
    assert in_label("ecx") == InLabel("ecx")


@given(st.lists(st.sampled_from([LoadLabel(), StoreLabel(), InLabel("stack0"), OutLabel("eax"), FieldLabel(32, 0)]), max_size=8))
def test_path_variance_is_product_of_letter_variances(labels):
    expected = COVARIANT
    for label in labels:
        expected = expected * label.variance
    assert path_variance(labels) is expected


@given(
    st.lists(st.sampled_from([LoadLabel(), StoreLabel(), FieldLabel(32, 0)]), max_size=5),
    st.lists(st.sampled_from([LoadLabel(), StoreLabel(), FieldLabel(32, 4)]), max_size=5),
)
def test_path_variance_is_a_monoid_homomorphism(left, right):
    assert path_variance(left + right) is path_variance(left) * path_variance(right)


@given(st.sampled_from(["load", "store", "in_stack0", "in_ecx", "out_eax", "sigma32@4", "sigma8@0"]))
def test_parse_str_roundtrip(text):
    assert str(parse_label(text)) == text


def test_labels_are_hashable_and_orderable():
    labels = {LoadLabel(), StoreLabel(), FieldLabel(32, 0), FieldLabel(32, 4)}
    assert len(labels) == 4
    assert sorted([FieldLabel(32, 4), FieldLabel(32, 0)]) == [FieldLabel(32, 0), FieldLabel(32, 4)]


@given(st.sampled_from(["load", "store", "in_stack0", "in_ecx", "out_eax", "sigma32@4", "sigma8@-4"]))
def test_interned_labels_equal_fresh_ones(text):
    """parse_label is cached: repeated parses share one instance, which must
    compare and hash exactly like a freshly constructed label."""
    interned = parse_label(text)
    assert parse_label(text) is interned
    fresh = {
        "load": LoadLabel(),
        "store": StoreLabel(),
        "in_stack0": InLabel("stack0"),
        "in_ecx": InLabel("ecx"),
        "out_eax": OutLabel("eax"),
        "sigma32@4": FieldLabel(32, 4),
        "sigma8@-4": FieldLabel(8, -4),
    }[text]
    assert interned == fresh and hash(interned) == hash(fresh)
    assert {fresh: 1}[interned] == 1


def test_load_and_store_hash_apart():
    """Field-less labels would all hash as ``hash(())``; ``.load`` and
    ``.store`` share dicts in every capability map, so they must not collide."""
    assert hash(LoadLabel()) != hash(StoreLabel())
    assert hash(LoadLabel()) == hash(parse_label("load"))
    assert hash(StoreLabel()) == hash(parse_label("store"))
    assert len({LoadLabel(), StoreLabel(), LoadLabel()}) == 2
