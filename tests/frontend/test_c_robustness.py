"""Mutated mini-C compiles or raises a typed frontend error, and nothing else.

Property test over damaged input, after ``tests/ir/test_asm_robustness.py``:
starting from generated ``repro.gen`` sources, hypothesis deletes,
duplicates and swaps lines, inserts junk ones, drops characters and renames
a ``->``/``.`` field access to a field its struct does not have.
:func:`~repro.frontend.compile_c` must either succeed or raise one of the
frontend's typed errors (``LexError``, ``ParseError``, ``TypeCheckError``,
``CodegenError``); any other exception is a bug in a stage that trusted its
input.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import CodegenError, LexError, ParseError, TypeCheckError, compile_c
from repro.gen import GenProfile, generate_program

FRONTEND_ERRORS = (LexError, ParseError, TypeCheckError, CodegenError)

BASES = [
    generate_program(seed, GenProfile.smoke(), name=f"fuzz{seed}").source
    for seed in (3, 11)
]

#: every ``->field`` / ``.field`` access in a source, as (start, end) of the name.
FIELD_ACCESS = re.compile(r"(?:->|\.)\s*([A-Za-z_]\w*)")

JUNK_LINES = [
    "}",
    "{",
    ";",
    "int",
    "struct",
    "struct nowhere * p;",
    "return;",
    "x = ;",
    "if (",
    "else",
    "while (1)",
    "int f(int x) { return y; }",
    "p->missing = 1;",
    "(int *) 0;",
    "a[ ] = 2;",
    "'",
    '"unterminated',
    "0x",
    "@",
]
JUNK = st.one_of(
    st.sampled_from(JUNK_LINES),
    st.text(alphabet="abxyz_(){}[];,*&->.=+!<0123456789 \t'\"", max_size=24),
)


def compiles_or_raises_a_frontend_error(source: str) -> None:
    try:
        unit = compile_c(source)
    except FRONTEND_ERRORS:
        return
    assert unit.program is not None


@st.composite
def mutants(draw):
    source = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(
            st.sampled_from(["delete", "duplicate", "swap", "junk", "char", "field"])
        )
        lines = source.splitlines()
        index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if kind == "delete" and len(lines) > 1:
            del lines[index]
        elif kind == "duplicate":
            lines.insert(index, lines[index])
        elif kind == "swap":
            other = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[index], lines[other] = lines[other], lines[index]
        elif kind == "junk":
            lines.insert(index, draw(JUNK))
        elif kind == "char":
            position = draw(st.integers(min_value=0, max_value=max(0, len(source) - 1)))
            source = source[:position] + source[position + 1:]
            continue
        elif kind == "field":
            accesses = list(FIELD_ACCESS.finditer(source))
            if accesses:
                match = draw(st.sampled_from(accesses))
                source = source[: match.start(1)] + "zz_unknown" + source[match.end(1):]
            continue
        source = "\n".join(lines) + "\n"
    return source


@pytest.mark.parametrize("base", range(len(BASES)))
def test_base_sources_compile(base):
    assert compile_c(BASES[base]).program.procedures


def test_unknown_field_raises_type_check_error_naming_struct_and_field():
    with pytest.raises(TypeCheckError, match=r"struct s has no field 'b'"):
        compile_c("struct s { int a; }; int f(struct s *p) { return p->b; }")
    with pytest.raises(TypeCheckError, match=r"struct s has no field 'b'"):
        compile_c("struct s { int a; }; int f(struct s *p) { return (*p).b; }")


def test_leading_zero_literal_raises_lex_error():
    # Python's int(..., 0) rejects "01"; the lexer must reject it first.
    with pytest.raises(LexError, match="'01'"):
        compile_c("int f(int x) { return 01; }")
    assert compile_c("int f(int x) { return 0 + 0x1f; }").program.procedures


@pytest.mark.parametrize("base", range(len(BASES)))
def test_every_renamed_field_access_raises_type_check_error(base):
    source = BASES[base]
    accesses = list(FIELD_ACCESS.finditer(source))
    assert accesses
    for match in accesses:
        mutant = source[: match.start(1)] + "zz_unknown" + source[match.end(1):]
        with pytest.raises(TypeCheckError, match="has no field 'zz_unknown'"):
            compile_c(mutant)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutants())
def test_mutated_source_compiles_or_raises_a_frontend_error(source):
    compiles_or_raises_a_frontend_error(source)
