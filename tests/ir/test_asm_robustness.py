"""A mutated asm program analyzes or raises ``AsmSyntaxError``, and nothing else.

Property test over damaged input: starting from a generated smoke program,
hypothesis deletes, duplicates, re-indents lines and inserts junk ones
(each known junk line is also tried at three fixed positions).  The
analysis must either succeed or reject the text with the typed
:class:`~repro.ir.AsmSyntaxError`; any other exception is a bug in the
parser or in a later stage that trusted it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import analyze_program
from repro.frontend import compile_c
from repro.gen import GenProfile, generate_program
from repro.ir import AsmSyntaxError

BASE = str(compile_c(generate_program(3, GenProfile.smoke(), name="fuzz").source).program)
LINES = BASE.splitlines()

JUNK_LINES = [
    "mov eax,",
    "mov [ebp-4",
    "call",
    "jmp .Lnowhere",
    "jne",
    "push 12abc",
    "add eax, [ebx+ecx*3]",
    ".extern",
    ".global_var",
    ".global_var g x",
    "main:",
    ".L0:",
    ":",
    "ret 4",
    "pop",
    "lea eax, 5",
    "mov eax, [[ebx]]",
]
JUNK = st.one_of(
    st.sampled_from(JUNK_LINES),
    st.text(alphabet="abcdexyz_.:;#[]+-*,0123456789 \t", max_size=24),
)


@st.composite
def mutants(draw):
    lines = list(LINES)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "junk", "indent"]))
        if kind == "delete" and len(lines) > 1:
            del lines[index]
        elif kind == "duplicate":
            lines.insert(index, lines[index])
        elif kind == "junk":
            lines.insert(index, draw(JUNK))
        else:
            # Flush left, or indented: moves lines across the top-label rule.
            stripped = lines[index].strip()
            lines[index] = draw(st.sampled_from(["", "    ", "\t"])) + stripped
    return "\n".join(lines) + "\n"


def analyzes_or_raises_asm_syntax_error(text: str) -> None:
    try:
        types = analyze_program(text)
    except AsmSyntaxError:
        return
    assert types.program is not None


def test_base_program_analyzes():
    assert analyze_program(BASE).functions


@pytest.mark.parametrize("junk", JUNK_LINES)
def test_each_junk_line_analyzes_or_raises_asm_syntax_error(junk):
    # Before the first label, inside a procedure, and at the end.
    for index in (0, len(LINES) // 2, len(LINES)):
        analyzes_or_raises_asm_syntax_error("\n".join(LINES[:index] + [junk] + LINES[index:]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_program_analyzes_or_raises_asm_syntax_error(text):
    analyzes_or_raises_asm_syntax_error(text)
