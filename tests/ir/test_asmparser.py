"""Tests for the assembly parser and the basic IR data structures."""

import pytest

from repro.ir import (
    AsmSyntaxError,
    BinaryOp,
    Call,
    Compare,
    Imm,
    Jcc,
    Jmp,
    Mem,
    Mov,
    Push,
    Reg,
    Ret,
    parse_instruction,
    parse_operand,
    parse_program,
)


def test_parse_registers_and_immediates():
    assert parse_operand("eax") == Reg("eax")
    assert parse_operand("42") == Imm(42)
    assert parse_operand("-8") == Imm(-8)
    assert parse_operand("0x10") == Imm(16)


def test_parse_memory_operands():
    assert parse_operand("[esp+4]") == Mem("esp", 4, 4)
    assert parse_operand("[ebp-8]") == Mem("ebp", -8, 4)
    assert parse_operand("[edx]") == Mem("edx", 0, 4)
    assert parse_operand("byte [eax+3]") == Mem("eax", 3, 1)
    assert parse_operand("[counter]") == Mem("counter", 0, 4)
    assert parse_operand("[eax+ebx]") == Mem("eax", 0, 4, index="ebx")


def test_parse_instructions():
    assert parse_instruction("mov eax, [esp+4]") == Mov(Reg("eax"), Mem("esp", 4, 4))
    assert parse_instruction("add esp, 8") == BinaryOp("add", Reg("esp"), Imm(8))
    assert parse_instruction("push eax") == Push(Reg("eax"))
    assert parse_instruction("call close") == Call("close")
    assert parse_instruction("jnz .loop") == Jcc("nz", ".loop")
    assert parse_instruction("jmp .exit") == Jmp(".exit")
    assert parse_instruction("ret") == Ret()
    assert parse_instruction("test eax, eax") == Compare("test", Reg("eax"), Reg("eax"))


def test_parse_program_structure():
    program = parse_program(
        """
        .extern malloc
        .global_var counter 4

        main:
            push 16
            call malloc
            add esp, 4
            mov [counter], eax
            ret

        helper:
            mov eax, [counter]
            ret
        """
    )
    assert set(program.procedures) == {"main", "helper"}
    assert program.externs == {"malloc"}
    assert program.globals == {"counter": 4}
    assert program.procedure("main").direct_callees() == ["malloc"]
    assert program.instruction_count == 7


def test_local_labels_resolve():
    program = parse_program(
        """
        f:
            jmp .end
        .end:
            ret
        """
    )
    proc = program.procedure("f")
    assert proc.label_target(".end") == 1


def test_parse_error_reports_line():
    with pytest.raises(AsmSyntaxError):
        parse_program("f:\n    bogus eax, ebx\n")


def test_bad_global_size_is_a_syntax_error():
    # Every malformed line is an AsmSyntaxError, which the server maps to a
    # typed parse_error; a bare ValueError would read as an analysis failure.
    with pytest.raises(AsmSyntaxError) as info:
        parse_program("    .global_var g big\nf:\n    ret\n")
    assert info.value.line_number == 1


def test_instruction_outside_procedure_rejected():
    with pytest.raises(AsmSyntaxError):
        parse_program("    mov eax, ebx\n")


def test_comments_and_blank_lines_ignored():
    program = parse_program(
        """
        ; a comment
        f:
            mov eax, 1   ; inline comment
            # another comment style
            ret
        """
    )
    assert program.procedure("f").size == 2


def test_roundtrip_str_reparses():
    text = """
    f:
        push ebp
        mov ebp, esp
        mov eax, [ebp+8]
        leave
        ret
    """
    program = parse_program(text)
    reparsed = parse_program(str(program))
    assert reparsed.procedure("f").size == program.procedure("f").size


REPEATED = """
f:
    push ebp
    mov ebp, esp
    mov eax, [ebp+8]   ; repeated verbatim below
.again:
    mov eax, [ebp+8]   ; repeated verbatim below
    add eax, 1
    jnz .again
    leave
    ret
g:
    push ebp
    mov ebp, esp
    mov eax, [ebp+8]   ; repeated verbatim below
    add eax, 1
    leave
    ret
"""


def test_repeated_lines_parse_like_line_by_line():
    program = parse_program(REPEATED)
    expected = {
        "f": ["push ebp", "mov ebp, esp", "mov eax, [ebp+8]", None, "mov eax, [ebp+8]",
              "add eax, 1", "jnz .again", "leave", "ret"],
        "g": ["push ebp", "mov ebp, esp", "mov eax, [ebp+8]", "add eax, 1", "leave", "ret"],
    }
    for name, lines in expected.items():
        instructions = program.procedure(name).instructions
        assert len(instructions) == len(lines)
        for instruction, line in zip(instructions, lines):
            if line is not None:
                assert instruction == parse_instruction(line)
    assert str(parse_program(str(program))) == str(program)


def test_repeated_bad_line_reports_its_first_occurrence():
    text = "f:\n    mov eax, 1\n    bogus eax\n    ret\ng:\n    bogus eax\n"
    with pytest.raises(AsmSyntaxError) as info:
        parse_program(text)
    assert info.value.line_number == 3
    assert info.value.line == "    bogus eax"



# -- chunked parsing with a previous table ----------------------------------------------
#
# ``parse_program(text, previous=table)`` reuses the chunks and instruction
# lines an earlier parse left in ``table``; it must give exactly what a
# whole-text parse gives, errors included.


def _outcome(text, previous=None):
    try:
        program = parse_program(text, previous=previous)
    except AsmSyntaxError as error:
        return ("error", error.line_number, str(error))
    return (
        "ok",
        str(program),
        sorted(program.externs),
        list(program.globals.items()),
        list(program.procedures),
    )


def _assert_table_parse_matches(text, *earlier):
    """``text`` parses the same with the table of each earlier text that
    parses (its own included)."""
    expected = _outcome(text)
    for source in (text,) + earlier:
        if _outcome(source)[0] == "ok":
            table = parse_program(source).parse_table
            assert _outcome(text, table) == expected
    return expected


TRICKY = [
    # instructions before the first label
    "    mov eax, 1\nf:\n    ret\n",
    # a local label before the first label
    ".top:\nf:\n    ret\n",
    # duplicate procedure names: the last definition wins, the first position stays
    "f:\n    ret\ng:\n    nop\n    ret\nf:\n    nop\n    nop\n    ret\n",
    # .extern/.global_var lines between (and inside) procedures
    ".extern a\nf:\n    ret\n.global_var g 2\n.extern b, c\ng:\n    call a\n.global_var g 8\n    ret\n",
    # indented labels and labels followed by a comment
    "  f:   ; entry\n    jmp .x\n  .x: # local\n    ret\n\tg: ; second\n    ret\n",
    # bad directives and a bad instruction, first error wins
    ".extern\nf:\n    ret\n",
    "f:\n    ret\n.global_var\n",
    "f:\n    bogus eax\n.extern\n",
    "f:\n    ret\n.global_var g x\n",
    # empty text, a lone label, comments only
    "",
    "f:",
    "; nothing\n# here\n",
]


@pytest.mark.parametrize("text", TRICKY)
def test_table_parse_matches_whole_text_parse_on_tricky_inputs(text):
    # The last table holds "    mov eax, 1" as a parsed instruction line: it
    # must not let that line pass before the first label.
    _assert_table_parse_matches(
        text, REPEATED, TRICKY[2], TRICKY[3], TRICKY[4], "f:\n    mov eax, 1\n    ret\n"
    )


def test_chunked_parse_keeps_line_semantics():
    assert _outcome(TRICKY[0])[:2] == ("error", 1)
    assert _outcome(TRICKY[1])[:2] == ("error", 1)
    program = parse_program(TRICKY[2])
    assert list(program.procedures) == ["f", "g"]
    assert program.procedure("f").size == 3
    program = parse_program(TRICKY[3])
    assert program.externs == {"a", "b", "c"}
    assert program.globals == {"g": 8}
    program = parse_program(TRICKY[4])
    assert list(program.procedures) == ["f", "g"]
    assert program.procedure("f").label_target(".x") == 1
    assert _outcome(TRICKY[7])[:2] == ("error", 2)


def _mutants(text, count, seed):
    """Line-level mutations of ``text``: deletions, duplications, junk lines,
    re-indentation and label/directive insertions anywhere."""
    import random

    junk = [
        "    bogus eax", "x1:", "  y2:  ; c", ".extern", ".global_var", ".global_var v w",
        ".extern p, q", ".l9:", "; a: comment", "    mov eax, 1 ; a: b", "\tz3: # x",
        "", "   ", ".global_var q 8", "a:b:", "    jmp .l9", "    mov eax, 1",
    ]
    rng = random.Random(seed)
    lines = text.splitlines()
    for _ in range(count):
        mutant = list(lines)
        for _ in range(rng.randint(1, 4)):
            index = rng.randrange(len(mutant) + 1)
            kind = rng.randrange(4)
            if kind == 0 and mutant:
                del mutant[min(index, len(mutant) - 1)]
            elif kind == 1:
                mutant.insert(index, rng.choice(junk))
            elif kind == 2 and mutant:
                mutant.insert(index, mutant[rng.randrange(len(mutant))])
            elif mutant:
                position = min(index, len(mutant) - 1)
                mutant[position] = "  " + mutant[position].strip()
        yield "\n".join(mutant)


def test_table_parse_matches_whole_text_parse_on_mutated_asm():
    from repro.gen import GenProfile, generate_program

    base = str(generate_program(3, GenProfile.smoke()).compile().program)
    other = str(generate_program(4, GenProfile.smoke()).compile().program)
    mutants = list(_mutants(base, 150, seed=11))
    errors = 0
    for index, mutant in enumerate(mutants):
        neighbour = mutants[index - 1]
        errors += _assert_table_parse_matches(mutant, base, other, neighbour)[0] != "ok"
    # The corpus exercises both outcomes.
    assert 0 < errors < len(mutants)


def test_table_reuses_unchanged_chunks_and_instructions():
    first = parse_program(REPEATED)
    edited = REPEATED.replace("    add eax, 1\n    leave", "    add eax, 2\n    leave")
    second = parse_program(edited, previous=first.parse_table)
    # f is unchanged and reused as is; g was re-parsed, sharing its lines.
    assert second.procedure("f") is first.procedure("f")
    assert second.procedure("g") is not first.procedure("g")
    assert second.procedure("g").instructions[0] is first.procedure("g").instructions[0]
    assert str(second) == str(parse_program(edited))
