"""A parser for the textual assembly syntax of the IR.

Syntax overview::

    .extern malloc              ; declare an external function
    .global_var counter 4       ; declare a global variable (name, size in bytes)

    close_last:                 ; a top-level label starts a new procedure
        mov edx, [esp+4]
    .loop:                      ; labels starting with '.' are procedure-local
        mov eax, [edx]
        test eax, eax
        jnz .loop_body
        mov eax, [edx+4]
        mov [esp+4], eax
        call close
        ret
    .loop_body:
        mov edx, eax
        jmp .loop

Memory operands accept ``[reg]``, ``[reg+imm]``, ``[reg-imm]``, ``[reg+reg2]``,
``[global]`` and ``[global+imm]``; a ``byte``/``word``/``qword`` prefix selects
the access size (default 4 bytes).  Comments start with ``;`` or ``#``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from hashlib import blake2b
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.trace import checkpoint
from .instructions import (
    REGISTERS,
    BinaryOp,
    Call,
    Compare,
    Imm,
    Instruction,
    Jcc,
    Jmp,
    LabelPseudo,
    Lea,
    Leave,
    Mem,
    Mov,
    Nop,
    Operand,
    Pop,
    Push,
    Reg,
    Ret,
)
from .program import Procedure, Program


class AsmSyntaxError(ValueError):
    """Raised when the assembly text cannot be parsed."""

    def __init__(self, message: str, line_number: int, line: str) -> None:
        super().__init__(f"line {line_number}: {message}: {line!r}")
        self.line_number = line_number
        self.line = line


_SIZE_PREFIXES = {"byte": 1, "word": 2, "dword": 4, "qword": 8}
_BINARY_OPS = {"add", "sub", "and", "or", "xor", "imul", "shl", "shr", "sar"}
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$@]*):$")
#: a raw line that :data:`_LABEL_RE` reads as a top-level label once its
#: comment and surrounding whitespace are stripped (names not starting '.').
_TOP_LABEL_RE = re.compile(r"\s*([A-Za-z_$][\w.$@]*):\s*(?:[;#].*)?")


@dataclass(frozen=True)
class ParsedChunk:
    """One chunk of assembly text, parsed.

    A chunk is a top-level label line plus every line up to the next one, or
    the lines before the first label (``procedure`` is None).  The
    directives it holds are kept so that a reused chunk declares them again.
    """

    procedure: Optional[Procedure]
    externs: Tuple[str, ...]
    globals: Tuple[Tuple[str, int], ...]


@dataclass
class ParseTable:
    """What one :func:`parse_program` call leaves for the next."""

    #: digest of every chunk's text -> its parse, in source order (a digest,
    #: not the text: a session keeps the table as long as the program).
    chunks: Dict[bytes, ParsedChunk] = dc_field(default_factory=dict)
    #: distinct raw instruction or local-label line -> its (immutable,
    #: shared) instruction.
    lines: Dict[str, Instruction] = dc_field(default_factory=dict)


def parse_program(text: str, previous: Optional[ParseTable] = None) -> Program:
    """Parse a whole assembly module into a :class:`Program`.

    The text is split at its top-level labels and parsed chunk by chunk;
    ``Program.parse_table`` records the result.  Given the table of an
    earlier call as ``previous``, a chunk whose text it holds is reused as
    is and a line it holds is not parsed again, so re-parsing an edited text
    costs only its changed chunks.  A chunk parses the same wherever it
    appears, so reuse never changes the result.
    """
    lines = text.splitlines()
    starts = [
        (index, match.group(1))
        for index, raw_line in enumerate(lines)
        if ":" in raw_line and (match := _TOP_LABEL_RE.fullmatch(raw_line))
    ]
    spans = []
    if not starts or starts[0][0] > 0:
        spans.append((0, starts[0][0] if starts else len(lines), None))
    for (start, name), (end, _) in zip(starts, starts[1:] + [(len(lines), None)]):
        spans.append((start, end, name))

    # Generated and compiled code repeats a few hundred distinct instruction
    # and local-label lines thousands of times; instructions are immutable,
    # so each distinct raw line is parsed once and its instruction shared by
    # every chunk -- across calls too, until the line table outgrows the text.
    table = ParseTable()
    reuse = previous if previous is not None else table
    if len(reuse.lines) <= len(lines):
        table.lines.update(reuse.lines)
    program = Program(parse_table=table)
    for start, end, name in spans:
        digest = blake2b("\n".join(lines[start:end]).encode(), digest_size=16).digest()
        chunk = reuse.chunks.get(digest)
        if chunk is None:
            # Outside a procedure every instruction is an error: no memo.
            memo = table.lines if name is not None else {}
            chunk = _parse_chunk(lines, start, end, name, memo)
            checkpoint()
        table.chunks[digest] = chunk
        program.externs.update(chunk.externs)
        for global_name, size in chunk.globals:
            program.globals[global_name] = size
        if chunk.procedure is not None:
            program.procedures[chunk.procedure.name] = chunk.procedure
    return program


def _parse_chunk(
    lines: Sequence[str],
    start: int,
    end: int,
    name: Optional[str],
    parsed: Dict[str, Instruction],
) -> ParsedChunk:
    """Parse ``lines[start:end]``: procedure ``name`` from its label line on,
    or (``name`` None) the lines before the first label."""
    instructions: List[Instruction] = []
    externs: List[str] = []
    globals_: List[Tuple[str, int]] = []
    first = start if name is None else start + 1
    for line_number, raw_line in enumerate(lines[first:end], start=first + 1):
        instruction = parsed.get(raw_line)
        if instruction is not None:
            instructions.append(instruction)
            continue
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if line.startswith(".extern"):
            parts = line.split()
            if len(parts) < 2:
                raise AsmSyntaxError("missing extern name", line_number, raw_line)
            externs.extend(part.rstrip(",") for part in parts[1:])
            continue
        if line.startswith(".global_var"):
            parts = line.split()
            if len(parts) < 2:
                raise AsmSyntaxError("missing global name", line_number, raw_line)
            try:
                size = int(parts[2]) if len(parts) > 2 else 4
            except ValueError:
                raise AsmSyntaxError("bad global size", line_number, raw_line) from None
            globals_.append((parts[1], size))
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            # Top-level labels start chunks, so this one is procedure-local.
            if name is None:
                raise AsmSyntaxError("local label outside procedure", line_number, raw_line)
            instruction = LabelPseudo(label_match.group(1))
        elif name is None:
            raise AsmSyntaxError("instruction outside procedure", line_number, raw_line)
        else:
            try:
                instruction = parse_instruction(line)
            except ValueError as error:
                raise AsmSyntaxError(str(error), line_number, raw_line) from error
        parsed[raw_line] = instruction
        instructions.append(instruction)
    procedure = Procedure(name, instructions) if name is not None else None
    return ParsedChunk(procedure, tuple(externs), tuple(globals_))


def parse_procedure(name: str, text: str) -> Procedure:
    """Parse the body of a single procedure (no directives)."""
    program = parse_program(f"{name}:\n{text}")
    return program.procedure(name)


def parse_instruction(line: str) -> Instruction:
    """Parse a single instruction line."""
    line = _strip_comment(line).strip()
    mnemonic, _, rest = line.partition(" ")
    mnemonic = mnemonic.lower()
    rest = rest.strip()

    if mnemonic == "nop":
        return Nop()
    if mnemonic == "ret":
        return Ret()
    if mnemonic == "leave":
        return Leave()
    if mnemonic == "jmp":
        return Jmp(rest)
    if mnemonic.startswith("j") and len(mnemonic) > 1:
        return Jcc(mnemonic[1:], rest)
    if mnemonic == "call":
        target = rest.strip()
        if target in REGISTERS:
            return Call(Reg(target))
        return Call(target)
    if mnemonic == "push":
        return Push(parse_operand(rest))
    if mnemonic == "pop":
        operand = parse_operand(rest)
        if not isinstance(operand, Reg):
            raise ValueError("pop destination must be a register")
        return Pop(operand)

    operands = _split_operands(rest)
    if mnemonic == "mov":
        _expect(operands, 2, "mov")
        return Mov(parse_operand(operands[0]), parse_operand(operands[1]))
    if mnemonic == "lea":
        _expect(operands, 2, "lea")
        dst = parse_operand(operands[0])
        src = parse_operand(operands[1])
        if not isinstance(dst, Reg) or not isinstance(src, Mem):
            raise ValueError("lea expects a register destination and memory source")
        return Lea(dst, src)
    if mnemonic in _BINARY_OPS:
        _expect(operands, 2, mnemonic)
        dst = parse_operand(operands[0])
        if not isinstance(dst, Reg):
            raise ValueError(f"{mnemonic} destination must be a register")
        return BinaryOp(mnemonic, dst, parse_operand(operands[1]))
    if mnemonic in ("cmp", "test"):
        _expect(operands, 2, mnemonic)
        return Compare(mnemonic, parse_operand(operands[0]), parse_operand(operands[1]))
    raise ValueError(f"unknown mnemonic {mnemonic!r}")


def parse_operand(text: str) -> Operand:
    """Parse a register, immediate or memory operand."""
    text = text.strip()
    size = 4
    for prefix, prefix_size in _SIZE_PREFIXES.items():
        if text.startswith(prefix + " "):
            size = prefix_size
            text = text[len(prefix):].strip()
            break
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated memory operand {text!r}")
        return _parse_memory(text[1:-1], size)
    if text in REGISTERS:
        return Reg(text)
    try:
        return Imm(int(text, 0))
    except ValueError:
        raise ValueError(f"cannot parse operand {text!r}") from None


def _parse_memory(inner: str, size: int) -> Mem:
    inner = inner.replace(" ", "")
    # Normalize "a-b" to "a+-b" so we can split on '+'.
    inner = re.sub(r"(?<=[\w\]])-", "+-", inner)
    parts = [part for part in inner.split("+") if part]
    base: Optional[str] = None
    index: Optional[str] = None
    offset = 0
    for part in parts:
        if part in REGISTERS:
            if base is None:
                base = part
            elif index is None:
                index = part
            else:
                raise ValueError(f"too many registers in memory operand [{inner}]")
            continue
        try:
            offset += int(part, 0)
        except ValueError:
            # A symbol: a global variable or named stack slot.
            if base is None:
                base = part
            else:
                raise ValueError(f"cannot parse memory operand part {part!r}") from None
    return Mem(base=base, offset=offset, size=size, index=index)


def _split_operands(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    return parts


def _expect(operands: List[str], count: int, mnemonic: str) -> None:
    if len(operands) != count:
        raise ValueError(f"{mnemonic} expects {count} operands, got {len(operands)}")


def _strip_comment(line: str) -> str:
    for marker in (";", "#"):
        index = line.find(marker)
        if index != -1:
            line = line[:index]
    return line
