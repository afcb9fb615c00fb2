"""Programs and procedures of the machine-code IR."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from .instructions import Call, Instruction, Jcc, Jmp, LabelPseudo, Ret

if TYPE_CHECKING:
    from .asmparser import ParseTable


@dataclass
class Procedure:
    """A named procedure: a flat list of instructions with internal labels resolved.

    The instructions are fixed once the procedure is built: its labels (unless
    given), ``size`` and ``cfg_nodes`` are counted then, in one pass.
    """

    name: str
    instructions: List[Instruction] = dc_field(default_factory=list)
    #: label name -> index into ``instructions`` of the labelled instruction
    labels: Dict[str, int] = dc_field(default_factory=dict)
    #: number of real (non-label) instructions.
    size: int = dc_field(init=False, compare=False, repr=False)
    #: number of basic blocks (the leaders :func:`~repro.ir.cfg.build_cfg`
    #: splits at); the program-size unit of Figures 11 and 12.
    cfg_nodes: int = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        instructions = self.instructions
        count = len(instructions)
        labels: Dict[str, int] = {}
        leaders = {0}
        jumps: List[str] = []
        label_lines = 0
        for index, instruction in enumerate(instructions):
            kind = type(instruction)
            if kind is LabelPseudo:
                # The label points at the next real instruction.
                labels[instruction.name] = index
                leaders.add(index)
                label_lines += 1
                continue
            if kind is Jmp or kind is Jcc or kind is Ret:
                if index + 1 < count:
                    leaders.add(index + 1)
                if kind is not Ret:
                    jumps.append(instruction.target)
        if not self.labels:
            self.labels = labels
        for label in jumps:
            target = self.labels.get(label)
            if target is not None:
                leaders.add(target)
        self.size = count - label_lines
        self.cfg_nodes = len(leaders)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def label_target(self, label: str) -> Optional[int]:
        return self.labels.get(label)

    def direct_callees(self) -> List[str]:
        return [
            instruction.target
            for instruction in self.instructions
            if isinstance(instruction, Call) and isinstance(instruction.target, str)
        ]

    def __str__(self) -> str:
        return "\n".join([f"{self.name}:", *map(instruction_line, self.instructions)])


def instruction_line(instruction: Instruction) -> str:
    """One instruction's line in its procedure's textual form."""
    if type(instruction) is LabelPseudo:
        return f"{instruction.name}:"
    return f"    {instruction}"


@dataclass
class Program:
    """A collection of procedures plus declared externals and global variables."""

    procedures: Dict[str, Procedure] = dc_field(default_factory=dict)
    externs: Set[str] = dc_field(default_factory=set)
    globals: Dict[str, int] = dc_field(default_factory=dict)  # name -> size in bytes
    #: what :func:`~repro.ir.asmparser.parse_program` parsed this program
    #: from, for reuse by a later parse (None for programs built in memory).
    parse_table: Optional["ParseTable"] = dc_field(default=None, compare=False, repr=False)

    def add_procedure(self, procedure: Procedure) -> None:
        self.procedures[procedure.name] = procedure

    def procedure(self, name: str) -> Procedure:
        return self.procedures[name]

    def __contains__(self, name: str) -> bool:
        return name in self.procedures

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self.procedures.values())

    @property
    def instruction_count(self) -> int:
        return sum(proc.size for proc in self.procedures.values())

    @property
    def cfg_nodes(self) -> int:
        return sum(proc.cfg_nodes for proc in self.procedures.values())

    def __str__(self) -> str:
        parts = []
        for name in sorted(self.externs):
            parts.append(f".extern {name}")
        for name, size in sorted(self.globals.items()):
            parts.append(f".global_var {name} {size}")
        for proc in self.procedures.values():
            parts.append("")
            parts.append(str(proc))
        return "\n".join(parts)
