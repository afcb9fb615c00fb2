"""Programs and procedures of the machine-code IR."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .instructions import Call, Instruction, Jcc, Jmp, LabelPseudo, Reg, Ret

if TYPE_CHECKING:
    from .asmparser import ParseTable


@dataclass
class Procedure:
    """A named procedure: a flat list of instructions with internal labels resolved."""

    name: str
    instructions: List[Instruction] = dc_field(default_factory=list)
    #: label name -> index into ``instructions`` of the labelled instruction
    labels: Dict[str, int] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = self._compute_labels()

    def _compute_labels(self) -> Dict[str, int]:
        labels: Dict[str, int] = {}
        for index, instruction in enumerate(self.instructions):
            if isinstance(instruction, LabelPseudo):
                # The label points at the next real instruction.
                labels[instruction.name] = index
        return labels

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def size(self) -> int:
        """Number of real (non-label) instructions."""
        return sum(
            1 for instruction in self.instructions if not isinstance(instruction, LabelPseudo)
        )

    def label_target(self, label: str) -> Optional[int]:
        return self.labels.get(label)

    def direct_callees(self) -> List[str]:
        return [
            instruction.target
            for instruction in self.instructions
            if isinstance(instruction, Call) and isinstance(instruction.target, str)
        ]

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        for instruction in self.instructions:
            if isinstance(instruction, LabelPseudo):
                lines.append(f"{instruction.name}:")
            else:
                lines.append(f"    {instruction}")
        return "\n".join(lines)


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
