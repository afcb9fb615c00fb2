"""Formal-in / formal-out discovery and calling-convention locators (Appendix A.4).

Earlier analysis phases are responsible for delineating each procedure's
formal-in and formal-out locations; this module plays that role for the IR
substrate:

* **stack arguments** -- frame slots at offsets >= 4 (relative to the entry
  ``esp``) that are read with the entry definition reaching the read;
* **register arguments** -- caller-set registers read before being written
  (excluding the callee-save ``push reg`` idiom, which merely spills the
  caller's value);
* **return value** -- ``eax`` when a definition of it reaches some ``ret``.

It reads the facts :func:`~repro.ir.dataflow.analyze_reaching_definitions`
recorded per instruction (the locations each one uses) rather than deriving
them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .dataflow import ENTRY, ReachingDefinitions, analyze_reaching_definitions
from .instructions import WORD_SIZE, Push, Ret
from .program import Procedure


#: registers that may carry arguments when a register-parameter convention is used
REGISTER_PARAM_CANDIDATES = ("ecx", "edx", "ebx", "esi", "edi")


@dataclass
class ProcedureInterface:
    """Discovered input/output locations of a procedure."""

    name: str
    #: stack argument frame offsets (4 = first argument), sorted
    stack_args: Tuple[int, ...] = ()
    #: register parameters (subset of REGISTER_PARAM_CANDIDATES), sorted
    register_args: Tuple[str, ...] = ()
    has_return: bool = False

    @property
    def input_locations(self) -> List[str]:
        """Formal-in location names, stack arguments first (by offset)."""
        locations = [f"stack{offset - WORD_SIZE}" for offset in self.stack_args]
        locations.extend(self.register_args)
        return locations

    @property
    def arity(self) -> int:
        return len(self.stack_args) + len(self.register_args)


def discover_interface(
    procedure: Procedure, reaching: Optional[ReachingDefinitions] = None
) -> ProcedureInterface:
    """Compute the procedure's interface from its dataflow facts."""
    if reaching is None:
        reaching = analyze_reaching_definitions(procedure)

    stack_args: Set[int] = set()
    register_args: Set[str] = set()
    has_return = False

    for index, instruction in enumerate(procedure.instructions):
        for location in reaching.uses[index]:
            defs = reaching.reaching(index, location)
            if ENTRY not in defs:
                continue
            if isinstance(location, int):
                if location >= WORD_SIZE:
                    stack_args.add(location)
            elif location in REGISTER_PARAM_CANDIDATES:
                # The callee-save idiom (push reg ... pop reg) is not a use of a
                # parameter; require a non-push use of the entry value.
                if not isinstance(instruction, Push):
                    register_args.add(location)
        if isinstance(instruction, Ret):
            eax_defs = reaching.reaching(index, "eax")
            if any(definition != ENTRY for definition in eax_defs):
                has_return = True

    return ProcedureInterface(
        name=procedure.name,
        stack_args=tuple(sorted(stack_args)),
        register_args=tuple(sorted(register_args)),
        has_return=has_return,
    )
