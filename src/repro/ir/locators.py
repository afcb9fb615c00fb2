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

The body walk (:func:`~repro.ir.dataflow.analyze_body`) derives all three
from the facts it records; this module names them for one procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .dataflow import BodyFacts, analyze_body
from .instructions import WORD_SIZE
from .program import Procedure


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
    procedure: Procedure, facts: Optional[BodyFacts] = None
) -> ProcedureInterface:
    """The procedure's interface, read off its body's record."""
    if facts is None:
        facts = analyze_body(procedure)
    return ProcedureInterface(
        name=procedure.name,
        stack_args=facts.stack_args,
        register_args=facts.register_args,
        has_return=facts.has_return,
    )
