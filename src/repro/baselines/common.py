"""Shared infrastructure for the comparison engines.

The paper compares Retypd against three algorithm families: unification-based
inference (SecondWrite, REWARDS), interval/bound propagation with subtyping but
without polymorphism or recursive types (TIE), and signature propagation
(IdaPro).  All engines in this package consume the same IR and the same
generated constraints, so the comparison isolates exactly the algorithmic
differences the paper studies.

Every engine implements :class:`TypeInferenceEngine`: given an IR program it
returns a :class:`repro.pipeline.ProgramTypes`, so the evaluation harness and
the metrics treat all engines uniformly.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..core.constraints import ConstraintSet
from ..core.display import TypeDisplay
from ..core.lattice import TypeLattice, default_lattice
from ..core.solver import ProcedureResult, ProcedureTypingInput
from ..core.variables import DerivedTypeVariable
from ..ir.cfg import cfg_node_count
from ..ir.program import Program
from ..pipeline import FunctionTypes, ProgramTypes, _function_types
from ..typegen.abstract_interp import generate_program_constraints
from ..typegen.externs import ensure_lattice_tags, extern_schemes, standard_externs


class TypeInferenceEngine:
    """Interface implemented by Retypd and by every baseline."""

    name = "abstract"

    def analyze(self, program: Program) -> ProgramTypes:  # pragma: no cover - interface
        raise NotImplementedError


class RetypdEngine(TypeInferenceEngine):
    """The reproduction's own algorithm (a thin wrapper around the pipeline)."""

    name = "retypd"

    def __init__(self, lattice: Optional[TypeLattice] = None) -> None:
        self.lattice = lattice

    def analyze(self, program: Program) -> ProgramTypes:
        from ..pipeline import analyze_program

        return analyze_program(program, lattice=self.lattice)


def whole_program_constraints(
    program: Program,
) -> Tuple[Dict[str, ProcedureTypingInput], ConstraintSet, TypeLattice]:
    """Generate constraints and merge them into one monomorphic constraint set.

    All baselines are monomorphic: instead of instantiating callee type schemes
    per callsite, every callsite base variable is identified with the callee's
    own variable, so all calls to a function share one type.  Extern library
    schemes are instantiated once per callsite (they have to be seeded
    somewhere) but recursive structure is not preserved by engines that do not
    support it.
    """
    lattice = ensure_lattice_tags(default_lattice())
    externs = standard_externs()
    inputs = generate_program_constraints(program, externs)
    schemes = extern_schemes(externs)

    combined = ConstraintSet()
    for name, proc in inputs.items():
        combined.update(proc.constraints)
        for callsite in proc.callsites:
            here = DerivedTypeVariable(callsite.base)
            if callsite.callee in inputs:
                there = DerivedTypeVariable(callsite.callee)
                combined.add_subtype(here, there)
                combined.add_subtype(there, here)
            elif callsite.callee in schemes:
                combined.update(schemes[callsite.callee].instantiate_as(callsite.base))
    return inputs, combined, lattice


def results_to_program_types(
    program: Program,
    inputs: Mapping[str, ProcedureTypingInput],
    results: Mapping[str, ProcedureResult],
    lattice: TypeLattice,
    stats: Optional[Dict[str, float]] = None,
) -> ProgramTypes:
    """Package per-procedure results the same way the main pipeline does."""
    display = TypeDisplay(lattice)
    functions: Dict[str, FunctionTypes] = {}
    for name, result in results.items():
        functions[name] = _function_types(name, inputs[name], result, display)
    all_stats: Dict[str, float] = {
        "instructions": program.instruction_count,
        "cfg_nodes": sum(cfg_node_count(proc) for proc in program),
    }
    if stats:
        all_stats.update(stats)
    return ProgramTypes(program=program, functions=functions, display=display, stats=all_stats)
