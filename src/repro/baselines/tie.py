"""A TIE-style baseline: subtype constraints with upper/lower bounds, but
monomorphic and without recursive types.

TIE (Lee, Avgerinos, Brumley 2011) was the first machine-code system to keep
subtype constraints and maintain an interval (upper and lower bound) per type
variable.  Its published limitations -- the ones the Retypd paper calls out --
are the lack of recursive types and of polymorphism.  The baseline therefore:

* runs the same SCC-based solver as Retypd but with *monomorphic* callsite
  instantiation (shared existentials: all callsites of a function unify), and
* truncates every recovered sketch to a shallow depth before display, so
  recursive and deeply nested structures degrade to generic pointers -- the
  behaviour Schwartz et al. identified as a major source of decompilation
  imprecision.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..core.labels import Label
from ..core.lattice import TypeLattice
from ..core.sketches import Sketch
from ..core.solver import Solver, SolverConfig
from ..ir.callgraph import CallGraph
from ..ir.program import Program
from ..pipeline import ProgramTypes, _function_types
from ..core.display import TypeDisplay
from ..typegen.abstract_interp import generate_program_constraints
from ..typegen.externs import ensure_lattice_tags, extern_schemes, standard_externs
from ..core.lattice import default_lattice
from ..ir.cfg import cfg_node_count
from .common import TypeInferenceEngine


def truncate_sketch(sketch: Sketch, max_depth: int) -> Sketch:
    """Copy ``sketch`` but cut every path deeper than ``max_depth`` labels."""
    out = Sketch(sketch.lattice)
    mapping = {}

    def copy(node: int, depth: int) -> int:
        if depth == 0:
            target = out.root
        else:
            target = out.add_node()
        source = sketch.node(node)
        out.nodes[target].lower = source.lower
        out.nodes[target].upper = source.upper
        if depth >= max_depth:
            return target
        for label, child in sketch.successors(node).items():
            out.add_edge(target, label, copy(child, depth + 1))
        return target

    copy(sketch.root, 0)
    return out


class TIEEngine(TypeInferenceEngine):
    name = "tie"

    #: structure deeper than this many labels is not reconstructed.
    max_depth = 2

    def analyze(self, program: Program) -> ProgramTypes:
        start = time.perf_counter()
        lattice = ensure_lattice_tags(default_lattice())
        externs = standard_externs()
        inputs = generate_program_constraints(program, externs)
        config = SolverConfig(polymorphic=False, refine_parameters=False)
        solver = Solver(lattice, extern_schemes(externs), config)
        results = {}
        for scc in CallGraph.from_program(program).sccs_bottom_up():
            results.update(solver.solve_scc(scc, inputs, results))

        for result in results.values():
            result.formal_in_sketches = {
                dtv: truncate_sketch(sketch, self.max_depth)
                for dtv, sketch in result.formal_in_sketches.items()
            }
            result.formal_out_sketches = {
                dtv: truncate_sketch(sketch, self.max_depth)
                for dtv, sketch in result.formal_out_sketches.items()
            }

        display = TypeDisplay(lattice)
        functions = {
            name: _function_types(name, inputs[name], result, display)
            for name, result in results.items()
        }
        elapsed = time.perf_counter() - start
        stats = {
            "total_seconds": elapsed,
            "instructions": program.instruction_count,
            "cfg_nodes": sum(cfg_node_count(proc) for proc in program),
        }
        return ProgramTypes(program=program, functions=functions, display=display, stats=stats)
