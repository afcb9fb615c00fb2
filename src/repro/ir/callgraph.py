"""Call graphs and their strongly-connected components.

Type schemes are inferred bottom-up over the SCCs of the call graph (section
4.2); this module wraps the program's direct-call edges and the Tarjan SCC
computation shared with the core solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.solver import tarjan_sccs
from .program import Program


@dataclass
class CallGraph:
    """Direct call graph over the procedures defined in a program.

    The SCCs are computed on first use and kept, so ``edges`` must not
    change after that.
    """

    edges: Dict[str, Set[str]] = dc_field(default_factory=dict)
    _sccs: Optional[List[List[str]]] = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_program(cls, program: Program) -> "CallGraph":
        return cls.from_callees(
            {name: proc.direct_callees() for name, proc in program.procedures.items()}
        )

    @classmethod
    def from_callees(cls, callees: Mapping[str, Sequence[str]]) -> "CallGraph":
        """Call graph from each procedure's direct callees in instruction
        order (what ``Procedure.direct_callees`` returns), restricted to the
        procedures ``callees`` defines."""
        edges: Dict[str, Set[str]] = {name: set() for name in callees}
        for name, targets in callees.items():
            for callee in targets:
                if callee in edges:
                    edges[name].add(callee)
        return cls(edges)

    def callees(self, name: str) -> Set[str]:
        return set(self.edges.get(name, ()))

    def callers(self, name: str) -> Set[str]:
        return {caller for caller, callees in self.edges.items() if name in callees}

    def transitive_callers(self, names: Set[str]) -> Set[str]:
        """``names`` plus every procedure that can reach one of them by calls.

        This is the invalidation cone of the incremental driver: when a
        procedure changes, its own SCC and all transitive callers must be
        re-solved, while everything below is reusable by content hash.
        """
        reverse: Dict[str, Set[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        dirty = set(names)
        worklist = list(names)
        while worklist:
            current = worklist.pop()
            for caller in reverse.get(current, ()):
                if caller not in dirty:
                    dirty.add(caller)
                    worklist.append(caller)
        return dirty

    def sccs_bottom_up(self) -> List[List[str]]:
        """SCCs in callee-first order (the order type schemes are inferred in)."""
        if self._sccs is None:
            self._sccs = tarjan_sccs(self.edges)
        return self._sccs

    def sccs_top_down(self) -> List[List[str]]:
        """SCCs in caller-first order (the order sketches are specialized in)."""
        return list(reversed(self.sccs_bottom_up()))

    def scc_of(self) -> Dict[str, Tuple[str, ...]]:
        """Map every procedure to (the canonical tuple of) its SCC."""
        out: Dict[str, Tuple[str, ...]] = {}
        for scc in self.sccs_bottom_up():
            key = tuple(scc)
            for name in scc:
                out[name] = key
        return out

    def __len__(self) -> int:
        return len(self.edges)
