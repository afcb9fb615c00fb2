"""Polymorphic type schemes (Definition 3.4) and their callsite instantiation.

A type scheme for a procedure ``f`` has the shape ``forall f. (exists t1..tn) C => f``
where ``C`` is a constraint set over the procedure's formal derived type
variables (``f.in_stack0``, ``f.out_eax``, ...), type constants, and a small
number of existential variables synthesized to express recursive structure
(Appendix H / Figure 2).

Instantiating a scheme at a callsite renames the procedure variable with a
callsite tag and gives every existential a fresh name, realizing the
let-polymorphism of Appendix A.4: distinct calls to the same procedure are
typed independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .constraints import AddConstraint, ConstraintSet, SubConstraint, parse_constraint
from .intern import ConstraintTable
from .variables import DerivedTypeVariable, parse_dtv

_instantiation_counter = itertools.count()


@dataclass
class TypeScheme:
    """``forall proc. (exists quantified) constraints => proc``."""

    proc: str
    constraints: ConstraintSet
    quantified: FrozenSet[str] = frozenset()
    formal_ins: Tuple[DerivedTypeVariable, ...] = ()
    formal_outs: Tuple[DerivedTypeVariable, ...] = ()
    #: the constraints as a sealed table, encoded on first instantiation.
    _table: Optional[ConstraintTable] = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    def table(self) -> ConstraintTable:
        """The constraints as a sealed :class:`ConstraintTable`, encoded once."""
        table = self._table
        if table is None:
            table = self._table = ConstraintTable.from_constraints(self.constraints)
        return table

    def instantiate(self, tag: str) -> Tuple[str, ConstraintSet]:
        """Return (instantiated procedure variable name, instantiated constraints).

        The procedure variable and every quantified variable are renamed with a
        fresh, callsite-specific suffix so that multiple calls do not interact
        (Example A.4).
        """
        unique = next(_instantiation_counter)
        mapping: Dict[str, str] = {self.proc: f"{self.proc}${tag}"}
        for var in self.quantified:
            mapping[var] = f"{var}${tag}.{unique}"
        return mapping[self.proc], self.constraints.substitute(mapping)

    def instantiate_as(self, base: str) -> ConstraintSet:
        """Instantiate the scheme with the procedure variable renamed to ``base``.

        Used at callsites: the caller's constraint generator picks a unique
        base name for each callsite (e.g. ``close$0x804843f``) and the solver
        splices in the callee's constraints under that name.  Existential
        variables still receive fresh names so separate instantiations never
        interfere.
        """
        return self.constraints.substitute(self._renames_as(base))

    def instance_as(self, base: str) -> Tuple[ConstraintTable, Dict[str, str]]:
        """:meth:`instantiate_as` as a table part: the scheme's table and the
        base renames that instantiate it (the solver's merge applies them)."""
        return self.table(), self._renames_as(base)

    def _renames_as(self, base: str) -> Dict[str, str]:
        unique = next(_instantiation_counter)
        mapping: Dict[str, str] = {self.proc: base}
        for var in self.quantified:
            mapping[var] = f"{var}${unique}"
        return mapping

    def instantiate_monomorphic(self, base: str) -> ConstraintSet:
        """Instantiate without freshening the existential variables.

        Every callsite then shares the same internal variables, which collapses
        all calls of the function onto a single monomorphic type.  This is the
        behaviour of the unification-based baselines (SecondWrite/REWARDS) and
        of TIE, and it is exactly the over-unification hazard described in
        section 2.5.
        """
        mapping: Dict[str, str] = {self.proc: base}
        return self.constraints.substitute(mapping)

    # -- serialization (summary-store round trip) ------------------------------

    def to_json(self) -> Dict[str, object]:
        """A JSON-able representation, the inverse of :meth:`from_json`.

        Subtype constraints use the textual constraint syntax (parseable by
        :func:`~repro.core.constraints.parse_constraint`); the three-place
        additive constraints are spelled out structurally.  Everything is
        sorted so the representation is stable across runs.
        """
        return {
            "proc": self.proc,
            "constraints": sorted(str(c) for c in self.constraints.subtype),
            "additive": sorted(
                (
                    {
                        "kind": "add" if isinstance(c, AddConstraint) else "sub",
                        "left": str(c.left),
                        "right": str(c.right),
                        "result": str(c.result),
                    }
                    for c in self.constraints.additive
                ),
                key=lambda entry: (entry["kind"], entry["left"], entry["right"], entry["result"]),
            ),
            "quantified": sorted(self.quantified),
            "formal_ins": [str(dtv) for dtv in self.formal_ins],
            "formal_outs": [str(dtv) for dtv in self.formal_outs],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TypeScheme":
        """Rebuild a scheme serialized by :meth:`to_json`."""
        constraints = ConstraintSet()
        for text in data.get("constraints", ()):
            constraints.add(parse_constraint(text))
        for entry in data.get("additive", ()):
            ctor = AddConstraint if entry["kind"] == "add" else SubConstraint
            constraints.add(
                ctor(parse_dtv(entry["left"]), parse_dtv(entry["right"]), parse_dtv(entry["result"]))
            )
        return cls(
            proc=data["proc"],
            constraints=constraints,
            quantified=frozenset(data.get("quantified", ())),
            formal_ins=tuple(parse_dtv(text) for text in data.get("formal_ins", ())),
            formal_outs=tuple(parse_dtv(text) for text in data.get("formal_outs", ())),
        )

    def __str__(self) -> str:
        quantifier = f"∀{self.proc}."
        existentials = ""
        if self.quantified:
            existentials = " ∃" + ",".join(sorted(self.quantified)) + "."
        body = "\n  ".join(str(c) for c in self.constraints) or "true"
        return f"{quantifier}{existentials}\n  {body}\n⇒ {self.proc}"


def monomorphic_scheme(proc: str, constraints: Optional[ConstraintSet] = None) -> TypeScheme:
    """A scheme with no constraints (used for unknown external functions)."""
    return TypeScheme(proc=proc, constraints=constraints or ConstraintSet())
