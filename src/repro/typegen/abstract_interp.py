"""Constraint generation by abstract interpretation of the IR (Appendix A).

For every procedure the generator walks the instructions once and emits type
constraints over derived type variables, straight into the procedure's
integer :class:`~repro.core.intern.ConstraintTable` (no variable or
constraint object is built per site; only the formals are objects):

* every *definition site* of a register or stack slot gets its own type
  variable (flow sensitivity via reaching definitions, Example A.2);
* value copies produce subtype constraints (``Y <= X`` for ``x := y``);
* loads and stores through registers produce ``.load.sigmaN@k`` /
  ``.store.sigmaN@k`` constraints (Appendix A.3); no points-to analysis is
  required beyond resolving stack-frame and global addresses;
* ``lea`` and constant add/sub are tracked as *pointer offset aliases* so that
  field accesses through moved pointers land on the right offset;
* calls instantiate the callee's formal variables under a callsite-unique base
  name (let-polymorphism, Appendix A.4) and record a
  :class:`~repro.core.solver.Callsite` for the solver;
* ``xor reg, reg`` and flag-only computations generate no constraints
  (the semi-syntactic constant and bit-twiddling rules of sections 2.1/A.5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Protocol, Sequence, Tuple

from ..core.intern import ConstraintTable
from ..core.labels import FieldLabel, InLabel, LoadLabel, OutLabel, StoreLabel
from ..core.solver import Callsite, ProcedureTypingInput
from ..core.variables import DerivedTypeVariable
from ..obs.trace import checkpoint, get_tracer
from ..ir.callgraph import CallGraph
from ..ir.dataflow import (
    ENTRY,
    BodyFacts,
    Environment,
    Location,
    Step,
    analyze_body,
    body_key,
)
from ..ir.instructions import (
    WORD_SIZE,
    BinaryOp,
    Call,
    Imm,
    Lea,
    Mem,
    Mov,
    Operand,
    Pop,
    Push,
    Reg,
    Ret,
    is_zeroing_idiom,
)
from ..ir.locators import ProcedureInterface, discover_interface
from ..ir.program import Procedure, Program
from ..ir.stackanalysis import StackState, argument_location, frame_offset, is_argument_offset
from .externs import ExternSignature, standard_externs

LOAD = LoadLabel()
STORE = StoreLabel()

#: Bit-stealing masks treated as identity operations (Appendix A.5.2).
_BITSTEAL_AND_MASKS = {0xFFFFFFFC, 0xFFFFFFF8, ~3 & 0xFFFFFFFF, -4, -8}
_BITSTEAL_OR_MASKS = {1, 2, 3}

#: Maximum distance (bytes) between an address-taken local and a direct access
#: that we still attribute to the same stack object (a crude data delineation).
_MAX_OBJECT_EXTENT = 64

_OUT_EAX = OutLabel("eax")


class Formals(Protocol):
    """A procedure's formal variables, in interface order: carried by a typing
    input and by the stored summary of a procedure the summary store serves."""

    formal_ins: Sequence[DerivedTypeVariable]
    formal_outs: Sequence[DerivedTypeVariable]


@dataclass
class CalleeInfo:
    """What the constraint generator needs to know about a call target."""

    name: str
    stack_params: int = 0
    register_params: Tuple[str, ...] = ()
    has_return: bool = True
    known: bool = False

    @property
    def input_locations(self) -> List[str]:
        locations = [f"stack{WORD_SIZE * j}" for j in range(self.stack_params)]
        locations.extend(self.register_params)
        return locations

    @classmethod
    def from_interface(cls, interface: ProcedureInterface) -> "CalleeInfo":
        """A program procedure whose interface was discovered from its IR."""
        return cls(
            name=interface.name,
            stack_params=len(interface.stack_args),
            register_params=tuple(interface.register_args),
            has_return=interface.has_return,
            known=True,
        )

    @classmethod
    def from_formals(cls, name: str, formals: Formals) -> "CalleeInfo":
        """A program procedure known only by its formals (a store-served one).

        Formal-ins follow :attr:`ProcedureInterface.input_locations`: the
        ``stack*`` arguments first, then the register parameters in order.
        """
        locations = [dtv.labels[0].location for dtv in formals.formal_ins]
        registers = tuple(loc for loc in locations if not loc.startswith("stack"))
        return cls(
            name=name,
            stack_params=len(locations) - len(registers),
            register_params=registers,
            has_return=bool(formals.formal_outs),
            known=True,
        )


class ProcedureConstraintGenerator:
    """Generates the constraint table for a single procedure.

    Variables are ids of the procedure's :class:`~repro.core.intern.
    ConstraintTable`, memoized per definition site, use and label, and
    constraints go into it as id tuples; only the formals become
    :class:`DerivedTypeVariable` objects.
    """

    def __init__(
        self,
        procedure: Procedure,
        interface: ProcedureInterface,
        callees: Mapping[str, CalleeInfo],
        facts: Optional[BodyFacts] = None,
    ) -> None:
        self.procedure = procedure
        self.name = procedure.name
        self.interface = interface
        self.callees = callees
        self.facts = facts if facts is not None else analyze_body(procedure)
        self.states = self.facts.states
        #: the definitions reaching the instruction being visited: the
        #: block's entry environment, updated past each definition.
        self._env: Environment = {}
        self.table = ConstraintTable()
        self.callsites: List[Callsite] = []
        self._var = self.table.var
        self._derive = self.table.derive
        #: ``(left, right)`` -> record ``left <= right``.
        self._sub = self.table.subtype.add
        self._load = self.table.label(LOAD)
        self._store = self.table.label(STORE)
        self._out = self.table.label(_OUT_EAX)
        self._phi_cache: Dict[Tuple[int, Location], int] = {}
        self._def_vars: Dict[Tuple[Location, int], int] = {}
        self._in_lids: Dict[str, int] = {}
        self._field_lids: Dict[Tuple[int, int], int] = {}
        self._aliases: Dict[int, Tuple[int, int]] = {}
        self._frame_aliases: Dict[int, int] = {}

    # -- type variable naming ----------------------------------------------------------

    def _in_lid(self, location_name: str) -> int:
        # Building an InLabel re-validates its location; labels are immutable.
        lid = self._in_lids.get(location_name)
        if lid is None:
            lid = self._in_lids[location_name] = self.table.label(InLabel(location_name))
        return lid

    def _field(self, size_bits: int, offset: int) -> int:
        key = (size_bits, offset)
        lid = self._field_lids.get(key)
        if lid is None:
            lid = self._field_lids[key] = self.table.label(FieldLabel(size_bits, offset))
        return lid

    def formal_in(self, location_name: str) -> int:
        return self._derive(self._var(self.name), self._in_lid(location_name))

    def formal_out(self) -> int:
        return self._derive(self._var(self.name), self._out)

    def def_var(self, location: Location, index: int) -> int:
        """Type variable for the definition of ``location`` at instruction ``index``."""
        key = (location, index)
        var = self._def_vars.get(key)
        if var is None:
            var = self._def_vars[key] = self._make_def_var(location, index)
        return var

    def _make_def_var(self, location: Location, index: int) -> int:
        is_slot = type(location) is int
        location_name = f"stk{location}" if is_slot else location
        if index == ENTRY:
            if is_slot and is_argument_offset(location):
                loc_name = argument_location(location)
                if location in self.interface.stack_args:
                    return self.formal_in(loc_name)
                return self._var(f"{self.name}~arg_{loc_name}")
            if not is_slot and location in self.interface.register_args:
                return self.formal_in(location)
            return self._var(f"{self.name}~{location_name}@entry")
        return self._var(f"{self.name}~{location_name}@{index}")

    def use_var(self, location: Location, index: int) -> int:
        """Type variable for a use of ``location`` at instruction ``index``.

        Single reaching definition: the definition's variable.  Multiple
        reaching definitions: a join variable with one constraint per
        definition (Example A.2 -- this is what defeats the "fortuitous reuse"
        and stack-slot-reuse unification problems of section 2.1).
        """
        sites = self._env.get(location, ENTRY)
        if type(sites) is int:
            key = (location, sites)
            var = self._def_vars.get(key)
            if var is None:
                var = self._def_vars[key] = self._make_def_var(location, sites)
            return var
        key = (index, location)
        var = self._phi_cache.get(key)
        if var is None:
            location_name = f"stk{location}" if isinstance(location, int) else location
            var = self._phi_cache[key] = self._var(f"{self.name}~phi_{location_name}@{index}")
            for definition in sites:
                self._sub((self.def_var(location, definition), var))
        return var

    def global_var(self, symbol: str, offset: int = 0) -> int:
        suffix = f"_{offset}" if offset else ""
        return self._var(f"g_{symbol}{suffix}")

    def object_var(self, offset: int) -> int:
        """Pointer-valued variable for the address of an address-taken local."""
        return self._var(f"{self.name}~addr{offset}")

    # -- alias resolution ------------------------------------------------------------------

    def _resolve_alias(self, var: int) -> Tuple[Optional[int], int, Optional[int]]:
        """Chase pointer-offset aliases.

        Returns ``(base_var, delta, frame_offset)``: either ``base_var`` (with a
        byte ``delta``) or ``frame_offset`` (address of a stack object) is set.
        """
        if var not in self._aliases:
            frame = self._frame_aliases.get(var)
            return (var, 0, None) if frame is None else (None, 0, frame)
        delta = 0
        seen = set()
        current = var
        while current in self._aliases and current not in seen:
            seen.add(current)
            current, step = self._aliases[current]
            delta += step
        if current in self._frame_aliases:
            return None, delta, self._frame_aliases[current] + delta
        return current, delta, None

    # -- memory access helpers ----------------------------------------------------------------

    def _object_base(self, offset: int) -> Optional[int]:
        """The address-taken object (if any) a direct slot access belongs to."""
        address_taken = self.facts.address_taken
        if not address_taken:
            return None
        candidates = [
            taken for taken in address_taken if taken <= offset < taken + _MAX_OBJECT_EXTENT
        ]
        return max(candidates) if candidates else None

    def _access(self, base_var: int, pointer_lid: int, size_bits: int, offset: int) -> int:
        """``base_var.load.sigmaN@k`` (or ``.store``): one memory access."""
        return self._derive(self._derive(base_var, pointer_lid), self._field(size_bits, offset))

    def load_source(self, memory: Mem, index: int) -> Optional[int]:
        """The derived type variable whose value a memory *read* produces."""
        state = self.states[index]
        offset = frame_offset(memory, state)
        if offset is not None:
            value = self.use_var(offset, index)
            base = self._object_base(offset)
            if base is not None:
                field = self._access(self.object_var(base), self._load, memory.size * 8, offset - base)
                self._sub((field, value))
            return value
        if memory.is_global:
            return self.global_var(memory.base, memory.offset)
        if memory.base is None:
            return None
        pointer = self.use_var(memory.base, index)
        base_var, delta, frame = self._resolve_alias(pointer)
        if frame is not None:
            # Reading through a pointer into our own frame: use the slot value.
            slot = frame + memory.offset
            return self.use_var(slot, index)
        return self._access(base_var, self._load, memory.size * 8, memory.offset + delta)

    def store_target(self, memory: Mem, index: int) -> Optional[int]:
        """The derived type variable a memory *write* flows into."""
        state = self.states[index]
        offset = frame_offset(memory, state)
        if offset is not None:
            target = self.def_var(offset, index)
            base = self._object_base(offset)
            if base is not None:
                field = self._access(self.object_var(base), self._store, memory.size * 8, offset - base)
                self._sub((target, field))
            return target
        if memory.is_global:
            return self.global_var(memory.base, memory.offset)
        if memory.base is None:
            return None
        pointer = self.use_var(memory.base, index)
        base_var, delta, frame = self._resolve_alias(pointer)
        if frame is not None:
            slot = frame + memory.offset
            return self.def_var(slot, index)
        return self._access(base_var, self._store, memory.size * 8, memory.offset + delta)

    # -- main generation loop ------------------------------------------------------------------

    def generate(self) -> ProcedureTypingInput:
        visitors = _VISITORS
        instructions = self.procedure.instructions
        facts = self.facts
        defs = facts.defs
        ends = facts.starts[1:] + [len(instructions)]
        for start, end, entry in zip(facts.starts, ends, facts.entry):
            # Unreachable code sees only entry values: its env stays empty.
            env = self._env = dict(entry) if entry is not None else {}
            for index in range(start, end):
                instruction = instructions[index]
                # Labels, jumps, nop, flag-only compares and leave generate nothing.
                visit = visitors.get(type(instruction))
                if visit is not None:
                    visit(self, index, instruction)
                    if entry is not None:
                        for location in defs[index]:
                            env[location] = index
        labels = self.table.labels
        formal_ins = tuple(
            DerivedTypeVariable(self.name, (labels[self._in_lid(location)],))
            for location in self.interface.input_locations
        )
        formal_outs = (
            (DerivedTypeVariable(self.name, (_OUT_EAX,)),) if self.interface.has_return else ()
        )
        return ProcedureTypingInput(
            name=self.name,
            constraints=self.table.seal(),
            formal_ins=formal_ins,
            formal_outs=formal_outs,
            callsites=tuple(self.callsites),
        )

    # -- individual instruction kinds ----------------------------------------------------------

    def _value_of(self, operand: Operand, index: int) -> Optional[int]:
        kind = type(operand)
        if kind is Reg:
            if operand.name in ("esp", "ebp"):
                return None
            return self.use_var(operand.name, index)
        if kind is Mem:
            return self.load_source(operand, index)
        return None  # immediates carry no type information

    def _visit_mov(self, index: int, instruction: Mov) -> None:
        dst, src = instruction.dst, instruction.src
        if type(dst) is Reg:
            if dst.name in ("esp", "ebp"):
                return
            destination = self.def_var(dst.name, index)
            source = self._value_of(src, index)
            if source is not None:
                self._sub((source, destination))
                # A register copy propagates pointer-offset aliases.
                if type(src) is Reg:
                    base_var, delta, frame = self._resolve_alias(source)
                    if frame is not None:
                        self._frame_aliases[destination] = frame
                    elif delta and base_var is not None:
                        self._aliases[destination] = (base_var, delta)
        elif type(dst) is Mem:
            target = self.store_target(dst, index)
            source = self._value_of(src, index)
            if target is not None and source is not None:
                self._sub((source, target))

    def _visit_lea(self, index: int, instruction: Lea) -> None:
        destination = self.def_var(instruction.dst.name, index)
        offset = frame_offset(instruction.src, self.states[index])
        if offset is not None:
            # The register now holds the address of a stack object.
            self._frame_aliases[destination] = offset
            pointer = self.object_var(offset)
            self._sub((pointer, destination))
            self._sub((destination, pointer))
            return
        if instruction.src.base is not None and instruction.src.base not in ("esp", "ebp"):
            if instruction.src.is_global:
                base = self.global_var(instruction.src.base)
                self._sub((base, destination))
                return
            base = self.use_var(instruction.src.base, index)
            resolved, delta, frame = self._resolve_alias(base)
            if frame is not None:
                self._frame_aliases[destination] = frame + instruction.src.offset
            elif resolved is not None:
                self._aliases[destination] = (resolved, delta + instruction.src.offset)

    def _visit_binop(self, index: int, instruction: BinaryOp) -> None:
        register = instruction.dst.name
        if register in ("esp", "ebp"):
            return
        destination = self.def_var(register, index)
        if is_zeroing_idiom(instruction):
            return  # a semi-syntactic constant (section 2.1)
        source_use = self.use_var(register, index)

        if instruction.op in ("add", "sub") and isinstance(instruction.src, Imm):
            sign = 1 if instruction.op == "add" else -1
            base_var, delta, frame = self._resolve_alias(source_use)
            if frame is not None:
                self._frame_aliases[destination] = frame + sign * instruction.src.value
            elif base_var is not None:
                self._aliases[destination] = (base_var, delta + sign * instruction.src.value)
            return

        if instruction.op in ("add", "sub") and isinstance(instruction.src, Reg):
            other = self.use_var(instruction.src.name, index)
            self.table.additive.add((instruction.op == "add", source_use, other, destination))
            return

        if instruction.op == "and" and isinstance(instruction.src, Imm):
            if instruction.src.value in _BITSTEAL_AND_MASKS:
                self._sub((source_use, destination))
                return
        if instruction.op == "or" and isinstance(instruction.src, Imm):
            if instruction.src.value in _BITSTEAL_OR_MASKS:
                self._sub((source_use, destination))
                return

        # Remaining bit manipulation / multiplication: integral result.
        self._sub((destination, self._var("int")))

    def _visit_push(self, index: int, instruction: Push) -> None:
        state = self.states[index]
        if state.esp is None:
            return
        slot = state.esp - WORD_SIZE
        destination = self.def_var(slot, index)
        source = self._value_of(instruction.src, index)
        if source is not None:
            self._sub((source, destination))

    def _visit_pop(self, index: int, instruction: Pop) -> None:
        if instruction.dst.name in ("esp", "ebp"):
            return
        state = self.states[index]
        if state.esp is None:
            return
        slot = state.esp
        destination = self.def_var(instruction.dst.name, index)
        source = self.use_var(slot, index)
        self._sub((source, destination))

    def _visit_call(self, index: int, instruction: Call) -> None:
        if isinstance(instruction.target, Reg):
            return  # indirect call: no interface information
        callee = instruction.target
        info = self.callees.get(callee)
        if info is None:
            info = CalleeInfo(name=callee, known=False)
        base = f"{callee}${self.name}_{index}"
        base_var = self._var(base)
        state = self.states[index]

        if info.stack_params and state.esp is not None:
            for position in range(info.stack_params):
                slot = state.esp + WORD_SIZE * position
                actual = self.use_var(slot, index)
                formal = self._derive(base_var, self._in_lid(f"stack{WORD_SIZE * position}"))
                self._sub((actual, formal))
        for register in info.register_params:
            actual = self.use_var(register, index)
            self._sub((actual, self._derive(base_var, self._in_lid(register))))
        if info.has_return:
            self._sub((self._derive(base_var, self._out), self.def_var("eax", index)))
        self.callsites.append(Callsite(callee=callee, base=base))

    def _visit_ret(self, index: int, instruction: Ret) -> None:
        if not self.interface.has_return:
            return
        if self._env.get("eax", ENTRY) == ENTRY:
            return
        self._sub((self.use_var("eax", index), self.formal_out()))


_VISITORS = {
    Mov: ProcedureConstraintGenerator._visit_mov,
    Lea: ProcedureConstraintGenerator._visit_lea,
    BinaryOp: ProcedureConstraintGenerator._visit_binop,
    Push: ProcedureConstraintGenerator._visit_push,
    Pop: ProcedureConstraintGenerator._visit_pop,
    Call: ProcedureConstraintGenerator._visit_call,
    Ret: ProcedureConstraintGenerator._visit_ret,
}


def generate_program_constraints(
    program: Program,
    externs: Optional[Mapping[str, ExternSignature]] = None,
    known: Optional[Mapping[str, Formals]] = None,
    sccs: Optional[Sequence[Sequence[str]]] = None,
) -> Dict[str, ProcedureTypingInput]:
    """Generate constraints for a program's procedures (Algorithm F.1's CONSTRAINTS).

    ``known`` names procedures to skip -- those a summary store already
    serves -- mapped to their :class:`Formals`; their callers see them
    through :meth:`CalleeInfo.from_formals`.  The rest are generated SCC by
    SCC, bottom-up, so every callee's interface exists before its callers
    are visited.  Each distinct body is walked once (:func:`analyze_body`):
    procedures whose bodies are the same instruction objects share the
    record, each gets an interface under its own name, and the record is
    dropped once the last of them is generated.  ``sccs`` is the program's bottom-up SCC order when the caller
    already has it (``CallGraph.sccs_bottom_up``).  Returns the generated
    inputs in program order.
    """
    externs = externs if externs is not None else standard_externs()
    known = known or {}
    callees: Dict[str, CalleeInfo] = {
        name: CalleeInfo(
            name=name,
            stack_params=signature.stack_params,
            has_return=signature.has_return,
            known=True,
        )
        for name, signature in externs.items()
        if name not in program.procedures
    }
    if sccs is None:
        sccs = CallGraph.from_program(program).sccs_bottom_up()
    if known:
        # A served procedure matters only as a callee of one generated here.
        called = {
            callee
            for scc in sccs
            for name in scc
            if name not in known
            for callee in program.procedures[name].direct_callees()
        }
        for name in called.intersection(known):
            callees[name] = CalleeInfo.from_formals(name, known[name])
    # Procedures with the same machine code share one body record, kept
    # until the last of them is generated; all bodies share one memo of
    # instruction effects.
    keys = {
        name: body_key(program.procedures[name])
        for scc in sccs
        for name in scc
        if name not in known
    }
    waiting = Counter(keys.values())
    bodies: Dict[Hashable, BodyFacts] = {}
    steps: Dict[Tuple[int, StackState], Step] = {}
    tracer = get_tracer()
    generated: Dict[str, ProcedureTypingInput] = {}
    for scc in sccs:
        interfaces: Dict[str, ProcedureInterface] = {}
        for name in scc:
            if name in known:
                continue
            with tracer.span("typegen.interface", function=name):
                procedure = program.procedures[name]
                facts = bodies.get(keys[name])
                if facts is None:
                    facts = bodies[keys[name]] = analyze_body(procedure, steps)
                interfaces[name] = discover_interface(procedure, facts)
            callees[name] = CalleeInfo.from_interface(interfaces[name])
            checkpoint()
        for name, interface in interfaces.items():
            key = keys[name]
            with tracer.span("typegen.constraints", function=name) as span:
                generator = ProcedureConstraintGenerator(
                    program.procedures[name], interface, callees, bodies[key]
                )
                generated[name] = generator.generate()
                span.set("constraints", len(generated[name].table))
            waiting[key] -= 1
            if not waiting[key]:
                del bodies[key]
            checkpoint()
    return {name: generated[name] for name in program.procedures if name in generated}
