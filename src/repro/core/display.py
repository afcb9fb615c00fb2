"""Conversion of sketches to C types for display (section 4.3, Appendix G).

The type-inference core works with sketches; only at the very end are sketches
"downgraded" to C types for the reverse engineer.  The policies implemented
here follow the paper:

* **scalars** -- a leaf node displays the join of its lower bounds on covariant
  paths and the meet of its upper bounds on contravariant paths; incomparable
  bounds become a union type built from the lattice antichain (Example 4.2);
* **pointers** -- a node with ``.load``/``.store`` capabilities becomes a
  pointer to the type of the loaded/stored node; if only ``.load`` is present
  the pointer is ``const`` (Example 4.1 / section 6.4);
* **structs** -- a node with ``sigmaN@k`` capabilities becomes a struct with a
  field per offset; recursive sketches produce named, self-referential structs
  (re-rolling, Example G.3);
* **functions** -- nodes with ``in``/``out`` capabilities become function
  pointers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .ctype import (
    BoolType,
    CType,
    CodeType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructField,
    StructRef,
    StructType,
    TypedefType,
    UnionType,
    UnknownType,
    VoidType,
)
from .labels import FieldLabel, InLabel, Label, LoadLabel, OutLabel, StoreLabel, Variance
from .lattice import BOTTOM, TOP, TypeLattice
from .sketches import Sketch


#: Lattice atoms that map directly onto C scalar types.
_ATOM_TYPES: Dict[str, CType] = {
    "int": IntType(32, True),
    "uint": IntType(32, False),
    "int64": IntType(64, True),
    "uint64": IntType(64, False),
    "int16": IntType(16, True),
    "uint16": IntType(16, False),
    "int8": IntType(8, True),
    "uint8": IntType(8, False),
    "char": IntType(8, True),
    "bool": BoolType(),
    "float": FloatType(32),
    "double": FloatType(64),
    "num64": IntType(64, True),
    "num32": IntType(32, True),
    "num16": IntType(16, True),
    "num8": IntType(8, True),
    "code": CodeType(),
    "ptr": PointerType(UnknownType()),
    "str": PointerType(IntType(8, True)),
    "size_t": TypedefType("size_t", IntType(32, False)),
    "ssize_t": TypedefType("ssize_t", IntType(32, True)),
    "FILE": TypedefType("FILE", UnknownType(32)),
    "HANDLE": TypedefType("HANDLE", PointerType(VoidType())),
    "SOCKET": TypedefType("SOCKET", IntType(32, False)),
    "WPARAM": TypedefType("WPARAM", IntType(32, False)),
    "LPARAM": TypedefType("LPARAM", IntType(32, True)),
    "DWORD": TypedefType("DWORD", IntType(32, False)),
    "url": TypedefType("url", PointerType(IntType(8, True))),
}

#: the sized integers shown for an otherwise-unconstrained machine word.
_DEFAULT_INTS: Dict[int, CType] = {size: IntType(size, True) for size in (8, 16, 32, 64)}


@dataclass
class DisplayRecord:
    """What one stretch of conversions read from and wrote to a
    :class:`TypeDisplay`'s struct state (see :meth:`TypeDisplay.replay`).

    ``events`` holds, in order, ``(signature, answer, None)`` for every
    re-rolling lookup (``answer`` is the struct name found, or None) and
    ``(signature, name, struct)`` for every struct defined.
    """

    start: int
    end: int = 0
    events: Sequence[Tuple[Tuple, Optional[str], Optional[StructType]]] = ()


class TypeDisplay:
    """Stateful sketch-to-C-type converter (keeps a table of named structs).

    Struct names come from a program-wide counter and re-rolling looks up
    earlier structs, so a conversion's output depends on what was converted
    before it.  Between :meth:`start_recording` and :meth:`stop_recording`
    the converter notes that dependence; :meth:`replay` later re-applies a
    recorded stretch without converting, when the state it read is unchanged.
    """

    def __init__(self, lattice: TypeLattice, pointer_size: int = 32) -> None:
        self.lattice = lattice
        self.pointer_size = pointer_size
        self.structs: Dict[str, StructType] = {}
        self._next_struct = 0
        self._signature_names: Dict[Tuple, str] = {}
        self._record: Optional[DisplayRecord] = None

    # -- public API ----------------------------------------------------------------

    def ctype_of_sketch(
        self,
        sketch: Sketch,
        variance: Variance = Variance.COVARIANT,
        default_size: int = 32,
    ) -> CType:
        """Convert a whole sketch (from its root) to a C type."""
        return self._convert(sketch, sketch.root, variance, {}, default_size)

    def struct_definitions(self) -> Dict[str, StructType]:
        """All named structs synthesized so far (for pretty-printing)."""
        return dict(self.structs)

    # -- record and replay -------------------------------------------------------------

    def start_recording(self) -> None:
        self._record = DisplayRecord(self._next_struct, events=[])

    def stop_recording(self) -> DisplayRecord:
        record, self._record = self._record, None
        record.end = self._next_struct
        record.events = tuple(record.events)
        return record

    def replay(self, record: DisplayRecord) -> bool:
        """Apply a recorded stretch's effects if it would convert identically.

        It does when the struct counter stands where it did and every
        re-rolling lookup gets the answer it got then; the structs it
        defined, their signatures and the counter advance are then applied
        as recorded.  Returns False, changing nothing, otherwise.
        """
        if record.start != self._next_struct:
            return False
        defined: Dict[Tuple, str] = {}
        for signature, name, struct in record.events:
            if struct is not None:
                defined[signature] = name
            elif defined.get(signature, self._signature_names.get(signature)) != name:
                return False
        for signature, name, struct in record.events:
            if struct is not None:
                self.structs[name] = struct
                self._signature_names[signature] = name
        self._next_struct = record.end
        return True

    # -- scalar conversion ------------------------------------------------------------

    def scalar_from_bounds(
        self, lower: str, upper: str, variance: Variance, default_size: int = 32
    ) -> CType:
        """Pick a display type for a node with no capabilities."""
        preferred, fallback = (
            (lower, upper) if variance is Variance.COVARIANT else (upper, lower)
        )
        for bound in (preferred, fallback):
            if bound in (TOP, BOTTOM):
                continue
            return self.atom_to_ctype(bound, default_size)
        # No lattice evidence at all: fall back to a sized integer, the default
        # every deployed tool uses for an otherwise-unconstrained machine word.
        default = _DEFAULT_INTS.get(default_size)
        return default if default is not None else UnknownType(default_size)

    def atom_to_ctype(self, atom: str, default_size: int = 32) -> CType:
        if atom in _ATOM_TYPES:
            return _ATOM_TYPES[atom]
        if atom.startswith("#"):
            return TypedefType(atom, IntType(default_size, True))
        if atom in self.lattice:
            return TypedefType(atom, IntType(default_size, True))
        return UnknownType(default_size)

    def union_of_atoms(self, atoms: Sequence[str], default_size: int = 32) -> CType:
        """Union policy (Example 4.2): incomparable atoms become a C union."""
        antichain = self.lattice.antichain(atoms)
        members = tuple(self.atom_to_ctype(atom, default_size) for atom in antichain)
        if not members:
            return UnknownType(default_size)
        if len(members) == 1:
            return members[0]
        return UnionType(members)

    # -- structural conversion -----------------------------------------------------------

    def _convert(
        self,
        sketch: Sketch,
        node: int,
        variance: Variance,
        in_progress: Dict[int, str],
        default_size: int,
    ) -> CType:
        if node in in_progress:
            return StructRef(in_progress[node])

        successors = sketch.successors(node)
        field_children = {
            label: target
            for label, target in successors.items()
            if isinstance(label, FieldLabel)
        }
        load_child = next(
            (t for lab, t in successors.items() if isinstance(lab, LoadLabel)), None
        )
        store_child = next(
            (t for lab, t in successors.items() if isinstance(lab, StoreLabel)), None
        )
        in_children = {
            label: target
            for label, target in successors.items()
            if isinstance(label, InLabel)
        }
        out_children = {
            label: target
            for label, target in successors.items()
            if isinstance(label, OutLabel)
        }

        data = sketch.node(node)

        if field_children:
            return self._struct_from_fields(
                sketch, node, field_children, variance, in_progress, default_size
            )

        if load_child is not None or store_child is not None:
            pointee_node = load_child if load_child is not None else store_child
            pointee_variance = variance if load_child is not None else variance.flip()
            pointee = self._convert(
                sketch, pointee_node, pointee_variance, in_progress, default_size
            )
            const = load_child is not None and store_child is None
            return PointerType(pointee, const=const, size_bits=self.pointer_size)

        if in_children or out_children:
            params = []
            for label in sorted(in_children, key=_in_sort_key):
                params.append(
                    self._convert(
                        sketch,
                        in_children[label],
                        variance.flip(),
                        in_progress,
                        default_size,
                    )
                )
            if out_children:
                out_label = sorted(out_children, key=str)[0]
                ret = self._convert(
                    sketch, out_children[out_label], variance, in_progress, default_size
                )
            else:
                ret = VoidType()
            return FunctionType(tuple(params), ret)

        return self.scalar_from_bounds(data.lower, data.upper, variance, default_size)

    def _struct_from_fields(
        self,
        sketch: Sketch,
        node: int,
        field_children: Dict[Label, int],
        variance: Variance,
        in_progress: Dict[int, str],
        default_size: int,
    ) -> CType:
        offsets = sorted({label.offset for label in field_children})
        # Single field at offset zero degenerates to the field type itself
        # (a pointer to the first member is indistinguishable from a pointer to
        # the struct, section 2.4) -- unless the node is recursive.
        name = f"struct_{self._next_struct}"
        self._next_struct += 1
        in_progress = dict(in_progress)
        in_progress[node] = name

        fields: List[StructField] = []
        for label in sorted(field_children, key=lambda lab: (lab.offset, lab.size_bits)):
            child = field_children[label]
            ctype = self._convert(
                sketch, child, variance, in_progress, label.size_bits
            )
            fields.append(StructField(label.offset, ctype, f"field_{label.offset}"))

        recursive = any(
            isinstance(f.ctype, PointerType) and isinstance(f.ctype.pointee, StructRef)
            and f.ctype.pointee.name == name
            for f in fields
        ) or any(isinstance(f.ctype, StructRef) and f.ctype.name == name for f in fields)

        if len(fields) == 1 and fields[0].offset == 0 and not recursive:
            return fields[0].ctype

        # Re-rolling (Example G.3): identical field signatures reuse one name.
        signature = tuple((f.offset, str(f.ctype)) for f in fields)
        if not recursive:
            known = self._signature_names.get(signature)
            if self._record is not None:
                self._record.events.append((signature, known, None))
            if known is not None:
                return StructRef(known)

        struct = StructType(name, tuple(fields))
        self.structs[name] = struct
        self._signature_names[signature] = name
        if self._record is not None:
            self._record.events.append((signature, name, struct))
        return struct

    # -- function signatures ------------------------------------------------------------

    def function_type(
        self,
        in_sketches: Sequence[Tuple[str, Sketch]],
        out_sketches: Sequence[Tuple[str, Sketch]],
    ) -> Tuple[FunctionType, List[str]]:
        """Build a function type from per-formal sketches.

        ``in_sketches`` / ``out_sketches`` are sequences of (location, sketch)
        pairs; locations are used to order parameters and to name them.
        Returns the function type and the parameter names.
        """
        params: List[CType] = []
        names: List[str] = []
        for location, sketch in sorted(in_sketches, key=lambda kv: location_sort_key(kv[0])):
            params.append(self.ctype_of_sketch(sketch, Variance.CONTRAVARIANT))
            names.append(sys.intern(f"arg_{location}"))  # a few distinct names
        if out_sketches:
            ret = self.ctype_of_sketch(out_sketches[0][1], Variance.COVARIANT)
        else:
            ret = VoidType()
        return FunctionType(tuple(params), ret), names


def _in_sort_key(label: InLabel) -> Tuple[int, str]:
    return location_sort_key(label.location)


def location_sort_key(location: str) -> Tuple[int, str]:
    """Parameter display order: stack slots numerically first, then registers."""
    if location.startswith("stack"):
        try:
            return (0, f"{int(location[5:]):08d}")
        except ValueError:
            return (0, location)
    return (1, location)
