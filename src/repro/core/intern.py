"""Dense-ID tables: per-procedure constraint tables and the per-SCC encoding.

The hot core (constraint generation, shape quotient, constraint graph,
saturation, path simplification, bound derivation) runs over compact
integer IDs instead of interned objects.  This module supplies the tables
that assign those IDs, the conventions every consumer packs them with, and
the only place the canonical order is decided:

* :class:`ConstraintTable` -- one procedure's (or one type scheme's)
  constraints.  Constraint generation writes straight into it: each distinct
  variable once, as its canonical string, its prefix's id and its last
  label's id; subtype constraints as int pairs and additive constraints as
  id tuples, deduplicated in sets.  :meth:`ConstraintTable.seal` then keeps
  the mentioned variables and their prefixes, renumbers them in
  sorted-by-``str`` order and sorts the constraints.  A hand-built
  :class:`~repro.core.constraints.ConstraintSet` is encoded through the same
  builder (:meth:`ConstraintTable.from_constraints`);
* :class:`SccEncoding` -- one SCC's constraints: the member tables merged
  with the instantiated callee schemes (a scheme is encoded once; an
  instantiation renames bases in that table).  A singleton SCC without
  callsite schemes adopts its procedure's sealed table as is.

Three ID spaces exist per solve:

* **dtv ids** (``did``): one per derived type variable mentioned in the
  constraints, plus every prefix, in sorted-by-``str`` order -- so IDs are a
  pure function of the constraint set and never depend on the per-process
  string hash seed.  Downstream stages read a variable's string, base name
  and constant flag by id; :class:`~repro.core.variables.
  DerivedTypeVariable` objects are materialized only at the object API
  (:meth:`SccEncoding.dtv`);
* **node ids** (``nid``): ``did * 2 + variance_bit`` with ``0`` for covariant
  and ``1`` for contravariant; a node's variance twin is ``nid ^ 1``;
* **label ids** (``lid``): one per distinct field label, in order of first
  appearance as a last label along the dtv order.  Because ``0`` is a useful
  sentinel for "no label", edge records and packed stacks carry
  ``lidp = lid + 1``.

The canonical order of subtype constraints is the ``str`` order of
``"left <= right"``.  With dtv ids already in ``str`` order it equals the
order of ``(left_did, right_did)`` whenever no variable's string contains a
character at or below the space (the separator's first character), which
:func:`_canonical_pairs` checks before sorting packed ints instead of
strings.

Pending-label stacks (the ``beta`` of the path bookkeeping) pack into a
single int base ``len(labels) + 1``: the top of the stack lives in the least
significant digit, so ``push`` is ``beta * base + lidp``, ``pop`` is
``divmod(beta, base)``, and decoding by repeated ``divmod`` yields the labels
top-first -- exactly the ``reversed(beta)`` order the right-hand side of a
read-off judgement needs.  Alpha suffixes pack the same way with the *first*
appended label least significant, making prepend ``lidp + suffix * base``.

:class:`InternPool` is deliberately tiny: an ordered list plus a reverse
dict, with the internals (`items`, `ids`) exposed so hot loops can bind the
dict's ``get`` / the list's indexing once instead of paying a method call per
event.  :class:`StringTable` is the same structure specialized for the
process-pool codec's per-task string-intern tables.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from .constraints import AddConstraint, ConstraintSet, SubConstraint, SubtypeConstraint
from .variables import DerivedTypeVariable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .labels import Label
    from .lattice import TypeLattice

T = TypeVar("T")

#: an additive constraint ``(is_add, left, right, result)`` over ids.
Additive = Tuple[bool, int, int, int]


class InternPool(Generic[T]):
    """An insertion-ordered pool mapping hashable items to dense ints."""

    __slots__ = ("items", "ids")

    def __init__(self, items: Iterable[T] = ()) -> None:
        #: id -> item, in insertion order (the decode direction).
        self.items: List[T] = list(items)
        #: item -> id (the encode direction).
        self.ids: Dict[T, int] = dict(zip(self.items, range(len(self.items))))

    def intern(self, item: T) -> int:
        """Return the item's id, assigning the next dense id if it is new."""
        ident = self.ids.get(item)
        if ident is None:
            ident = len(self.items)
            self.ids[item] = ident
            self.items.append(item)
        return ident

    def get(self, item: T) -> Optional[int]:
        """The item's id, or ``None`` if it was never interned."""
        return self.ids.get(item)

    def __getitem__(self, ident: int) -> T:
        return self.items[ident]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[T]:
        return iter(self.items)

    def __contains__(self, item: T) -> bool:
        return item in self.ids


class StringTable(InternPool[str]):
    """A string-intern table for compact codecs (one per procpool task).

    Encoders call :meth:`intern` for every string occurrence and ship
    ``items`` once; decoders index into the shipped list, parsing each
    distinct string at most once no matter how many flat-array slots
    reference it.
    """

    __slots__ = ()

    def to_list(self) -> List[str]:
        """The table payload to ship (the id -> string list itself)."""
        return self.items


_NOT_PLAIN = re.compile(r"[\x00- ]")


def _plain(names: Sequence[str]) -> bool:
    """Does no name contain a character at or below the space?"""
    return _NOT_PLAIN.search("".join(names)) is None


def _canonical_pairs(pairs: Iterable[Tuple[int, int]], names: Sequence[str]) -> List[Tuple[int, int]]:
    """Distinct subtype pairs over ids in ``str`` order of ``"left <= right"``.

    ``names`` are the ids' strings, already sorted; see the module docstring
    for why sorting ``(left, right)`` is the same order for plain names.
    """
    count = len(names)
    if _plain(names):
        return [divmod(key, count) for key in sorted({left * count + right for left, right in pairs})]
    return sorted(set(pairs), key=lambda pair: names[pair[0]] + " <= " + names[pair[1]])


def _canonical_additive(additive: Iterable[Additive], names: Sequence[str]) -> List[Additive]:
    """Distinct additive constraints in ``str`` order of ``Add(l, r; z)``."""
    return sorted(
        set(additive),
        key=lambda entry: ("Add(" if entry[0] else "Sub(")
        + names[entry[1]]
        + ", "
        + names[entry[2]]
        + "; "
        + names[entry[3]]
        + ")",
    )


def _base_names(names: Sequence[str], prefix: Sequence[int]) -> List[str]:
    """Per id: the base variable's name (every prefix id precedes its children)."""
    out: List[str] = []
    for name, parent in zip(names, prefix):
        out.append(name if parent < 0 else out[parent])
    return out


class ConstraintTable:
    """One procedure's constraints over dense local variable ids.

    Built in two phases.  While building, :meth:`var` and :meth:`derive`
    intern variables by canonical string (a base name, or a prefix's string
    ``+ "." +`` a label's), :meth:`label` interns labels, and constraints go
    into the ``subtype`` / ``additive`` sets as id tuples.  :meth:`seal`
    then keeps only the variables the constraints mention, their prefixes
    and any ``keep`` ids, renumbers them in sorted-by-``str`` order (label
    ids in order of first appearance as a last label along it), and turns
    both constraint sets into canonically sorted lists -- the layout
    :class:`SccEncoding` reads.  A sealed table is never mutated again, so
    encodings, type inputs and the procpool codec share it freely.
    """

    __slots__ = (
        "names",
        "prefix",
        "last_label",
        "labels",
        "label_names",
        "subtype",
        "additive",
        "_ids",
        "_label_ids",
    )

    def __init__(self) -> None:
        #: per id: the variable's canonical string.
        self.names: List[str] = []
        #: per id: the prefix's id, or -1 for a base variable.
        self.prefix: List[int] = []
        #: per id: the last label's id, or -1 for a base variable.
        self.last_label: List[int] = []
        #: per label id: the label, and its string.
        self.labels: List["Label"] = []
        self.label_names: List[str] = []
        #: ``(left, right)`` pairs: a set while building, sorted once sealed.
        self.subtype: Union[Set[Tuple[int, int]], List[Tuple[int, int]]] = set()
        #: ``(is_add, left, right, result)``: a set while building, sorted once sealed.
        self.additive: Union[Set[Additive], List[Additive]] = set()
        self._ids: Optional[Dict[str, int]] = {}
        self._label_ids: Optional[Dict["Label", int]] = {}

    # -- building ----------------------------------------------------------------

    def var(self, name: str) -> int:
        """The id of base variable ``name``, assigning one if it is new."""
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            self.prefix.append(-1)
            self.last_label.append(-1)
        return ident

    def label(self, label: "Label") -> int:
        """The id of ``label``, assigning one if it is new."""
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.label_names.append(str(label))
        return lid

    def derive(self, did: int, lid: int) -> int:
        """The id of variable ``did`` extended by label ``lid``."""
        name = self.names[did] + "." + self.label_names[lid]
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            self.prefix.append(did)
            self.last_label.append(lid)
        return ident

    def seal(self, keep: Iterable[int] = ()) -> "ConstraintTable":
        """Drop unmentioned variables and put everything in canonical order."""
        subtype = self.subtype
        additive = self.additive
        used = set(chain.from_iterable(subtype))
        for _, left, right, result in additive:
            used.add(left)
            used.add(right)
            used.add(result)
        used.update(keep)
        prefix = self.prefix
        for ident in list(used):
            parent = prefix[ident]
            while parent >= 0 and parent not in used:
                used.add(parent)
                parent = prefix[parent]
        names = self.names
        order = sorted(used, key=names.__getitem__)
        remap = dict(zip(order, range(len(order))))
        remap[-1] = -1
        labels = self.labels
        label_names = self.label_names
        last_label = self.last_label
        relabel: Dict[int, int] = {}
        new_labels: List["Label"] = []
        new_label_names: List[str] = []
        new_last: List[int] = []
        for ident in order:
            lid = last_label[ident]
            if lid >= 0:
                new = relabel.get(lid)
                if new is None:
                    new = relabel[lid] = len(new_labels)
                    new_labels.append(labels[lid])
                    new_label_names.append(label_names[lid])
                lid = new
            new_last.append(lid)
        self.names = [names[ident] for ident in order]
        self.prefix = [remap[prefix[ident]] for ident in order]
        self.last_label = new_last
        self.labels = new_labels
        self.label_names = new_label_names
        self.subtype = _canonical_pairs(
            [(remap[left], remap[right]) for left, right in subtype], self.names
        )
        self.additive = _canonical_additive(
            [
                (is_add, remap[left], remap[right], remap[result])
                for is_add, left, right, result in additive
            ],
            self.names,
        )
        self._ids = self._label_ids = None
        return self

    @classmethod
    def from_arrays(
        cls,
        names: List[str],
        prefix: List[int],
        last_label: List[int],
        labels: List["Label"],
        subtype: List[Tuple[int, int]],
        additive: List[Additive],
    ) -> "ConstraintTable":
        """Rebuild a sealed table from its arrays (the procpool codec's decode)."""
        table = cls()
        table.names = names
        table.prefix = prefix
        table.last_label = last_label
        table.labels = labels
        table.label_names = [str(label) for label in labels]
        table.subtype = subtype
        table.additive = additive
        table._ids = table._label_ids = None
        return table

    @classmethod
    def from_constraints(
        cls,
        constraints: ConstraintSet,
        keep: Iterable[DerivedTypeVariable] = (),
    ) -> "ConstraintTable":
        """Encode a constraint set (plus the ``keep`` variables) as a sealed table."""
        table = cls()
        ids: Dict[DerivedTypeVariable, int] = {}

        def intern(dtv: DerivedTypeVariable) -> int:
            ident = ids.get(dtv)
            if ident is None:
                if dtv.labels:
                    ident = table.derive(intern(dtv.prefix), table.label(dtv.labels[-1]))
                else:
                    ident = table.var(dtv.base)
                ids[dtv] = ident
            return ident

        table.subtype.update(
            (intern(c.left), intern(c.right)) for c in constraints.subtype
        )
        table.additive.update(
            (isinstance(c, AddConstraint), intern(c.left), intern(c.right), intern(c.result))
            for c in constraints.additive
        )
        return table.seal([intern(dtv) for dtv in keep])

    # -- reading -------------------------------------------------------------------

    def __len__(self) -> int:
        """Distinct subtype constraints."""
        return len(self.subtype)

    def renamed_names(self, renames: Mapping[str, str]) -> List[str]:
        """The variables' strings with base names replaced per ``renames``."""
        out: List[str] = []
        for name, base in zip(self.names, _base_names(self.names, self.prefix)):
            new = renames.get(base)
            out.append(name if new is None else new + name[len(base):])
        return out

    def variables(self) -> List[DerivedTypeVariable]:
        """Every variable, materialized (the decode direction)."""
        out: List[DerivedTypeVariable] = []
        labels = self.labels
        for name, parent, lid in zip(self.names, self.prefix, self.last_label):
            out.append(
                DerivedTypeVariable(name) if parent < 0 else out[parent].with_label(labels[lid])
            )
        return out

    def to_constraints(self) -> ConstraintSet:
        """Decode into a :class:`ConstraintSet`."""
        dtvs = self.variables()
        return ConstraintSet(
            {SubtypeConstraint(dtvs[left], dtvs[right]) for left, right in self.subtype},
            {
                (AddConstraint if is_add else SubConstraint)(
                    dtvs[left], dtvs[right], dtvs[result]
                )
                for is_add, left, right, result in self.additive
            },
        )


class TableConstraints(ConstraintSet):
    """A read-only :class:`ConstraintSet` view of a sealed table.

    ``len`` is the table's (distinct subtype constraints) and costs nothing;
    anything else decodes the table once.
    """

    def __init__(self, table: ConstraintTable) -> None:
        # No ConstraintSet.__init__: the sets are the decoded table's.
        self._table = table
        self._decoded: Optional[ConstraintSet] = None

    def _decode(self) -> ConstraintSet:
        decoded = self._decoded
        if decoded is None:
            decoded = self._decoded = self._table.to_constraints()
        return decoded

    @property
    def subtype(self):  # type: ignore[override]
        return self._decode().subtype

    @property
    def additive(self):  # type: ignore[override]
        return self._decode().additive

    def __len__(self) -> int:
        return len(self._table)


#: one part of an SCC: a sealed table, optionally with base renames.
Part = Union[ConstraintTable, Tuple[ConstraintTable, Optional[Mapping[str, str]]]]


class SccEncoding:
    """One SCC's constraints in dense integer form, shared by shapes and graph.

    Built by merging sealed :class:`ConstraintTable` parts -- the member
    procedures' tables and the callsite scheme instantiations, each a
    ``(table, renames)`` pair -- into one id space: the union of the parts'
    variable strings sorted by ``str``, the constraints mapped through it,
    deduplicated and put in canonical order.  A single part without renames
    is adopted as is.  Unions, cell creation, edge insertion, saturation and
    bound application all follow these orders, so everything downstream --
    ``τN`` and ``struct_N`` numbering included -- is a pure function of the
    constraint set.  Per dtv id the encoding records the variable's string,
    the prefix's id (``-1`` for a base variable), the last label's id
    (``-1`` for a base) and, when built with a lattice, whether it is a type
    constant.

    An encoding lives for one solve: :func:`~repro.core.shapes.infer_shapes`
    builds it, the :class:`~repro.core.graph.ConstraintGraph` adopts its
    tables, and the solver releases it once bounds are applied.
    """

    __slots__ = (
        "names",
        "labels",
        "prefix",
        "last_lid",
        "constant",
        "subtype",
        "additive",
        "_dtvs",
        "_ids",
    )

    def __init__(self, parts: Sequence[Part], lattice: Optional["TypeLattice"] = None) -> None:
        parts = [part if isinstance(part, tuple) else (part, None) for part in parts]
        if len(parts) == 1 and not parts[0][1]:
            table = parts[0][0]
            names = table.names
            prefix = table.prefix
            last_lid = table.last_label
            labels = table.labels
            subtype = table.subtype
            additive = table.additive
        else:
            part_names = [
                table.renamed_names(renames) if renames else table.names
                for table, renames in parts
            ]
            names = sorted(set(chain.from_iterable(part_names)))
            ids = dict(zip(names, range(len(names))))
            prefix = [-1] * len(names)
            label_text: List[Optional[str]] = [None] * len(names)
            label_of: Dict[str, "Label"] = {}
            pairs: Set[Tuple[int, int]] = set()
            additive_set: Set[Additive] = set()
            for (table, _), local_names in zip(parts, part_names):
                to_global = [ids[name] for name in local_names]
                table_label_names = table.label_names
                for local, parent in enumerate(table.prefix):
                    if parent >= 0:
                        ident = to_global[local]
                        prefix[ident] = to_global[parent]
                        label_text[ident] = table_label_names[table.last_label[local]]
                label_of.update(zip(table_label_names, table.labels))
                pairs.update([(to_global[left], to_global[right]) for left, right in table.subtype])
                additive_set.update(
                    (is_add, to_global[left], to_global[right], to_global[result])
                    for is_add, left, right, result in table.additive
                )
            label_ids: Dict[str, int] = {}
            labels = []
            last_lid = []
            for text in label_text:
                if text is None:
                    last_lid.append(-1)
                    continue
                lid = label_ids.get(text)
                if lid is None:
                    lid = label_ids[text] = len(labels)
                    labels.append(label_of[text])
                last_lid.append(lid)
            subtype = _canonical_pairs(pairs, names)
            additive = _canonical_additive(additive_set, names)

        #: per dtv id: the variable's string, in sorted order.
        self.names: List[str] = names
        #: label id <-> label, in order of first appearance as a last label.
        self.labels: InternPool["Label"] = InternPool(labels)
        #: per dtv id: the prefix's id, or -1 for a base variable.
        self.prefix: List[int] = prefix
        #: per dtv id: the last label's id, or -1 for a base variable.
        self.last_lid: List[int] = last_lid
        #: per dtv id: is it a type constant?  (``None`` without a lattice.)
        self.constant: Optional[List[bool]] = None
        if lattice is not None:
            is_constant = lattice.is_constant
            self.constant = [
                parent < 0 and is_constant(name) for name, parent in zip(names, prefix)
            ]
        #: subtype constraints ``left <= right`` as ``(left_did, right_did)``,
        #: in ``str`` order.
        self.subtype: List[Tuple[int, int]] = subtype
        #: additive constraints as ``(is_add, left_did, right_did, result_did)``.
        self.additive: List[Additive] = additive
        self._dtvs: Optional[List[Optional[DerivedTypeVariable]]] = None
        self._ids: Optional[Dict[str, int]] = None

    @classmethod
    def from_constraints(
        cls,
        constraints: ConstraintSet,
        lattice: Optional["TypeLattice"] = None,
        extra_dtvs: Iterable[DerivedTypeVariable] = (),
    ) -> "SccEncoding":
        """Encode one constraint set (plus ``extra_dtvs``) through its table."""
        return cls([ConstraintTable.from_constraints(constraints, extra_dtvs)], lattice)

    # -- the object API ----------------------------------------------------------

    def bases(self) -> List[str]:
        """Per dtv id: its base variable's name."""
        return _base_names(self.names, self.prefix)

    def dtv(self, did: int) -> DerivedTypeVariable:
        """The variable with id ``did``, materialized once."""
        dtvs = self._dtvs
        if dtvs is None:
            dtvs = self._dtvs = [None] * len(self.names)
        dtv = dtvs[did]
        if dtv is None:
            parent = self.prefix[did]
            if parent < 0:
                dtv = DerivedTypeVariable(self.names[did])
            else:
                dtv = self.dtv(parent).with_label(self.labels.items[self.last_lid[did]])
            dtvs[did] = dtv
        return dtv

    def did(self, dtv: DerivedTypeVariable) -> Optional[int]:
        """The id of ``dtv``, or ``None`` if the constraints never mention it."""
        ids = self._ids
        if ids is None:
            ids = self._ids = dict(zip(self.names, range(len(self.names))))
        return ids.get(str(dtv))
