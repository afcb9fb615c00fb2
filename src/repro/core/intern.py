"""Dense-ID intern pools and the per-SCC integer encoding of a constraint set.

The hot core (shape quotient, constraint graph, saturation, path
simplification, bound derivation) runs over compact integer IDs instead of
interned objects; this module supplies the pools that assign those IDs, the
conventions every consumer packs them with, and :class:`SccEncoding` -- the
one place a constraint set is turned into ints.  Three ID spaces exist per
solve:

* **dtv ids** (``did``): one per :class:`~repro.core.variables.
  DerivedTypeVariable` mentioned in the constraint set, plus every prefix,
  assigned in sorted-by-``str`` order by :class:`SccEncoding` -- the only
  place the canonical sort happens -- so IDs are a pure function of the
  constraint set and never depend on the per-process string hash seed;
* **node ids** (``nid``): ``did * 2 + variance_bit`` with ``0`` for covariant
  and ``1`` for contravariant; a node's variance twin is ``nid ^ 1``;
* **label ids** (``lid``): one per distinct field label, in order of first
  appearance as a last label along the dtv order.  Because ``0`` is a useful
  sentinel for "no label", edge records and packed stacks carry
  ``lidp = lid + 1``.

Pending-label stacks (the ``beta`` of the path bookkeeping) pack into a
single int base ``len(labels) + 1``: the top of the stack lives in the least
significant digit, so ``push`` is ``beta * base + lidp``, ``pop`` is
``divmod(beta, base)``, and decoding by repeated ``divmod`` yields the labels
top-first -- exactly the ``reversed(beta)`` order the right-hand side of a
read-off judgement needs.  Alpha suffixes pack the same way with the *first*
appended label least significant, making prepend ``lidp + suffix * base``.

The pools themselves are deliberately tiny: an ordered list plus a reverse
dict, with the internals (`items`, `ids`) exposed so hot loops can bind the
dict's ``get`` / the list's indexing once instead of paying a method call per
event.  :class:`StringTable` is the same structure specialized for the
process-pool codec's per-task string-intern tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from .constraints import AddConstraint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .constraints import ConstraintSet
    from .labels import Label
    from .lattice import TypeLattice
    from .variables import DerivedTypeVariable

T = TypeVar("T")


class InternPool(Generic[T]):
    """An insertion-ordered pool mapping hashable items to dense ints."""

    __slots__ = ("items", "ids")

    def __init__(self) -> None:
        #: id -> item, in insertion order (the decode direction).
        self.items: List[T] = []
        #: item -> id (the encode direction).
        self.ids: Dict[T, int] = {}

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


class SccEncoding:
    """One constraint set in dense integer form, shared by shapes and graph.

    This is the only place the canonical order is established: the subtype
    and additive constraints are sorted by ``str`` once, and every derived
    type variable (mentioned or a prefix of one) gets its dtv id in
    sorted-by-``str`` order.  Unions, cell creation, edge insertion,
    saturation and bound application all follow these orders, so everything
    downstream -- ``τN`` and ``struct_N`` numbering included -- is a pure
    function of the constraint set.  Per dtv id the encoding records the
    prefix's id (``-1`` for a base variable), the last label's id (``-1``
    for a base) and, when built with a lattice, whether it is a type
    constant.

    An encoding lives for one solve: :func:`~repro.core.shapes.infer_shapes`
    builds it, the :class:`~repro.core.graph.ConstraintGraph` adopts its
    pools, and the solver releases it once bounds are applied.
    """

    __slots__ = ("dtvs", "labels", "prefix", "last_lid", "constant", "subtype", "additive")

    def __init__(
        self,
        constraints: "ConstraintSet",
        lattice: Optional["TypeLattice"] = None,
        extra_dtvs: Iterable["DerivedTypeVariable"] = (),
    ) -> None:
        mentioned = set(extra_dtvs)
        for constraint in constraints.subtype:
            mentioned.add(constraint.left)
            mentioned.add(constraint.right)
        for constraint in constraints.additive:
            mentioned.add(constraint.left)
            mentioned.add(constraint.right)
            mentioned.add(constraint.result)
        # Close under prefixes (T-PREFIX), computing each prefix once.
        prefix_of: Dict["DerivedTypeVariable", "DerivedTypeVariable"] = {}
        closed = set(mentioned)
        for dtv in mentioned:
            while dtv.labels and dtv not in prefix_of:
                parent = dtv.prefix
                prefix_of[dtv] = parent
                closed.add(parent)
                dtv = parent

        #: dtv id <-> variable, in sorted-by-``str`` order.
        self.dtvs: InternPool["DerivedTypeVariable"] = InternPool()
        #: label id <-> label, in order of first appearance as a last label.
        self.labels: InternPool["Label"] = InternPool()
        #: per dtv id: the prefix's id, or -1 for a base variable.
        self.prefix: List[int] = []
        #: per dtv id: the last label's id, or -1 for a base variable.
        self.last_lid: List[int] = []
        keyed = sorted([(str(dtv), dtv) for dtv in closed])
        names = [name for name, _ in keyed]
        items = self.dtvs.items
        items.extend([dtv for _, dtv in keyed])
        ids = self.dtvs.ids
        ids.update(zip(items, range(len(items))))
        label_ids = self.labels.ids
        labels = self.labels.items
        prefix = self.prefix
        last_lid = self.last_lid
        for dtv in items:
            parent = prefix_of.get(dtv)
            if parent is None:
                prefix.append(-1)
                last_lid.append(-1)
                continue
            prefix.append(ids[parent])
            label = dtv.labels[-1]
            lid = label_ids.get(label)
            if lid is None:
                lid = label_ids[label] = len(labels)
                labels.append(label)
            last_lid.append(lid)
        #: per dtv id: is it a type constant?  (``None`` without a lattice.)
        self.constant: Optional[List[bool]] = None
        if lattice is not None:
            is_constant = lattice.is_constant
            self.constant = [
                p < 0 and is_constant(dtv.base) for p, dtv in zip(prefix, items)
            ]
        #: subtype constraints ``left <= right`` as ``(left_did, right_did)``,
        #: sorted by ``str`` (spelled from the variables' strings).
        keyed_pairs = sorted(
            [
                (names[ids[c.left]] + " <= " + names[ids[c.right]], ids[c.left], ids[c.right])
                for c in constraints.subtype
            ]
        )
        self.subtype: List[Tuple[int, int]] = [(left, right) for _, left, right in keyed_pairs]
        #: additive constraints as ``(is_add, left_did, right_did, result_did)``.
        self.additive: List[Tuple[bool, int, int, int]] = [
            (isinstance(c, AddConstraint), ids[c.left], ids[c.right], ids[c.result])
            for c in sorted(constraints.additive, key=str)
        ]
