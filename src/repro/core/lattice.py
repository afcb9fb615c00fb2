"""The auxiliary lattice Lambda of atomic types and semantic tags (section 3.5).

Retypd parameterizes type inference by an uninterpreted lattice whose elements
are "type constants": symbolic C type names, API typedefs and user-defined
semantic classes such as ``#FileDescriptor``.  Sketch nodes are decorated with
lattice elements; covariant nodes accumulate joins of lower bounds and
contravariant nodes meets of upper bounds.

The implementation is a finite lattice given by an explicit Hasse diagram
(``parents`` maps an element to its immediate supertypes).  Joins and meets are
computed from ancestor/descendant sets; when a pair of elements has no unique
least upper bound the join falls back to the top element (and dually for meet),
which keeps the structure a (bounded) lattice.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

TOP = "TOP"
BOTTOM = "BOTTOM"


class TypeLattice:
    """A finite bounded lattice of atomic type names.

    Parameters
    ----------
    parents:
        Mapping from element name to the names of its immediate supertypes.
        ``TOP`` and ``BOTTOM`` are added automatically: any element without
        declared parents gets ``TOP`` as parent, and ``BOTTOM`` is below
        everything.
    """

    def __init__(self, parents: Optional[Mapping[str, Sequence[str]]] = None) -> None:
        self._parents: Dict[str, Set[str]] = {TOP: set(), BOTTOM: set()}
        if parents:
            for element, element_parents in parents.items():
                self.add_element(element, element_parents)
        self._ancestors_cache: Dict[str, FrozenSet[str]] = {}

    # -- construction ----------------------------------------------------------

    def add_element(self, element: str, parents: Sequence[str] = ()) -> None:
        """Add ``element`` with the given immediate supertypes (default: TOP).

        This is the user-extension hook described in section 2.8: semantic tags
        (``#FileDescriptor``) and ad-hoc API hierarchies (HANDLE typedefs) are
        added at run time.
        """
        if element in (TOP, BOTTOM):
            return
        self._parents.setdefault(element, set())
        actual_parents = [p for p in parents if p != BOTTOM] or [TOP]
        for parent in actual_parents:
            if parent not in self._parents:
                self._parents[parent] = {TOP}
            if parent != element:
                self._parents[element].add(parent)
        if not self._parents[element]:
            self._parents[element].add(TOP)
        self._ancestors_cache = {}

    def add_tag(self, tag: str, parent: str = TOP) -> None:
        """Add a semantic tag (by convention tags start with ``#``)."""
        self.add_element(tag, [parent])

    # -- membership ------------------------------------------------------------

    @property
    def elements(self) -> Set[str]:
        return set(self._parents)

    def __contains__(self, element: str) -> bool:
        return element in self._parents

    def is_constant(self, name: str) -> bool:
        """True when ``name`` denotes a type constant (a lattice element)."""
        return name in self._parents

    def fingerprint(self) -> str:
        """A stable content hash of the Hasse diagram.

        Two lattices with the same elements and the same immediate-supertype
        relation fingerprint identically; the summary store mixes this into its
        cache keys so summaries computed under one lattice are never reused
        under another.
        """
        payload = ";".join(
            f"{element}<{','.join(sorted(parents))}"
            for element, parents in sorted(self._parents.items())
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- serialization (process-boundary round trip) -----------------------------

    def to_json(self) -> Dict[str, List[str]]:
        """The Hasse diagram as a JSON-able mapping, inverse of :meth:`from_json`.

        Elements map to their sorted immediate supertypes; two lattices that
        :meth:`fingerprint` identically serialize identically.  This is how the
        process-pool backend ships a (possibly user-extended) lattice to its
        worker processes without pickling.
        """
        return {
            element: sorted(parents)
            for element, parents in sorted(self._parents.items())
            if element not in (TOP, BOTTOM)
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Sequence[str]]) -> "TypeLattice":
        """Rebuild a lattice serialized by :meth:`to_json`, exactly.

        The Hasse diagram is restored verbatim rather than replayed through
        :meth:`add_element`, because that hook auto-parents forward references
        under ``TOP`` -- correct for incremental construction, but it would
        make the round trip lossy (and the fingerprint unstable) whenever the
        serialized order lists a child before its parent.
        """
        out = cls()
        for element in data:
            out._parents.setdefault(element, set())
        for element, parents in data.items():
            for parent in parents:
                out._parents.setdefault(parent, set())
                if parent != element:
                    out._parents[element].add(parent)
        out._ancestors_cache = {}
        return out

    # -- order -----------------------------------------------------------------

    def _ancestors(self, element: str) -> FrozenSet[str]:
        """All elements >= element (inclusive), excluding the implicit TOP handling."""
        if element in self._ancestors_cache:
            return self._ancestors_cache[element]
        if element == BOTTOM:
            result = frozenset(self._parents)
        else:
            seen: Set[str] = {element, TOP}
            stack = [element]
            while stack:
                current = stack.pop()
                for parent in self._parents.get(current, ()):
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            result = frozenset(seen)
        self._ancestors_cache[element] = result
        return result

    def leq(self, lower: str, upper: str) -> bool:
        """``lower <: upper`` in the lattice order."""
        if lower == BOTTOM or upper == TOP:
            return True
        if lower == TOP:
            return upper == TOP
        if upper == BOTTOM:
            return lower == BOTTOM
        return upper in self._ancestors(lower)

    def comparable(self, a: str, b: str) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    # -- lattice operations ------------------------------------------------------

    def join(self, a: str, b: str) -> str:
        """Least upper bound; falls back to TOP when no unique lub exists."""
        if a == b:
            return a
        if a == BOTTOM:
            return b
        if b == BOTTOM:
            return a
        if a == TOP or b == TOP:
            return TOP
        common = self._ancestors(a) & self._ancestors(b)
        # Minimal elements of the common-ancestor set.
        minimal = [
            c
            for c in common
            if not any(other != c and self.leq(other, c) for other in common)
        ]
        if len(minimal) == 1:
            return minimal[0]
        return TOP

    def meet(self, a: str, b: str) -> str:
        """Greatest lower bound; falls back to BOTTOM when no unique glb exists."""
        if a == b:
            return a
        if a == TOP:
            return b
        if b == TOP:
            return a
        if a == BOTTOM or b == BOTTOM:
            return BOTTOM
        below_a = {e for e in self._parents if self.leq(e, a)}
        below_b = {e for e in self._parents if self.leq(e, b)}
        common = below_a & below_b
        maximal = [
            c
            for c in common
            if not any(other != c and self.leq(c, other) for other in common)
        ]
        if len(maximal) == 1:
            return maximal[0]
        return BOTTOM

    # -- consistency / display ---------------------------------------------------

    def antichain(self, elements: Iterable[str]) -> List[str]:
        """Merge comparable elements, keeping the minimal ones (Example 4.2).

        Used when deciding between a union type and a generic type: comparable
        scalar constraints are merged and the resulting antichain becomes the
        members of the union.
        """
        kept: List[str] = []
        for element in sorted(set(elements)):
            if element in (TOP, BOTTOM):
                continue
            replaced = False
            for i, existing in enumerate(kept):
                if self.leq(element, existing):
                    kept[i] = element
                    replaced = True
                    break
                if self.leq(existing, element):
                    replaced = True
                    break
            if not replaced:
                kept.append(element)
        return sorted(set(kept))

    def check_scalar(self, lower: str, upper: str) -> bool:
        """The scalar consistency check ``kappa1 <: kappa2`` of section 3."""
        return self.leq(lower, upper)


# ---------------------------------------------------------------------------
# The default lattice used by the reproduction.
# ---------------------------------------------------------------------------

#: Immediate-supertype table for the default lattice.  It mixes C-like scalar
#: types (the TIE-style stratification used for the evaluation metrics) with
#: typedefs and semantic tags, as described in sections 2.8 and 3.5.
_DEFAULT_PARENTS: Dict[str, List[str]] = {
    # numeric tower
    "num64": [TOP],
    "num32": ["num64"],
    "num16": ["num32"],
    "num8": ["num16"],
    "int": ["num32"],
    "uint": ["num32"],
    "int64": ["num64"],
    "uint64": ["num64"],
    "int16": ["num16"],
    "uint16": ["num16"],
    "int8": ["num8"],
    "uint8": ["num8"],
    "char": ["int8"],
    "bool": ["num8"],
    "float": [TOP],
    "double": [TOP],
    # pointers-as-scalars and code
    "ptr": ["num32"],
    "code": [TOP],
    # common typedefs (ad-hoc subtyping, section 2.8)
    "size_t": ["uint"],
    "ssize_t": ["int"],
    "FILE": [TOP],
    "HANDLE": ["ptr"],
    "HGDI": ["HANDLE"],
    "HBRUSH": ["HGDI"],
    "HPEN": ["HGDI"],
    "SOCKET": ["uint"],
    "WPARAM": ["num32"],
    "LPARAM": ["num32"],
    "DWORD": ["num32"],
    # semantic tags (Figure 2, section 3.5)
    "#FileDescriptor": ["int"],
    "#SuccessZ": ["int"],
    "#signal-number": ["int"],
    "#errno": ["int"],
    "str": ["ptr"],
    "url": ["str"],
}


def default_lattice() -> TypeLattice:
    """The lattice Lambda used across examples, tests and the evaluation."""
    return TypeLattice(_DEFAULT_PARENTS)
