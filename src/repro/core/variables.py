"""Type variables and derived type variables (Definition 3.1).

A *derived type variable* is an expression ``alpha.w`` where ``alpha`` is a base
type variable and ``w`` is a (possibly empty) word of field labels.  The base
variable is represented by its name; type constants (elements of the auxiliary
lattice Lambda) are also represented as base variables whose names the lattice
recognizes.

Derived type variables are the single most-hashed object in the solver: every
constraint-graph node, reaching-forget fact, sketch key and summary entry keys
off one.  Construction interns them: ``__new__`` does all of the building, so
constructing a variable that is already live is one dict lookup plus a weakref
dereference, with no initializer run and nothing re-hashed.  The intern table
holds its instances weakly, so long-lived daemons do not leak variables.  The
hash is computed once and equals ``hash((base, labels))``; ``str`` is cached
lazily since display/serialization paths render the same variables repeatedly.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import FrozenInstanceError
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .labels import Label, Variance, parse_label, path_variance


_fresh_counter = itertools.count()


def fresh_var(prefix: str = "v") -> "DerivedTypeVariable":
    """Return a fresh base type variable that has not been used before."""
    return DerivedTypeVariable(f"${prefix}{next(_fresh_counter)}")


#: weak intern table: (base, labels) -> KeyedRef to the canonical live instance.
_INTERNED: Dict[Tuple[str, Tuple[Label, ...]], "weakref.KeyedRef"] = {}


def _forget(ref: "weakref.KeyedRef") -> None:
    # A callback can arrive late, after a miss has already stored a new
    # instance under the same key; only evict the entry this ref still owns.
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


@functools.total_ordering
class DerivedTypeVariable:
    """A base type variable together with a word of field labels.

    ``DerivedTypeVariable("F", (InLabel("stack0"), LoadLabel()))`` prints as
    ``F.in_stack0.load``.

    Instances are immutable and interned: building an equal variable while one
    is alive returns that same object.  Two threads that miss at once can each
    build an instance; that is harmless because equality is by value.
    """

    __slots__ = ("base", "labels", "_hash", "_str", "__weakref__")

    base: str
    labels: Tuple[Label, ...]
    _hash: int
    _str: Optional[str]

    def __new__(cls, base: str = "", labels: Iterable[Label] = ()) -> "DerivedTypeVariable":
        if type(labels) is not tuple:
            labels = tuple(labels)
        key = (base, labels)
        ref = _INTERNED.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_str", None)
        _INTERNED[key] = weakref.KeyedRef(self, _forget, key)
        return self

    def __reduce__(self):
        # Rebuild through ``__new__`` so unpickling and copying return the
        # canonical instance instead of writing state into a shared one.
        return (DerivedTypeVariable, (self.base, self.labels))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:  # the common case once interning has warmed up
            return True
        if not isinstance(other, DerivedTypeVariable):
            return NotImplemented
        return self.base == other.base and self.labels == other.labels

    def __lt__(self, other: object) -> bool:
        # ``dataclass(order=True)`` semantics: same class only, tuple order.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.labels) < (other.base, other.labels)  # type: ignore[attr-defined]

    # -- construction helpers -------------------------------------------------

    def with_label(self, label: Label) -> "DerivedTypeVariable":
        """Return ``self.l`` -- this variable extended by one more capability."""
        return DerivedTypeVariable(self.base, self.labels + (label,))

    def with_labels(self, labels: Sequence[Label]) -> "DerivedTypeVariable":
        if not labels:
            return self
        return DerivedTypeVariable(self.base, self.labels + tuple(labels))

    def with_base(self, base: str) -> "DerivedTypeVariable":
        """Return the same derived variable re-rooted at another base variable."""
        return DerivedTypeVariable(base, self.labels)

    # -- structure -------------------------------------------------------------

    @property
    def base_var(self) -> "DerivedTypeVariable":
        """The bare base variable (no labels)."""
        return DerivedTypeVariable(self.base)

    @property
    def is_base(self) -> bool:
        return not self.labels

    @property
    def last_label(self) -> Optional[Label]:
        return self.labels[-1] if self.labels else None

    @property
    def prefix(self) -> Optional["DerivedTypeVariable"]:
        """The derived variable with the final label removed (``None`` for a base)."""
        if not self.labels:
            return None
        return DerivedTypeVariable(self.base, self.labels[:-1])

    def prefixes(self) -> Iterator["DerivedTypeVariable"]:
        """All proper prefixes, shortest first (the base variable comes first)."""
        for i in range(len(self.labels)):
            yield DerivedTypeVariable(self.base, self.labels[:i])

    @property
    def variance(self) -> Variance:
        """Variance of the label word (Definition 3.2)."""
        return path_variance(self.labels)

    @property
    def depth(self) -> int:
        return len(self.labels)

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            if not self.labels:
                cached = self.base
            else:
                cached = self.base + "." + ".".join(str(lab) for lab in self.labels)
            object.__setattr__(self, "_str", cached)
        return cached

    def __repr__(self) -> str:
        return f"DTV({str(self)!r})"


def parse_dtv(text: str) -> DerivedTypeVariable:
    """Parse ``"F.in_stack0.load.sigma32@4"`` into a :class:`DerivedTypeVariable`.

    The base variable is everything up to the first ``.`` that starts a valid
    label; this allows base names that themselves contain no dots.
    """
    text = text.strip()
    parts = text.split(".")
    base = parts[0]
    labels = []
    for part in parts[1:]:
        labels.append(parse_label(part))
    return DerivedTypeVariable(base, tuple(labels))
