"""Field labels (the alphabet Sigma) and their variance.

The paper models capabilities of a type as *field labels* that can be appended
to a type variable to form a derived type variable (Definition 3.1).  Table 1
lists the labels used throughout the paper:

=========  ========  =============================================
Label      Variance  Capability
=========  ========  =============================================
.in_L      contra    function with input in location L
.out_L     co        function with output in location L
.load      co        readable pointer
.store     contra    writable pointer
.sigmaN@k  co        has an N-bit field at offset k
=========  ========  =============================================

Variance composes as a sign monoid (Definition 3.2): the variance of a word of
labels is the product of the variances of its letters.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Iterable, Tuple


class Variance(enum.Enum):
    """Variance of a label or of a word of labels (the sign monoid)."""

    COVARIANT = 1
    CONTRAVARIANT = -1

    def __mul__(self, other: "Variance") -> "Variance":
        if not isinstance(other, Variance):
            return NotImplemented
        return Variance(self.value * other.value)

    __rmul__ = __mul__

    def flip(self) -> "Variance":
        return Variance(-self.value)

    def __str__(self) -> str:
        return "+" if self is Variance.COVARIANT else "-"


COVARIANT = Variance.COVARIANT
CONTRAVARIANT = Variance.CONTRAVARIANT


@dataclass(frozen=True, order=True)
class Label:
    """Base class for field labels.

    Labels are immutable and hashable so they can be used in derived type
    variables, constraint sets and sketch automata edges.
    """

    @property
    def variance(self) -> Variance:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


def _check_location(location: str) -> None:
    """Reject locations whose textual form cannot round-trip.

    A ``.`` would be split into bogus extra labels by :func:`repro.core.
    variables.parse_dtv`, and empty/whitespace-bearing locations fail the
    label grammar entirely -- found by the parse/str round-trip property test.
    """
    if not isinstance(location, str) or not location:
        raise ValueError(f"label location must be a non-empty string: {location!r}")
    if "." in location or any(ch.isspace() for ch in location):
        raise ValueError(
            f"label location may not contain dots or whitespace: {location!r}"
        )


@dataclass(frozen=True, order=True)
class InLabel(Label):
    """``.in_L`` -- the type of the function input at location ``L``.

    ``location`` is a string such as ``"stack0"``, ``"stack4"`` or ``"ecx"``.
    Contravariant: a subtype of a function type accepts *more general* inputs.
    """

    location: str

    def __post_init__(self) -> None:
        _check_location(self.location)

    @property
    def variance(self) -> Variance:
        return CONTRAVARIANT

    def __str__(self) -> str:
        return f"in_{self.location}"


@dataclass(frozen=True, order=True)
class OutLabel(Label):
    """``.out_L`` -- the type of the function output at location ``L``."""

    location: str = "eax"

    def __post_init__(self) -> None:
        _check_location(self.location)

    @property
    def variance(self) -> Variance:
        return COVARIANT

    def __str__(self) -> str:
        return f"out_{self.location}"


@dataclass(frozen=True, order=True)
class LoadLabel(Label):
    """``.load`` -- the type obtained by reading through a pointer (covariant)."""

    # Field-less dataclasses all hash as ``hash(())``; a fixed constant (not a
    # seeded string hash) keeps ``.load`` and ``.store`` apart in one dict.
    def __hash__(self) -> int:
        return 0x6C6F6164

    @property
    def variance(self) -> Variance:
        return COVARIANT

    def __str__(self) -> str:
        return "load"


@dataclass(frozen=True, order=True)
class StoreLabel(Label):
    """``.store`` -- the type that may be written through a pointer (contravariant)."""

    def __hash__(self) -> int:
        return 0x73746F72

    @property
    def variance(self) -> Variance:
        return CONTRAVARIANT

    def __str__(self) -> str:
        return "store"


@dataclass(frozen=True, order=True)
class FieldLabel(Label):
    """``.sigmaN@k`` -- the type has an ``N``-bit field at byte offset ``k``."""

    size_bits: int
    offset: int

    def __post_init__(self) -> None:
        # ``sigma-8@0`` would not re-parse (sizes are unsigned in the grammar);
        # offsets may be negative (pre-frame stack slots).
        if not isinstance(self.size_bits, int) or self.size_bits < 0:
            raise ValueError(f"field size must be a non-negative int: {self.size_bits!r}")
        if not isinstance(self.offset, int):
            raise ValueError(f"field offset must be an int: {self.offset!r}")

    @property
    def variance(self) -> Variance:
        return COVARIANT

    def __str__(self) -> str:
        return f"sigma{self.size_bits}@{self.offset}"


# Convenient singletons used throughout the code base.
LOAD = LoadLabel()
STORE = StoreLabel()
OUT = OutLabel("eax")


def in_label(location) -> InLabel:
    """Build an ``.in_L`` label; integers become stack locations ``stack<k>``."""
    if isinstance(location, int):
        return InLabel(f"stack{location}")
    return InLabel(str(location))


def out_label(location: str = "eax") -> OutLabel:
    return OutLabel(location)


def field(size_bits: int = 32, offset: int = 0) -> FieldLabel:
    return FieldLabel(size_bits, offset)


def path_variance(labels: Iterable[Label]) -> Variance:
    """Variance of a word of labels (Definition 3.2): the product of variances."""
    result = COVARIANT
    for lab in labels:
        result = result * lab.variance
    return result


_LABEL_RE = re.compile(
    r"""^(?:
        (?P<load>load) |
        (?P<store>store) |
        in_(?P<in>\S+) |
        out_(?P<out>\S+) |
        (?:sigma|σ)(?P<size>\d+)@(?P<off>-?\d+)
    )$""",
    re.VERBOSE,
)


@functools.lru_cache(maxsize=4096)
def parse_label(text: str) -> Label:
    """Parse the textual form of a label (inverse of ``str``).

    Pure, and labels are immutable, so equal texts share one (bounded-cache)
    instance: decoding stored sketches re-reads the same few labels.

    >>> parse_label("load")
    LoadLabel()
    >>> parse_label("sigma32@4")
    FieldLabel(size_bits=32, offset=4)
    """
    match = _LABEL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"cannot parse label: {text!r}")
    if match.group("load"):
        return LOAD
    if match.group("store"):
        return STORE
    if match.group("in") is not None:
        return InLabel(match.group("in"))
    if match.group("out") is not None:
        return OutLabel(match.group("out"))
    return FieldLabel(int(match.group("size")), int(match.group("off")))


def parse_label_word(text: str) -> Tuple[Label, ...]:
    """Parse a dotted word of labels, e.g. ``"load.sigma32@4"``."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_label(part) for part in text.split("."))
