"""Universes, blocks, and coverings of finite universes.

A ``Universe`` fixes an ordering of element labels.  A ``Block`` is a
nonempty subset of a universe stored as a bit vector (element index 0 is the
lowest bit).  A ``Covering`` is a duplicate-free family of blocks whose
union is the whole universe, kept in canonical order: ascending by bit
vector read as an integer.  That sorted tuple is the only copy of the
family a covering keeps; membership bisects it.  All three types are
immutable, so instances can be shared between threads freely.  They are
plain classes with ``__slots__`` whose equality, hash, repr and pickling
read the public fields only, not a universe's label index or a covering's
bit table.  Each class names those fields once, in ``_fields``; the shared
base ``_Frozen`` builds the repr and the pickle from them, and each class
keeps its own equality and hash.  They are not dataclasses because loading
``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) and generating
their methods took nearly half of ``import covrough``.

Validation happens once, at the boundary.  The public constructors
``Universe``, ``Block`` and ``Covering``, ``make_covering`` and the file
readers check everything they are given.  The coverings and blocks the
library derives are built through the private ``Block._of`` and
``Covering._of`` without a re-check, because each builder guarantees the
invariants itself:

- ``cov`` keeps the distinct neighborhoods, sorted; they cover because
  every element lies in its own neighborhood;
- ``reduct`` keeps the irreducible blocks in their order; they cover
  because every reducible block is a union of irreducible ones;
- enumeration, ``census`` and ``preimages`` take the blocks that the
  oracle's family walk carries, distinct and ascending, from families
  whose packed meet shows that every element lies in some block;
- the oracle's violation records take distinct subset masks in ascending
  order from coverings the law checker walked;
- the blocks of ``neighborhood`` and ``core_block`` are N(x), an
  intersection of blocks that holds x.

The covering file format lives here too::

    {"universe": ["1", "2", "3"], "blocks": [["1"], ["1", "2"], ["3"]]}

The ``universe`` list fixes the element indices; the writer emits blocks in
canonical order with the elements of each block in universe order.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import (
    DuplicateBlock,
    EmptyBlock,
    FileFormatError,
    InvalidUniverse,
    NotACover,
    UnknownElement,
)

# A NotACover message names at most this many missing elements.
_MISSING_NAMED = 10


# Writes a slot of the immutable types below, past their ``__setattr__``.
_set = object.__setattr__


class _Frozen:
    """Refuses every attribute write or delete after construction, and
    prints and pickles as the constructor call over its public ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self) -> tuple:
        # Private slots stay behind: a copy of a covering builds its own
        # bit table on first use.
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Universe(_Frozen):
    """Ordered, finite, nonempty collection of distinct element labels."""

    __slots__ = ("names", "_index")
    _fields = ("names",)
    names: tuple[str, ...]
    _index: dict[str, int]

    def __init__(self, names: tuple[str, ...]) -> None:
        if isinstance(names, str):
            raise InvalidUniverse(
                "element labels must be a collection of strings, not one str"
            )
        names = tuple(_iterate(names, "element labels must be a collection of strings"))
        if not names:
            raise InvalidUniverse("a universe needs at least one element")
        index: dict[str, int] = {}
        repeat = None  # the first label that repeats an earlier one
        for i, name in enumerate(names):
            if not isinstance(name, str):
                raise InvalidUniverse(
                    f"element labels must be strings; label #{i} is "
                    f"{type(name).__name__}"
                )
            if index.setdefault(name, i) != i and repeat is None:
                repeat = name
        if repeat is not None:
            raise InvalidUniverse(
                f"element labels must be pairwise distinct; {repeat!r} repeats"
            )
        _set(self, "names", names)
        _set(self, "_index", index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.names == other.names

    def __hash__(self) -> int:
        return hash((self.names,))

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_bits(self) -> int:
        """Bit vector with every element present."""
        return (1 << len(self.names)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownElement(f"unknown element {label!r}") from None

    def block(self, labels: Iterable[str]) -> "Block":
        """Build a block from element labels (order and repeats ignored)."""
        if isinstance(labels, str):
            raise TypeError("a block must be a collection of labels, not a str")
        bits = 0
        for label in labels:
            bits |= 1 << self.index(label)
        return Block(self, bits)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, label: object) -> bool:
        try:
            return label in self._index
        except TypeError:  # an unhashable label
            return False

    def __str__(self) -> str:
        return "{" + ", ".join(self.names) + "}"


def default_universe(n: int) -> Universe:
    """Universe labeled "1".."n", matching the worked examples."""
    return Universe(tuple(str(i) for i in range(1, n + 1)))


def _check_universe(universe: object) -> Universe:
    if not isinstance(universe, Universe):
        raise TypeError(f"universe must be a Universe; got {type(universe).__name__}")
    return universe


def _iterate(items: object, what: str) -> Iterator:
    """``iter(items)``, or a ``TypeError`` that says ``what`` was expected."""
    try:
        return iter(items)
    except TypeError:
        raise TypeError(f"{what}; got {type(items).__name__}") from None


class Block(_Frozen):
    """Nonempty subset of a universe, stored as a bit vector."""

    __slots__ = ("universe", "bits")
    _fields = ("universe", "bits")
    universe: Universe
    bits: int

    def __init__(self, universe: Universe, bits: int) -> None:
        _check_universe(universe)
        if isinstance(bits, bool) or not isinstance(bits, int):
            raise TypeError(f"bit vector must be an int; got {type(bits).__name__}")
        if bits == 0:
            raise EmptyBlock("a block must be a nonempty subset")
        if bits < 0 or bits > universe.full_bits:
            raise UnknownElement(
                f"bit vector {bits:#x} does not fit a universe of "
                f"size {universe.size}"
            )
        _set(self, "universe", universe)
        _set(self, "bits", bits)

    @classmethod
    def _of(cls, universe: Universe, bits: int) -> "Block":
        """``__init__`` without its checks.  The caller guarantees that
        ``bits`` is an ``int`` naming a nonempty subset of ``universe``."""
        b = object.__new__(cls)
        _set(b, "universe", universe)
        _set(b, "bits", bits)
        return b

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, v = self.universe, other.universe
        return self.bits == other.bits and (u is v or u == v)

    def __hash__(self) -> int:
        # Equal blocks have equal bits; same bits in another universe only collide.
        return hash(self.bits)

    def members(self) -> tuple[str, ...]:
        """Element labels of this block, in universe order: its set bits,
        lowest first."""
        names = self.universe.names
        out = []
        rest = self.bits
        while rest:
            low = rest & -rest
            out.append(names[low.bit_length() - 1])
            rest ^= low
        return tuple(out)

    def issubset(self, other: "Block") -> bool:
        return self.bits & ~other.bits == 0

    def __contains__(self, label: object) -> bool:
        if not isinstance(label, str) or label not in self.universe:
            return False
        return self.bits >> self.universe.index(label) & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return "{" + ", ".join(self.members()) + "}"


class Covering(_Frozen):
    """Duplicate-free family of blocks whose union is the universe.

    The constructor validates and normalizes: blocks may arrive in any
    order and are stored sorted ascending by bit vector.  ``in`` bisects
    that order on the bit vectors; no per-covering set of them is kept.
    Coverings the library derives skip the constructor's checks through
    ``_of``; the module docstring says why each of them is valid.
    """

    # _table: the derived operators' bit table, built on first use (see
    # covrough._table); equality, hash, repr and pickling leave it out.
    __slots__ = ("universe", "blocks", "_table")
    _fields = ("universe", "blocks")
    universe: Universe
    blocks: tuple[Block, ...]

    def __init__(self, universe: Universe, blocks: tuple[Block, ...]) -> None:
        u = _check_universe(universe)
        given = tuple(_iterate(blocks, "blocks must be an iterable of Blocks"))
        union = 0
        first: dict[int, int] = {}  # bits -> the first position holding them
        repeat = None  # the position of the first block that repeats one
        for i, b in enumerate(given):
            if not isinstance(b, Block):
                raise TypeError(f"block #{i} must be a Block; got {type(b).__name__}")
            if b.universe is not u and b.universe != u:
                raise UnknownElement(
                    f"block {b} belongs to a different universe {b.universe}"
                )
            if first.setdefault(b.bits, i) != i and repeat is None:
                repeat = i
            union |= b.bits
        if repeat is not None:
            j = first[given[repeat].bits]
            raise DuplicateBlock(f"blocks #{j} and #{repeat} are identical")
        if union != u.full_bits:
            missing = [name for i, name in enumerate(u.names) if not union >> i & 1]
            more = len(missing) - _MISSING_NAMED
            raise NotACover(
                "union of blocks misses element(s): "
                + ", ".join(missing[:_MISSING_NAMED])
                + (f" and {more} more" if more > 0 else "")
            )
        _set(self, "universe", u)
        _set(self, "blocks", tuple(sorted(given, key=attrgetter("bits"))))
        _set(self, "_table", None)

    @classmethod
    def _of(cls, universe: Universe, blocks: tuple[Block, ...]) -> "Covering":
        """``__init__`` without its checks.  The caller guarantees that
        ``blocks`` is a tuple of distinct blocks of ``universe``, ascending
        by ``bits``, whose union is the universe."""
        c = object.__new__(cls)
        _set(c, "universe", universe)
        _set(c, "blocks", blocks)
        _set(c, "_table", None)
        return c

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, v = self.universe, other.universe
        return (u is v or u == v) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.universe, self.blocks))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __contains__(self, block: object) -> bool:
        if not isinstance(block, Block):
            return False
        if block.universe is not self.universe and block.universe != self.universe:
            return False
        blocks = self.blocks
        i = bisect_left(blocks, block.bits, key=attrgetter("bits"))
        return i < len(blocks) and blocks[i].bits == block.bits

    def __str__(self) -> str:
        return "{" + ", ".join(str(b) for b in self.blocks) + "}"


def make_covering(universe: Universe, subsets: Iterable[Iterable[str]]) -> Covering:
    """Validate a family of label lists and return the canonical covering.

    Within one subset, label order and repeats do not matter; two subsets
    naming the same set of elements are an error rather than being merged.
    Raises ``EmptyBlock``, ``UnknownElement`` (also for an unhashable
    label), ``DuplicateBlock`` or ``NotACover``, and ``TypeError`` for a
    universe that is no ``Universe``, a family that is not iterable, or a
    subset that is one ``str`` or not iterable, with the offending block
    index in the message.
    """
    index = _check_universe(universe)._index
    blocks: list[Block] = []
    family = _iterate(subsets, "subsets must be an iterable of label collections")
    for i, labels in enumerate(family):
        if isinstance(labels, str):
            raise TypeError(f"block #{i} must be a collection of labels, not a str")
        try:
            members = iter(labels)
        except TypeError:
            raise TypeError(
                f"block #{i} must be a collection of labels; "
                f"got {type(labels).__name__}"
            ) from None
        bits = 0
        for label in members:
            try:
                bits |= 1 << index[label]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise UnknownElement(
                    f"block #{i}: unknown element {label!r}"
                ) from None
        if bits == 0:
            raise EmptyBlock(f"block #{i} is empty")
        blocks.append(Block._of(universe, bits))
    return Covering(universe, tuple(blocks))


def is_partition(c: Covering) -> bool:
    """True iff the blocks are pairwise disjoint."""
    union = 0
    for b in c.blocks:
        if union & b.bits:
            return False
        union |= b.bits
    return True


# --- covering file format ---------------------------------------------------
#
# The readers and writers import json when first called: importing it with
# the module added about 1.5 ms to ``import covrough`` (Python 3.11), which
# reads no files.


def covering_to_dict(c: Covering) -> dict:
    """JSON-ready form of a covering (canonical block order)."""
    return {
        "universe": list(c.universe.names),
        "blocks": [list(b.members()) for b in c.blocks],
    }


def _check_strings(items: object, what: str) -> None:
    """Raise ``FileFormatError`` unless ``items`` is a list of strings,
    naming the first entry that is not."""
    if not isinstance(items, list):
        raise FileFormatError(f"{what} must be a list of strings")
    for i, x in enumerate(items):
        if not isinstance(x, str):
            raise FileFormatError(
                f"{what} must be a list of strings; entry #{i} is {type(x).__name__}"
            )


def covering_from_dict(data: object) -> Covering:
    """Parse the file-format dictionary, applying full validation."""
    if not isinstance(data, dict):
        raise FileFormatError("covering file must be a JSON object")
    try:
        universe_names = data["universe"]
        block_lists = data["blocks"]
    except KeyError as exc:
        raise FileFormatError(f"covering file is missing key {exc}") from None
    _check_strings(universe_names, '"universe"')
    if not isinstance(block_lists, list):
        raise FileFormatError('"blocks" must be a list')
    for i, b in enumerate(block_lists):
        _check_strings(b, f"block #{i}")
    return make_covering(Universe(tuple(universe_names)), block_lists)


def covering_to_json(c: Covering) -> str:
    import json

    return json.dumps(covering_to_dict(c))


def covering_from_json(text: str) -> Covering:
    import json

    return covering_from_dict(json.loads(text))


def read_covering(path: str) -> Covering:
    import json

    # utf-8-sig drops the byte-order mark that some Windows editors write
    # (RFC 8259 section 8.1 lets a parser ignore it).
    with open(path, encoding="utf-8-sig") as fh:
        return covering_from_dict(json.load(fh))


def write_covering(c: Covering, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(covering_to_json(c))
        fh.write("\n")
