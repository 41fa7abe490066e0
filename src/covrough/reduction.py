"""Reducible elements, covering reduction, and invariable coverings.

A block is reducible when it equals the union of other blocks of the
covering.  Any such union can only use proper subsets of the block, so a
block is reducible exactly when the union of all its proper-subset blocks
rebuilds it; no subfamily needs enumerating.  The covering's bit table
(see ``_table``, which also describes its switch at 8 elements) finds
every block's proper subsets in one bit-parallel pass and keeps them as
the block's witness exactly when the block is reducible.

The reduct is the family of irreducible blocks.  Removing a reducible
block never changes whether another block is reducible: every reducible
block is the union of the irreducible blocks below it, and an irreducible
block stays irreducible when blocks are removed.  So one pass that keeps
the irreducible blocks gives what removing reducible blocks one at a time,
in any order, gives.

An invariable covering is an irreducible covering in which every element
has a core block.  These are exactly the coverings equal to their own
neighborhoods; the oracle module checks that equivalence exhaustively.
Both halves of the test read the bit table: its reducibility witnesses
and its per-element core-block flags, which ``degrees.core_block`` reads too.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import not_
from typing import NamedTuple

from ._table import pick, table
from .errors import BlockNotInCovering
from .setsys import Block, Covering


class ReducibilityReport(NamedTuple):
    """Witness (or ``None``) for every block, plus the overall verdict."""

    per_block: dict[Block, tuple[Block, ...] | None]
    is_irreducible_covering: bool


class InvariabilityVerdict(NamedTuple):
    """Outcome of the invariable-covering test with the failing detail.

    ``reducible_blocks`` lists blocks breaking irreducibility;
    ``elements_without_core`` lists elements that have no core block.
    Both are empty exactly when the covering is invariable.
    """

    invariable: bool
    reducible_blocks: tuple[Block, ...]
    elements_without_core: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.invariable


def is_reducible_element(c: Covering, k: Block) -> tuple[Block, ...] | None:
    """Witness subfamily whose union is ``k``, or ``None`` if irreducible.

    The witness is the family of all blocks of ``c`` that are proper
    subsets of ``k``; it is returned only when its union is exactly ``k``.
    """
    if k not in c:
        raise BlockNotInCovering(f"block {k} is not in the covering")
    t = table(c)
    w = t.witnesses[bisect_left(t.masks, k.bits)]
    return tuple(pick(c, w)) if w else None


def reducibility_report(c: Covering) -> ReducibilityReport:
    witnesses = table(c).witnesses
    per = {b: tuple(pick(c, w)) if w else None for b, w in zip(c.blocks, witnesses)}
    return ReducibilityReport(
        per_block=per,
        is_irreducible_covering=not any(witnesses),
    )


def reduct(c: Covering) -> Covering:
    """The irreducible blocks of ``c``: one pass over the bit-parallel
    reducibility witnesses.

    This equals removing reducible blocks one at a time until none remain,
    in any order (see the module docstring); the oracle checks that
    against its own iterative reduction on every small covering.
    """
    kept = tuple(b for b, w in zip(c.blocks, table(c).witnesses) if not w)
    return Covering._of(c.universe, kept)


def is_invariable(c: Covering) -> InvariabilityVerdict:
    """Decide whether ``c`` is invariable: irreducible and every element
    has a core block."""
    t = table(c)
    reducible = tuple(compress(c.blocks, t.witnesses))
    missing = tuple(compress(c.universe.names, map(not_, t.cored)))
    return InvariabilityVerdict(
        invariable=not reducible and not missing,
        reducible_blocks=reducible,
        elements_without_core=missing,
    )
