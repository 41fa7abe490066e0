"""Neighborhoods induced by a covering.

The neighborhood of an element is the intersection of all blocks containing
it; the neighborhoods of a covering form the deduplicated family of all
element neighborhoods, itself a covering.  A covering equals its own
neighborhoods exactly when it is a fixed point of this operator, and the
operator is idempotent, so the fixed points are exactly the families that
arise as neighborhoods of anything.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ._table import table
from .setsys import Block, Covering


class NeighborhoodMap(NamedTuple):
    """Per-element neighborhoods plus their deduplicated family."""

    covering: Covering
    per_element: dict[str, Block]
    family: Covering


class RejectReason(enum.Enum):
    """Cheap necessary-condition failures for being a neighborhoods family."""

    TOO_MANY_BLOCKS = "more blocks than universe elements"
    REDUCIBLE_BLOCK = "a block is a union of other blocks"


def neighborhood(c: Covering, x: str) -> Block:
    """Intersection of all blocks of ``c`` containing ``x``."""
    return Block._of(c.universe, table(c).nbh[c.universe.index(x)])


def neighborhood_map(c: Covering) -> NeighborhoodMap:
    per = {
        name: Block._of(c.universe, bits)
        for name, bits in zip(c.universe.names, table(c).nbh)
    }
    return NeighborhoodMap(covering=c, per_element=per, family=cov(c))


def cov(c: Covering) -> Covering:
    """The neighborhoods of ``c``: the deduplicated family of all element
    neighborhoods, in canonical order.  Always a valid covering."""
    u = c.universe
    masks = sorted(set(table(c).nbh))
    return Covering._of(u, tuple(Block._of(u, m) for m in masks))


def is_cov_fixed_point(c: Covering) -> bool:
    """True iff the neighborhoods of ``c`` equal ``c`` itself, i.e. iff
    ``c`` arises as the neighborhoods of some covering.  Compares the bit
    vectors in canonical order rather than building ``cov(c)``."""
    t = table(c)
    return sorted(set(t.nbh)) == t.masks


def quick_reject_neighborhoods(c: Covering) -> RejectReason | None:
    """Necessary-condition screen that names why ``c`` is rejected.

    Returns the first failed condition (block count checked before
    reducibility) or ``None`` when neither fails.  A returned reason
    guarantees that ``c`` is not a fixed point; ``None`` guarantees
    nothing.
    """
    if len(c.blocks) > c.universe.size:
        return RejectReason.TOO_MANY_BLOCKS
    if any(table(c).witnesses):
        return RejectReason.REDUCIBLE_BLOCK
    return None
