"""Repeat degrees and core blocks.

The membership repeat degree of an element counts the blocks it belongs to;
the common block repeat degree of a pair counts the blocks containing both.
The core block of an element x, when it exists, is the unique block that
contains x and equals the intersection of all blocks containing x.

Every query here reads the covering's bit table (see ``_table``): the
blocks containing x are its S_x, the degrees are bit counts of S_x and of
S_x & S_y, and the core block is N(x) when the table's per-element flag
says that N(x) is a block, the same flag the invariability test reads.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from ._table import pick, table
from .setsys import Block, Covering


class DegreeProfile(NamedTuple):
    """Full degree tables of a covering.

    ``membership`` maps each element to its membership repeat degree;
    ``common`` maps every ordered pair to its common block repeat degree
    (the table is symmetric and its diagonal equals ``membership``).
    """

    membership: dict[str, int]
    common: dict[tuple[str, str], int]


class CoreBlockAssignment(NamedTuple):
    """Core block of each element (``None`` where no core block exists) and
    the set of blocks that are the core block of at least one element."""

    per_element: dict[str, Block | None]
    core_blocks: frozenset[Block]


def membership_repeat_degree(c: Covering, x: str) -> int:
    """Number of blocks of ``c`` containing ``x``; at least 1."""
    return table(c).holders[c.universe.index(x)].bit_count()


def common_block_repeat_degree(c: Covering, x: str, y: str) -> int:
    """Number of blocks of ``c`` containing both ``x`` and ``y``.

    May be 0; for ``x == y`` it equals the membership repeat degree.
    """
    holders, index = table(c).holders, c.universe.index
    return (holders[index(x)] & holders[index(y)]).bit_count()


def blocks_containing(c: Covering, x: str) -> list[Block]:
    """All blocks containing ``x``, in canonical order.

    Never empty: a covering covers every element.
    """
    return pick(c, table(c).holders[c.universe.index(x)])


def core_block(c: Covering, x: str) -> Block | None:
    """Core block of ``x``, or ``None`` when it has no core block.

    Computed as the intersection of all blocks containing ``x``, kept only
    when that intersection is itself a block of ``c``.  This agrees with
    the defining condition (x in K and every y in K shares all of x's
    blocks); the test suite compares both routes.
    """
    t, i = table(c), c.universe.index(x)
    return Block._of(c.universe, t.nbh[i]) if t.cored[i] else None


def core_block_assignment(c: Covering) -> CoreBlockAssignment:
    t, u = table(c), c.universe
    cores = {m: Block._of(u, m) for m in compress(t.nbh, t.cored)}
    return CoreBlockAssignment(
        per_element=dict(zip(u.names, map(cores.get, t.nbh))),
        core_blocks=frozenset(cores.values()),
    )


def non_core_blocks(c: Covering) -> list[Block]:
    """Blocks of ``c`` that are the core block of no element, in canonical
    order.  Empty for partitions."""
    t = table(c)
    cores = set(compress(t.nbh, t.cored))
    return [b for b in c.blocks if b.bits not in cores]


def degree_profile(c: Covering) -> DegreeProfile:
    """Materialize both degree tables.  The pair table is quadratic in the
    universe size; single values are the point queries' job."""
    names = c.universe.names
    holders = dict(zip(names, table(c).holders))
    membership = {x: holders[x].bit_count() for x in names}
    common = {
        (x, y): (holders[x] & holders[y]).bit_count()
        for x in names
        for y in names
    }
    return DegreeProfile(membership=membership, common=common)
