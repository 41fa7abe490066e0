"""The bit table of a covering, shared by the neighborhood, degree and
reduction operators and by the full report, ``report.analyze``.

One pass over the blocks records, for every element x, its neighborhood
N(x), the intersection of the blocks containing x, as an element mask,
and S_x, the blocks containing x, as a mask over block indices (bit j
stands for the covering's j-th block in canonical order).

Element x has a core block exactly when N(x) is itself a block, and the
core block is then N(x).  The table holds that rule once, as one flag per
element next to the per-block reducibility witnesses; core blocks and the
invariability test both read it.

Reducibility is bit-parallel over block indices.  The blocks that are
proper subsets of block k are all blocks except k that contain no element
outside k: everything but k, minus the union of S_x over the x outside k.
Block k is the union of those blocks exactly when each of its elements
lies in one of them, that is, when S_x meets that set for every x in k.
One pass computes that set for every block and keeps it as the block's
witness when the test holds, and 0 when it fails, so the reducibility
verdicts and the witnesses that reports list come from one computation.

The union of S_x over the elements outside a block is the inner step of
that pass.  With more than 8 elements it is read from per-chunk union
tables, the "Four Russians" method (Arlazarov, Dinic, Kronrod and
Faradzev, 1970): for each run of 8 elements, a table of up to 256 entries
holds the union of S_x over every subset of the run, so the union for a
block costs one lookup per 8 elements (8 at n=64, against one step per
element outside the block).  The pass builds the tables for its own use
and does not keep them.  With at most 8 elements no tables are built:
building them for every covering made the table pass over all coverings
with n=3 40-55% slower, and with n=4 about 20% slower (best of 7 runs,
Python 3.11).  A mask there fits in one byte, and ``BYTE_BITS`` lists the
elements of each byte value, so one lookup reads the elements outside a
block, as it reads a block's elements for the pass over the blocks and
for the test of each element.  Above 8 elements those two walk the set
bits one at a time.
"""

from __future__ import annotations

from .setsys import Block, Covering


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """Entry v lists the set bit positions of the byte value v, ascending.
    Doubling: the entries from 1 << x up are those below with x added."""
    bits: list[tuple[int, ...]] = [()]
    for x in range(8):
        bits += [t + (x,) for t in bits]
    return tuple(bits)


BYTE_BITS = _byte_bits()


class BitTable:
    """Neighborhoods and containing-block sets of one family of blocks.

    ``masks`` are the block bit vectors in canonical order, ``nbh[x]`` is
    N(x) and ``holders[x]`` is S_x.  The per-block ``witnesses`` and the
    per-element ``cored`` flags are computed on first use.
    """

    __slots__ = ("n", "masks", "nbh", "holders", "_witnesses", "_cored")

    def __init__(self, n: int, masks: list[int]) -> None:
        nbh = [-1] * n
        holders = [0] * n
        if n > 8:
            for j, m in enumerate(masks):
                bit = 1 << j
                rest = m
                while rest:
                    low = rest & -rest
                    x = low.bit_length() - 1
                    nbh[x] &= m
                    holders[x] |= bit
                    rest ^= low
        else:
            # the bit walk above, at every width, took census(4) from 379
            # to 412 ms
            for j, m in enumerate(masks):
                bit = 1 << j
                for x in BYTE_BITS[m]:
                    nbh[x] &= m
                    holders[x] |= bit
        self.n = n
        self.masks = masks
        self.nbh = nbh
        self.holders = holders
        self._witnesses: list[int] | None = None
        self._cored: list[bool] | None = None

    @property
    def witnesses(self) -> list[int]:
        """Per block j: the block-index mask of the blocks that are proper
        subsets of block j when their union is block j, and 0 otherwise.
        Block j is reducible exactly when its entry is nonzero."""
        if self._witnesses is None:
            n, masks, holders = self.n, self.masks, self.holders
            full = (1 << n) - 1
            every = (1 << len(masks)) - 1
            out = []
            if n > 8:
                # per run of 8 elements, the union of S_x over each subset
                # of the run, indexed by the subset's bits within the run
                unions = []
                for start in range(0, n, 8):
                    chunk = holders[start : start + 8]
                    entries = [0] * (1 << len(chunk))
                    for s in range(1, len(entries)):
                        low = s & -s
                        entries[s] = entries[s ^ low] | chunk[low.bit_length() - 1]
                    unions.append(entries)
                for j, k in enumerate(masks):
                    union = 1 << j
                    outside = full ^ k
                    for entries in unions:
                        union |= entries[outside & 255]
                        outside >>= 8
                    subs = every ^ union
                    rest = k
                    while rest:
                        low = rest & -rest
                        if not holders[low.bit_length() - 1] & subs:
                            subs = 0
                            break
                        rest ^= low
                    out.append(subs)
            else:
                for j, k in enumerate(masks):
                    union = 1 << j
                    for x in BYTE_BITS[full ^ k]:
                        union |= holders[x]
                    subs = every ^ union
                    for x in BYTE_BITS[k]:
                        if not holders[x] & subs:
                            subs = 0
                            break
                    out.append(subs)
            self._witnesses = out
        return self._witnesses

    @property
    def cored(self) -> list[bool]:
        """Per element x: does x have a core block, that is, is N(x) a
        block."""
        if self._cored is None:
            blocks = set(self.masks)
            self._cored = [m in blocks for m in self.nbh]
        return self._cored


def pick(c: Covering, mask: int) -> list[Block]:
    """The blocks of ``c`` at the set bits of a block-index mask, in
    canonical order."""
    # Each set-bit walk is written inline: see Block.members.
    out = []
    while mask:
        low = mask & -mask
        out.append(c.blocks[low.bit_length() - 1])
        mask ^= low
    return out


def table(c: Covering) -> BitTable:
    """The bit table of ``c``.  Built on first use and kept on ``c``, so
    every operator applied to one covering shares a single pass.  Two
    threads may both build it; the tables they build are equal."""
    t = c._table
    if t is None:
        t = BitTable(c.universe.size, [b.bits for b in c.blocks])
        object.__setattr__(c, "_table", t)
    return t
