"""Independent reference computations on raw bit vectors.

Nothing here imports covrough: these routines are the benchmark's own
route to the answers it checks the program's outputs against.  A family is
a collection of ints, bit ``i`` standing for element ``i``.
"""

from __future__ import annotations

from collections import Counter

# verify_laws(n) summaries for the universe sizes the benchmark enumerates.
# n=4: 32297 coverings (OEIS A003465), 355 fixed points (OEIS A000798).
SUMMARY = {
    3: {"total": 109, "partitions": 5, "irreducible": 45, "invariable": 29,
        "fixed_points": 29, "violations": 0},
    4: {"total": 32297, "partitions": 15, "irreducible": 2271,
        "invariable": 355, "fixed_points": 355, "violations": 0},
}
# Preimage counts of the discrete family {{1}, ..., {n}}.
DISCRETE_PREIMAGES = {3: 36, 4: 19020}


def bits_of(universe: list[str], blocks: list[list[str]]) -> list[int]:
    index = {name: i for i, name in enumerate(universe)}
    out = []
    for block in blocks:
        bits = 0
        for label in block:
            bits |= 1 << index[label]
        out.append(bits)
    return out


def labels_of(universe: list[str], bits: int) -> list[str]:
    return [name for i, name in enumerate(universe) if bits >> i & 1]


def neighborhoods(n: int, family) -> list[int]:
    """N(x) per element: the intersection of the blocks containing x."""
    nbh = [-1] * n
    for m in family:
        rest = m
        while rest:
            low = rest & -rest
            nbh[low.bit_length() - 1] &= m
            rest ^= low
    return nbh


def cov(n: int, family) -> tuple[int, ...]:
    """The neighborhoods family, ascending."""
    return tuple(sorted(set(neighborhoods(n, family))))


def reducible(n: int, family) -> set[int]:
    """Blocks equal to the union of the other blocks they contain.

    Bit-parallel over block indices: the blocks contained in k are those
    containing no element outside k, so one AND-NOT per outside element
    finds them all, instead of one subset test per pair of blocks.
    """
    blocks = list(family)
    holders = [0] * n
    for j, m in enumerate(blocks):
        rest = m
        while rest:
            low = rest & -rest
            holders[low.bit_length() - 1] |= 1 << j
            rest ^= low
    everyone = (1 << len(blocks)) - 1
    out = set()
    for j, k in enumerate(blocks):
        inside = everyone & ~(1 << j)
        for x in range(n):
            if not k >> x & 1:
                inside &= ~holders[x]
        union = 0
        while inside:
            low = inside & -inside
            union |= blocks[low.bit_length() - 1]
            inside ^= low
        if union == k:
            out.add(k)
    return out


def is_partition(family) -> bool:
    union = 0
    for m in family:
        if union & m:
            return False
        union |= m
    return True


def pair_degrees(n: int, family) -> list[list[int]]:
    """lambda[x][y]: the number of blocks containing both x and y."""
    holders = [0] * n
    for j, m in enumerate(family):
        for x in range(n):
            if m >> x & 1:
                holders[x] |= 1 << j
    return [[(holders[x] & holders[y]).bit_count() for y in range(n)]
            for x in range(n)]


def image_tally(n: int) -> Counter:
    """Cov image -> number of coverings of an n-element universe with it.

    Walks every family of nonempty subsets, as the oracle does, but with
    its own decoding and neighborhood code.
    """
    full = (1 << n) - 1
    tally: Counter = Counter()
    for fam in range(1, 1 << full):
        masks = [j + 1 for j in range(full) if fam >> j & 1]
        union = 0
        for m in masks:
            union |= m
        if union == full:
            tally[cov(n, masks)] += 1
    return tally
