"""Brute-force reference implementations used as independent test oracles.

Deliberately naive: plain frozensets, literal subfamily enumeration, and
definitional scans.  Nothing here shares code with the package's bit-vector
paths, so agreement between the two is meaningful.
"""

from functools import cache
from itertools import chain, combinations, permutations
from math import comb


def powerset(items):
    s = list(items)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def family_of(c):
    """A covering as a frozenset of frozensets of labels."""
    return frozenset(frozenset(b.members()) for b in c.blocks)


def cov_bruteforce(c):
    """Neighborhoods family via per-element frozenset intersections."""
    fam = family_of(c)
    out = set()
    for x in c.universe.names:
        containing = [k for k in fam if x in k]
        out.add(frozenset.intersection(*containing))
    return frozenset(out)


def is_union_of_others(fam, member):
    """Literal subfamily enumeration of the reducibility condition."""
    others = [k for k in fam if k != member]
    for sub in powerset(others):
        if sub and frozenset().union(*sub) == member:
            return True
    return False


def reduct_restarting(blocks):
    """The blocks, in order, with reducible ones deleted one at a time: the
    first block that is the union of its proper subsets among the blocks
    left goes, and the scan starts again from the first block."""
    left = list(blocks)
    while True:
        for i, k in enumerate(left):
            if frozenset().union(*(m for m in left if m < k)) == k:
                del left[i]
                break
        else:
            return left


def coverings_bruteforce(labels):
    """Every covering of the given labels, as frozensets of frozensets."""
    universe = frozenset(labels)
    subsets = [frozenset(s) for s in powerset(universe) if s]
    for fam in powerset(subsets):
        if fam and frozenset().union(*fam) == universe:
            yield frozenset(fam)


def covering_masks_scan(n):
    """Every covering of range(n) as an ascending tuple of subset bit
    vectors (bit i for element i), scanning the family masks 1, 2, 3, ...
    in turn: family-mask bit j selects the subset whose bit vector is
    j + 1, and a family is kept when its union is range(n)."""
    full = (1 << n) - 1
    for fam in range(1, 1 << full):
        masks = tuple(j + 1 for j in range(full) if fam >> j & 1)
        union = 0
        for m in masks:
            union |= m
        if union == full:
            yield masks


def covering_count_closed_form(n):
    """Inclusion-exclusion over the elements missed by the union."""
    return sum(
        (-1) ** k * comb(n, k) * 2 ** (2 ** (n - k) - 1) for k in range(n + 1)
    )


def membership_degree_scan(c, x):
    """Membership repeat degree: the blocks that contain x, counted."""
    return sum(1 for k in family_of(c) if x in k)


def common_degree_scan(c, x, y):
    """Common block repeat degree: the blocks that contain x and y, counted."""
    return sum(1 for k in family_of(c) if x in k and y in k)


def pair_count_definitional(masks, x, y):
    """The blocks, given as subset bit vectors, that hold both x and y,
    counted one by one."""
    pair = (1 << x) | (1 << y)
    return sum(1 for m in masks if m & pair == pair)


def core_block_definitional(c, x):
    """Definitional core-block scan: every block containing x whose members
    all share the full set of x's blocks, measured through the degree
    scans above.  Asserts uniqueness and returns the block or None."""
    deg = membership_degree_scan(c, x)
    hits = [
        b
        for b in c.blocks
        if x in b.members()
        and all(common_degree_scan(c, x, y) == deg for y in b.members())
    ]
    assert len(hits) <= 1, f"core block of {x!r} is not unique in {c}"
    return hits[0] if hits else None


def downsets_bruteforce(c):
    """The nonempty down-sets of the preorder of a fixed point ``c`` of
    Cov, y <= x iff y lies in every block that holds x, as frozensets of
    labels: every nonempty set of labels that holds, with each of its
    labels, all those below it."""
    fam = family_of(c)
    below = {
        x: frozenset.intersection(*[k for k in fam if x in k])
        for x in c.universe.names
    }
    return {
        frozenset(s)
        for s in powerset(c.universe.names)
        if s and all(below[x] <= set(s) for x in s)
    }


def family_of_masks(masks):
    """A family given as subset bit vectors (bit i for element i), as a
    frozenset of frozensets of element indices."""
    return frozenset(
        frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in masks
    )


def family_mask(fam):
    """The integer whose bit v - 1 is set for every member whose bit vector
    (bit i for element i) is v."""
    return sum(map(_member_bit, fam))


@cache  # the member sets repeat across families; this keeps n=5 cheap
def _member_bit(k):
    return 1 << (sum(1 << i for i in k) - 1)


@cache  # one table per n, shared by every orbit
def _relabelled_subsets(n):
    """Per relabelling of range(n): every subset mapped to its image."""
    subsets = [frozenset(k) for k in powerset(range(n))]
    return [
        {k: frozenset(p[i] for i in k) for k in subsets}
        for p in permutations(range(n))
    ]


def orbit_bruteforce(fam, n):
    """Every distinct image of a family of subsets of range(n) under the n!
    relabellings of the elements."""
    return {frozenset(map(image.__getitem__, fam)) for image in _relabelled_subsets(n)}
