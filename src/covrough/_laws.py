"""The paper's laws checked on one covering at a time, and the walk over
one covering per relabelling orbit that feeds the checker.

Verification checks one covering per relabelling orbit.  Every law is a
statement about neighborhoods, repeat degrees, core blocks and reducibility,
none of which depends on the names of the elements, so each orbit's
representative stands for the whole orbit and its results count once per
member.  The representatives come from orderly generation (Read, "Every one
a winner", 1978): a family mask is canonical when no relabelling maps it to
a larger integer, and a depth-first walk that adds one subset below the
lowest chosen one reaches each canonical mask exactly once.  There are 1, 4,
34, 1952 and 18664632 of them for n = 1..5 (OEIS A055621), against 1, 5,
109, 32297 and 2147321017 coverings (OEIS A003465).

The walk compares each family with its images under the relabellings that
are still live, and drops the others for good (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Let a relabelling s map a
family F to s(F) < F, with p the highest bit where the two differ: F holds
p and s(F) does not.  Every family below F in the walk adds only bits below
F's lowest one, so below p.  If s maps each subset that may still be added
to a bit below p, each such family and its image under s still agree above
p, and only the family holds p: the image stays strictly smaller.  So s
can neither reject a family below F nor tie with one, and dropping it
changes neither which families are canonical nor their weights.

The walk also carries each covering's per-element tables and proper-subset
unions down from its parent, so the law checker does not rebuild them.
README "Limits" gives the times of ``verify_laws(4)`` and
``verify_laws(5)``, and of checking all 32297 labelled 4-element coverings
one by one.

The law checker works on raw bit vectors rather than on the public types;
the public operations are exercised against it by the test suite.  This
module imports only the standard library, so it cannot reach the code it
checks.
"""

from __future__ import annotations

import functools
from itertools import compress, permutations, repeat
from math import factorial
from operator import and_, eq, itemgetter, lt, or_, xor
from typing import Callable, Iterable, Iterator

# Coverings up to relabelling, the representatives verify_laws checks, per
# universe size (OEIS A055621).
_ORBIT_COUNTS = {1: 1, 2: 4, 3: 34, 4: 1952, 5: 18664632}

# The orbit walk drops dead relabellings only below the children whose
# lowest family-mask bit is at least this (see _orbit_representatives).
_FILTER_FROM = 4

# A covering's per-element neighborhoods and block-index sets, and its
# per-block proper-subset unions, as the orbit walk carries them.
_CoveringState = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


# --- one covering per relabelling orbit -------------------------------------


@functools.cache  # built on first use per n, never at import
def _relabelling_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """Per family-mask bit j: the family-mask bit of the subset j + 1 under
    every non-identity relabelling of the n elements, in one fixed order."""
    relabellings = list(permutations(range(n)))[1:]  # the first is the identity
    columns = []
    for subset in range(1, 1 << n):
        members = [x for x in range(n) if subset >> x & 1]
        images = (sum(1 << p[x] for x in members) for p in relabellings)
        columns.append(tuple(1 << (image - 1) for image in images))
    return tuple(columns)


@functools.cache  # built on first use per n, never at import
def _relabelling_bounds(n: int) -> tuple[tuple[int, ...], ...]:
    """Per family-mask bit j, per relabelling as in ``_relabelling_columns``:
    2 << h, where h is the highest family-mask bit the relabelling gives
    the subsets 1..j, the ones that may still join a family whose lowest
    bit is j (1 for j = 0, where none may).  For such a family F and an
    image below it, the XOR of the two is under this bound exactly when
    its top bit, the highest bit where they differ, is at most h: when the
    relabelling can still matter below F."""
    columns = _relabelling_columns(n)
    bounds = [(1,) * len(columns[0])]
    for column in columns[:-1]:
        bounds.append(tuple(map(max, bounds[-1], [c << 1 for c in column])))
    return tuple(bounds)


def _gatherer(live: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A function that picks the entries at the indices ``live`` of a
    tuple, as a tuple, in that order."""
    if len(live) > 1:
        return itemgetter(*live)
    return lambda column: tuple([column[i] for i in live])


@functools.cache  # built on first use per n, never at import
def _element_columns(
    n: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per family-mask bit j, over the elements x, for the subset j + 1:
    the subset where it holds x and -1, which every intersection leaves
    alone, elsewhere; and whether it holds x, as 1 or 0."""
    subsets = range(1, 1 << n)
    meets = tuple(tuple(m if m >> x & 1 else -1 for x in range(n)) for m in subsets)
    member = tuple(tuple(m >> x & 1 for x in range(n)) for m in subsets)
    return meets, member


def _orbit_representatives(
    n: int,
) -> Iterator[tuple[tuple[int, ...], int, _CoveringState]]:
    """One covering per relabelling orbit, with the size of its orbit and
    the law checker's per-covering state.

    Yields ``(masks, weight, state)``: ``masks`` is the ascending tuple of
    subset bit vectors of the orbit's canonical family, the one whose
    family mask is the largest integer in the orbit, and ``weight`` is
    n!/|Aut|.  ``state`` is ``(nbh, blkidx, unions)`` and equals
    ``_covering_state(n, masks)``.

    Orderly generation: dropping the lowest bit of a canonical mask leaves
    a canonical mask, so a depth-first walk that adds one bit below the
    lowest chosen one and keeps only canonical children reaches every
    canonical mask exactly once.  Each state carries the images of its
    mask under the live relabellings, so a child's images are its
    parent's with one bit each added.  A child is canonical iff none of
    its images exceeds it, and the images equal to it count Aut less the
    identity.  A branch whose union cannot reach the whole universe with
    the smaller subsets still to come is cut.

    A relabelling is live until it can no longer matter (McKay,
    J. Algorithms 26, 1998; see the module docstring).  Let a child F have
    an image s(F) < F whose highest differing bit p lies above every bit
    that s gives the subsets still allowed below F.  Each descendant adds
    only such subsets, so it and its image under s still differ first at
    p, where the descendant holds the bit: s can neither reject it nor tie
    with it, and F's children leave s out.  ``_relabelling_bounds`` makes
    this test one comparison per image.

    Only the children whose lowest bit j is at least ``_FILTER_FROM`` = 4
    are filtered, as the others have too few descendants to repay a pass
    over their images.  Medians of 8 to 10 alternating rounds, each the
    best of up to 50 walks, on a 2-core, shared Intel Xeon (Python
    3.11.7), with no filtering, filtering every child and filtering from
    j = 4: n = 3 took 0.173, 0.229 and 0.173 ms, and n = 4 took 13.8, 15.3
    and 12.4 ms.  The first 50000 representatives of n = 5 took 21-23 us
    each with no filtering and 7.6-7.7 us from j = 4; from j = 6 they took
    8.3-9.1 us.

    The checker's state is carried down the same way.  The added subset s
    is below every chosen block and becomes block 0: each element's
    neighborhood meets s if s holds it, each element's block-index set
    shifts up by one and takes bit 0 if s holds it, and s, a proper subset
    of every chosen block that contains it, joins those blocks'
    proper-subset unions.  s itself has no proper-subset block.
    """
    columns = _relabelling_columns(n)
    bounds = _relabelling_bounds(n)
    meets, member = _element_columns(n)
    full = (1 << n) - 1
    order = factorial(n)
    live = tuple(range(order - 1))
    # (family mask, bits still allowed, chosen subsets, their union, images
    # under the live relabellings, the live relabellings, their gatherer,
    # neighborhoods, block-index sets, proper-subset unions); while every
    # relabelling is live, the gatherer is tuple, which returns a tuple as
    # it is
    stack = [(0, full, (), 0, [0] * len(live), live, tuple, (-1,) * n, (0,) * n, ())]
    while stack:
        family, low, masks, union, images, live, gather, nbh, blkidx, unions = (
            stack.pop()
        )
        for j in range(low):
            # only subsets 1..j may follow; cut if they cannot finish the cover
            covered = union | (j + 1)
            if covered | ((1 << j.bit_length()) - 1) != full:
                continue
            child = family | 1 << j
            child_images = list(map(or_, images, gather(columns[j])))
            if max(child_images, default=0) > child:
                continue
            s = j + 1
            state = (
                tuple(map(and_, nbh, meets[j])),
                tuple([b << 1 | i for b, i in zip(blkidx, member[j])]),
                (0,)
                + tuple(u | s if s & ~k == 0 else u for k, u in zip(masks, unions)),
            )
            child_masks = (s,) + masks
            if covered == full:
                yield child_masks, order // (child_images.count(child) + 1), state
            # the child's children keep the images that can still matter
            child_live, child_gather = live, gather
            if j >= _FILTER_FROM:
                diffs = map(xor, child_images, repeat(child))
                keep = list(map(lt, diffs, gather(bounds[j])))
                if not all(keep):
                    child_live = tuple(compress(live, keep))
                    child_images = list(compress(child_images, keep))
                    child_gather = _gatherer(child_live)
            stack.append(
                (child, j, child_masks, covered, child_images, child_live, child_gather)
                + state
            )


# --- raw bit-vector law checks ----------------------------------------------


def _element_tables(n: int, masks: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Per element: intersection of containing blocks, and the set of
    containing blocks as a bitmask over block indices."""
    nbh = [-1] * n
    blkidx = [0] * n
    for j, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            x = low.bit_length() - 1
            nbh[x] &= m
            blkidx[x] |= 1 << j
            mm ^= low
    return nbh, blkidx


@functools.cache  # built on first use per n, never at import
def _pair_fields(n: int) -> tuple[int, ...]:
    """Per subset m of the n elements: an int with one 8-bit field per
    ordered pair (x, y), at byte x * n + y, that is 1 when m holds both x
    and y and 0 otherwise."""
    fields = []
    for m in range(1 << n):
        members = [x for x in range(n) if m >> x & 1]
        fields.append(sum(1 << 8 * (x * n + y) for x in members for y in members))
    return tuple(fields)


def _pair_counts(n: int, masks: Iterable[int]) -> bytes:
    """lambda(x, y) for every ordered pair, row by row, one byte each:
    the blocks that hold both x and y, counted from the blocks themselves
    in one sum of their ``_pair_fields``.  No field carries into the next,
    since a count is at most the number of blocks, at most 2^n - 1 = 31
    for n <= 5."""
    return sum(map(_pair_fields(n).__getitem__, masks)).to_bytes(n * n, "little")


def _cov_masks(n: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    nbh, _ = _element_tables(n, masks)
    return tuple(sorted(set(nbh)))


def _subset_union(k: int, masks: Iterable[int]) -> int:
    """Union of the members of ``masks`` that are proper subsets of ``k``;
    it rebuilds ``k`` exactly when ``k`` is reducible among them."""
    union = 0
    for m in masks:
        if m != k and m & ~k == 0:
            union |= m
    return union


def _covering_state(n: int, masks: tuple[int, ...]) -> _CoveringState:
    """The law checker's state computed from the blocks alone, in the form
    the orbit walk carries it: per element its neighborhood and its
    block-index set (``_element_tables``), and per block its
    ``_subset_union`` among the blocks."""
    nbh, blkidx = _element_tables(n, masks)
    unions = tuple([_subset_union(k, masks) for k in masks])
    return tuple(nbh), tuple(blkidx), unions


def _reducible_flags(masks: tuple[int, ...], unions: Iterable[int]) -> list[bool]:
    """Per block: does the union of its proper-subset blocks, given one
    per block in ``unions``, rebuild it."""
    return list(map(eq, unions, masks))


def _reduct_masks(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Delete reducible blocks one at a time, in ascending block order,
    testing each block once against the blocks kept before it.

    This makes the same deletions as testing each block against every
    block still there, and as restarting the scan after every deletion.  A
    proper subset of k is a smaller integer, so among ascending blocks it
    comes before k: the blocks after k never count towards k, and those
    before it that are still there are the ones kept.  A deletion only
    shrinks the union of a later block's proper subsets, so a block once
    found irreducible stays irreducible and a restart would find nothing
    more."""
    kept: list[int] = []
    for k in masks:
        if _subset_union(k, kept) != k:
            kept.append(k)
    return tuple(kept)


def _no_union_ok(family: tuple[int, ...]) -> bool:
    """No member equals the union of a nonempty subfamily of the others,
    checked by literal subfamily enumeration."""
    fam = list(family)
    for i, target in enumerate(fam):
        others = fam[:i] + fam[i + 1 :]
        for pick in range(1, 1 << len(others)):
            union = 0
            p = pick
            while p:
                low = p & -p
                union |= others[low.bit_length() - 1]
                p ^= low
            if union == target:
                return False
    return True


def _image_laws(n: int, image: tuple[int, ...]) -> list[str]:
    """The laws that read only the neighborhoods family: no block of it is
    a union of the others, and the operator is idempotent, so every image
    is a fixed point and every fixed point is its own preimage."""
    bad = []
    if not _no_union_ok(image):
        bad.append("cov-no-union")
    if _cov_masks(n, image) != image:
        bad.append("cov-idempotent")
    return bad


def _neighborhood_laws(
    n: int, nbh: tuple[int, ...]
) -> tuple[list[str], tuple[int, ...], list[str]]:
    """What reads only the neighborhoods N(x), given per element: the
    element laws they break, the neighborhoods family, and the image laws
    (``_image_laws``) that family breaks."""
    bad = []
    # every element sits inside its own neighborhood
    if any(not nbh[x] >> x & 1 for x in range(n)):
        bad.append("neighborhood-reflexive")
    if not _nesting_ok(nbh):
        bad.append("neighborhood-nesting")
    covfam = tuple(sorted(set(nbh)))
    return bad, covfam, _image_laws(n, covfam)


def _nesting_ok(nbh: tuple[int, ...]) -> bool:
    """y in N(x) forces N(y) inside N(x); mutual membership forces
    equality."""
    for x, nx in enumerate(nbh):
        rest = nx
        while rest:
            low = rest & -rest
            ny = nbh[low.bit_length() - 1]
            if ny & ~nx or ny >> x & 1 and ny != nx:
                return False
            rest ^= low
    return True


def _core_scan(
    n: int, masks: tuple[int, ...], blkidx: list[int], lam: list[list[int]]
) -> tuple[list[int | None], bool, list[int]]:
    """Definitional core-block scan: for each element x, the blocks K with
    x in K whose every member y shares all of x's blocks, tested as
    lambda(x, y) = lambda(x, x) = deg(x).  With lambda(x, y) the popcount
    of S_x & S_y, that equality holds exactly when S_x is a subset of S_y.
    Returns the first such block per element, whether no scan found two,
    and the meet of each element's blocks."""
    result: list[int | None] = [None] * n
    unique = True
    meets = [-1] * n
    for x in range(n):
        lx = lam[x]
        sharing = 0
        for y in range(n):
            if lx[y] == lx[x]:
                sharing |= 1 << y
        bi = blkidx[x]
        while bi:
            low = bi & -bi
            m = masks[low.bit_length() - 1]
            meets[x] &= m
            if m & ~sharing == 0:
                if result[x] is None:
                    result[x] = m
                else:
                    unique = False
            bi ^= low
    return result, unique, meets


def _check_covering(
    n: int,
    masks: tuple[int, ...],
    memo: dict[tuple[int, ...], tuple[list[str], tuple[int, ...], list[str]]],
    state: _CoveringState,
) -> tuple[bool, bool, bool, bool, list[str]]:
    """Run every law against one covering given as raw bit vectors.

    ``state`` is the covering's state as the orbit walk carries it, equal
    to ``_covering_state(n, masks)``.  The element laws, the neighborhoods
    family and the image laws read only its neighborhoods ``nbh``, which
    many coverings share: there is one ``nbh`` per labelled preorder, 355
    at n = 4 and 4231 at n = 5 (OEIS A000798), and the 1952
    representatives of n = 4 meet 48 of them.  So ``memo`` maps each
    ``nbh`` checked so far in the run to those three
    (``_neighborhood_laws``), and the rest is checked on every call.
    Returns (is_partition, is_irreducible, is_invariable, is_fixed_point,
    violated law names), the names in one fixed order.
    """
    nbh, blkidx, unions = state
    entry = memo.get(nbh)
    if entry is None:
        entry = memo[nbh] = _neighborhood_laws(n, nbh)
    element_bad, covfam, image_bad = entry
    bad = element_bad[:]
    deg = [s.bit_count() for s in blkidx]

    # pair degrees, via block-index sets and, independently, counted from
    # the blocks
    lam = [[(bx & by).bit_count() for by in blkidx] for bx in blkidx]
    if bytes([v for row in lam for v in row]) != _pair_counts(n, masks):
        bad.append("lambda-consistent")

    # core blocks: definitional scan against the intersection route
    maskset = set(masks)
    scan, unique, meets = _core_scan(n, masks, blkidx, lam)
    if not unique:
        bad.append("core-block-unique")
    routes = [nbh[x] if nbh[x] in maskset else None for x in range(n)]
    if scan != routes:
        bad.append("core-block-routes-agree")
    cored = [(x, g) for x, g in enumerate(scan) if g is not None]
    if any(g != nbh[x] for x, g in cored):
        bad.append("core-block-is-neighborhood")
    if any(g & ~meets[x] for x, g in cored):
        bad.append("core-block-minimal")

    # one pass over the blocks for four laws: a block that is no core
    # block has two or more members, each of them in two or more blocks; a
    # reducible block is no core block; when every element has a core
    # block, every other block is reducible; and, below, invariable iff
    # every block is a core block.  Four any() scans instead took
    # verify_laws(4) from 60.5 to 66.6 ms.
    core_set = {g for _, g in cored}
    lonely = sum(1 << x for x in range(n) if deg[x] <= 1)
    reducible = _reducible_flags(masks, unions)
    structure_broken = reducible_core = irreducible_non_core = any_reducible = False
    all_core = True
    for m, r in zip(masks, reducible):
        if r:
            any_reducible = True
        if m in core_set:
            if r:
                reducible_core = True
        else:
            all_core = False
            if m.bit_count() <= 1 or m & lonely:
                structure_broken = True
            if not r:
                irreducible_non_core = True
    if structure_broken:
        bad.append("non-core-block-structure")
    if reducible_core:
        bad.append("reducible-not-core")
    all_cored = len(cored) == n
    if all_cored and irreducible_non_core:
        bad.append("all-cored-non-core-reducible")

    # classification flags and the fixed-point characterizations; the
    # blocks cover all n elements, so they are disjoint iff their sizes
    # sum to n
    partition = sum(map(int.bit_count, masks)) == n
    irreducible = not any_reducible
    invariable = irreducible and all_cored
    fixed = covfam == masks

    if partition and not fixed:
        bad.append("partition-fixed-point")
    if invariable != fixed:
        bad.append("invariable-iff-fixed-point")
    if invariable != (all_cored and all_core):
        bad.append("invariable-iff-blocks-all-core")

    bad += image_bad

    # cheap necessary conditions never fire on a fixed point
    if fixed and (len(masks) > n or any_reducible):
        bad.append("quick-reject-sound")

    # the iterative reduct keeps exactly the blocks that were irreducible
    # to begin with, so the library's one-pass reduct is sound
    reduced = _reduct_masks(masks)
    if reduced != tuple([m for m, r in zip(masks, reducible) if not r]):
        bad.append("reduct-one-pass")
    if _cov_masks(n, reduced) != covfam:
        bad.append("reduct-preserves-neighborhoods")

    return partition, irreducible, invariable, fixed, bad
