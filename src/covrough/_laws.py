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
109, 32297 and 2147321017 coverings (OEIS A003465).  The walk also carries
each covering's per-element tables and proper-subset unions down from its
parent, so the law checker does not rebuild them.  README "Limits" gives
the times of ``verify_laws(4)`` and ``verify_laws(5)``, and of checking all
32297 labelled 4-element coverings one by one.

The law checker works on raw bit vectors rather than on the public types;
the public operations are exercised against it by the test suite.  This
module imports only the standard library, so it cannot reach the code it
checks.
"""

from __future__ import annotations

import functools
from itertools import permutations
from math import factorial
from operator import and_, eq, or_
from typing import Iterable, Iterator

# Coverings up to relabelling, the representatives verify_laws checks, per
# universe size (OEIS A055621).
_ORBIT_COUNTS = {1: 1, 2: 4, 3: 34, 4: 1952, 5: 18664632}

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
    mask under every non-identity relabelling, so a child's images are its
    parent's with one bit each added.  A child is canonical iff none of
    its images exceeds it, and the images equal to it count Aut less the
    identity.  A branch whose union cannot reach the whole universe with
    the smaller subsets still to come is cut.

    The checker's state is carried down the same way.  The added subset s
    is below every chosen block and becomes block 0: each element's
    neighborhood meets s if s holds it, each element's block-index set
    shifts up by one and takes bit 0 if s holds it, and s, a proper subset
    of every chosen block that contains it, joins those blocks'
    proper-subset unions.  s itself has no proper-subset block.
    """
    columns = _relabelling_columns(n)
    meets, member = _element_columns(n)
    full = (1 << n) - 1
    order = factorial(n)
    # (family mask, bits still allowed, chosen subsets, their union, images,
    # neighborhoods, block-index sets, proper-subset unions)
    stack = [(0, full, (), 0, [0] * (order - 1), (-1,) * n, (0,) * n, ())]
    while stack:
        family, low, masks, union, images, nbh, blkidx, unions = stack.pop()
        for j in range(low):
            # only subsets 1..j may follow; cut if they cannot finish the cover
            covered = union | (j + 1)
            if covered | ((1 << j.bit_length()) - 1) != full:
                continue
            child = family | 1 << j
            child_images = list(map(or_, images, columns[j]))
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
            stack.append((child, j, child_masks, covered, child_images, *state))


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


def _nesting_ok(nbh: list[int]) -> bool:
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
    image_laws: dict[tuple[int, ...], list[str]],
    state: _CoveringState,
) -> tuple[bool, bool, bool, bool, list[str]]:
    """Run every law against one covering given as raw bit vectors.

    The per-covering laws are checked on every call.  The image laws
    (``_image_laws``) read only the neighborhoods family, which many
    coverings share: ``image_laws`` maps each image checked so far in the
    run to the laws it breaks.  ``state`` is the covering's state as the
    orbit walk carries it, equal to ``_covering_state(n, masks)``.
    Returns (is_partition, is_irreducible, is_invariable, is_fixed_point,
    violated law names).
    """
    bad: list[str] = []
    nbh, blkidx, unions = state
    deg = [s.bit_count() for s in blkidx]

    # every element sits inside its own neighborhood
    if any(not nbh[x] >> x & 1 for x in range(n)):
        bad.append("neighborhood-reflexive")
    if not _nesting_ok(nbh):
        bad.append("neighborhood-nesting")

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

    core_set = {g for _, g in cored}
    # a block that is no core block has two or more members, each of them
    # in two or more blocks
    lonely = sum(1 << x for x in range(n) if deg[x] <= 1)
    if any(
        m not in core_set and (m.bit_count() <= 1 or m & lonely) for m in masks
    ):
        bad.append("non-core-block-structure")

    reducible = _reducible_flags(masks, unions)
    if any(r and masks[j] in core_set for j, r in enumerate(reducible)):
        bad.append("reducible-not-core")
    all_cored = all(g is not None for g in scan)
    if all_cored and any(
        not r and masks[j] not in core_set for j, r in enumerate(reducible)
    ):
        bad.append("all-cored-non-core-reducible")

    # classification flags and the fixed-point characterizations; the
    # blocks cover all n elements, so they are disjoint iff their sizes
    # sum to n
    partition = sum(map(int.bit_count, masks)) == n
    irreducible = not any(reducible)
    invariable = irreducible and all_cored
    covfam = tuple(sorted(set(nbh)))
    fixed = covfam == masks

    if partition and not fixed:
        bad.append("partition-fixed-point")
    if invariable != fixed:
        bad.append("invariable-iff-fixed-point")
    if invariable != (all_cored and all(m in core_set for m in masks)):
        bad.append("invariable-iff-blocks-all-core")

    laws = image_laws.get(covfam)
    if laws is None:
        laws = image_laws[covfam] = _image_laws(n, covfam)
    bad += laws

    # cheap necessary conditions never fire on a fixed point
    if fixed and (len(masks) > n or any(reducible)):
        bad.append("quick-reject-sound")

    # the iterative reduct keeps exactly the blocks that were irreducible
    # to begin with, so the library's one-pass reduct is sound
    reduced = _reduct_masks(masks)
    if reduced != tuple([m for m, r in zip(masks, reducible) if not r]):
        bad.append("reduct-one-pass")
    if _cov_masks(n, reduced) != covfam:
        bad.append("reduct-preserves-neighborhoods")

    return partition, irreducible, invariable, fixed, bad
