"""Exhaustive enumeration of coverings of small universes and machine
verification of the structural laws relating neighborhoods, repeat degrees,
core blocks, reduction, and invariability.

Enumeration and the preimage search share one depth-first walk over the
families of a list of subsets, in ascending family-mask order: coverings
are the families of all 2**n - 1 nonempty subsets whose union is the
universe.  The order is deterministic and simple enough to re-implement
independently, which the test suite does.

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
parent, so the law checker does not rebuild them.  On one core of a
2-core, shared Intel Xeon (Python 3.11), ``verify_laws(4)`` takes about
0.11 s this way, where checking all 32297 labelled coverings takes about
2.7 s, and ``verify_laws(5)`` takes about 40 minutes.

The law checker works on raw bit vectors rather than on the public types;
the public operations are exercised against it by the test suite.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from operator import and_, eq, or_
from typing import Iterable, Iterator

from ._table import table
from .errors import UniverseTooLarge
from .neighborhoods import cov, is_cov_fixed_point
from .reduction import is_invariable
from .setsys import Block, Covering, Universe, covering_to_dict, is_partition

# Enumeration is capped where exhaustion stops being a desk-scale job:
# n=5 already yields on the order of 2**31 candidate families, and even
# their 18664632 orbits take about 40 minutes to verify.
MAX_ENUMERATION_SIZE = 5
MAX_PREIMAGE_SIZE = 4

# Coverings up to relabelling, the representatives verify_laws checks, per
# universe size (OEIS A055621).
_ORBIT_COUNTS = {1: 1, 2: 4, 3: 34, 4: 1952, 5: 18664632}

# A covering's per-element neighborhoods and block-index sets, and its
# per-block proper-subset unions, as the orbit walk carries them.
_CoveringState = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

# verify_laws logs its progress about this often, in seconds of wall time,
# and reads the clock once per this many representatives.
_PROGRESS_INTERVAL_S = 10.0
_PROGRESS_STRIDE = 1024


@dataclass(frozen=True)
class CensusRow:
    """One enumerated covering with its classification flags and image."""

    covering: Covering
    is_partition: bool
    is_irreducible: bool
    is_invariable: bool
    is_cov_fixed_point: bool
    cov_image: Covering


@dataclass(frozen=True)
class VerificationSummary:
    """Counts per classification flag plus every law violation found.

    The counts are over all coverings.  ``violations`` holds one
    ``(covering, law-name)`` pair per relabelling orbit that breaks the
    law, with the orbit's representative as the covering, and must be
    empty on a passing run.
    """

    universe_size: int
    total_coverings: int
    partitions: int
    irreducible: int
    invariable: int
    fixed_points: int
    violations: tuple[tuple[Covering, str], ...]


def summary_to_dict(s: VerificationSummary) -> dict:
    return {
        "n": s.universe_size,
        "total": s.total_coverings,
        "partitions": s.partitions,
        "irreducible": s.irreducible,
        "invariable": s.invariable,
        "fixed_points": s.fixed_points,
        "violations": [
            {"covering": covering_to_dict(c), "law": law} for c, law in s.violations
        ],
    }


def default_universe(n: int) -> Universe:
    """Universe labeled "1".."n", matching the worked examples."""
    return Universe(tuple(str(i) for i in range(1, n + 1)))


def _meet_columns(n: int, subsets: Iterable[int]) -> list[tuple[int, ...]]:
    """Per subset, over the elements x: the subset where it holds x and -1,
    which every intersection leaves alone, elsewhere."""
    return [tuple(m if m >> x & 1 else -1 for x in range(n)) for m in subsets]


def _families(
    n: int, subsets: list[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every family of ``subsets``, ascending bit vectors, in ascending
    family-mask order (bit i selects ``subsets[i]``), the empty one first.

    Yields ``(intersections, masks)``: per element x, the intersection of
    the members holding x, or -1 if none does; and the members, ascending.
    Depth first: each family is followed by those that add one subset
    below its lowest member, lowest first, which is counting up.
    """
    meets = _meet_columns(n, subsets)
    # (index of the highest subset still allowed, intersections, masks)
    stack = [(len(subsets) - 1, (-1,) * n, ())]
    while stack:
        i, inter, masks = stack.pop()
        yield inter, masks
        for j in range(i, -1, -1):
            stack.append(
                (j - 1, tuple(map(and_, inter, meets[j])), (subsets[j],) + masks)
            )


def _blocks_by_mask(universe: Universe) -> list[Block | None]:
    """One shared ``Block`` per nonempty subset, indexed by its bit vector
    (index 0, the empty set, holds ``None``).  Blocks are immutable, so the
    coverings built from one universe can all share them."""
    return [None] + [Block._of(universe, m) for m in range(1, universe.full_bits + 1)]


def _covering_from_masks(
    universe: Universe, blocks: list[Block | None], masks: Iterable[int]
) -> Covering:
    """``masks`` are distinct, ascending and cover the universe, as
    ``Covering._of`` requires."""
    return Covering._of(universe, tuple(blocks[m] for m in masks))


def enumerate_coverings(n: int) -> Iterator[Covering]:
    """Yield every covering of an n-element universe exactly once, in
    deterministic order.  Capped at n = 5."""
    universe = default_universe(_check_size(n))
    blocks = _blocks_by_mask(universe)
    for inter, masks in _families(n, list(range(1, universe.full_bits + 1))):
        if -1 not in inter:  # the union is the whole universe
            yield _covering_from_masks(universe, blocks, masks)


def _check_size(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"universe size must be an int; got {type(n).__name__}")
    if n < 1:
        raise ValueError("universe size must be at least 1")
    if n > MAX_ENUMERATION_SIZE:
        raise UniverseTooLarge(
            f"exhaustive enumeration is capped at {MAX_ENUMERATION_SIZE} "
            f"elements; got {n}"
        )
    return n


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
    its ``_meet_columns`` entry, and whether it holds x, as 1 or 0."""
    subsets = range(1, 1 << n)
    member = tuple(tuple(m >> x & 1 for x in range(n)) for m in subsets)
    return tuple(_meet_columns(n, subsets)), member


def _orbit_representatives(
    n: int,
) -> Iterator[tuple[tuple[int, ...], int, _CoveringState]]:
    """One covering per relabelling orbit, with the size of its orbit and
    the law checker's per-covering state.

    Yields ``(masks, weight, state)``: ``masks`` is the ascending tuple of
    subset bit vectors of the orbit's canonical family, the one whose
    family mask is the largest integer in the orbit, and ``weight`` is
    n!/|Aut|.  ``state`` is ``(nbh, blkidx, unions)``: the two tables
    ``_element_tables`` computes from ``masks``, and per block its
    ``_subset_union`` among them.

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


def _reducible_flags(
    masks: tuple[int, ...], unions: Iterable[int] | None = None
) -> list[bool]:
    """Per block: does the union of its proper-subset blocks rebuild it.
    ``unions`` holds those unions, one per block, if already known."""
    if unions is None:
        unions = [_subset_union(k, masks) for k in masks]
    return list(map(eq, unions, masks))


def _reduct_masks(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Delete reducible blocks one at a time, in block order, testing each
    block once against the blocks still there.  A scan that restarted after
    every deletion would find nothing more: a deletion only shrinks the
    union of a remaining block's proper subsets, so a block already found
    irreducible stays irreducible."""
    bits = list(masks)
    for k in masks:
        if _subset_union(k, bits) == k:
            bits.remove(k)
    return tuple(bits)


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


def _degrees_match_blocks(blkidx: list[int], lam: list[list[int]]) -> bool:
    """deg(x) = lambda(x, y) exactly when every block of x holds y."""
    for bx, lx in zip(blkidx, lam):
        dx = bx.bit_count()
        for by, lxy in zip(blkidx, lx):
            if (bx & by == bx) != (lxy == dx):
                return False
    return True


def _core_scan(
    n: int, masks: tuple[int, ...], blkidx: list[int], lam: list[list[int]]
) -> tuple[list[int | None], bool, list[int]]:
    """Definitional core-block scan: for each element x, the blocks K with
    x in K whose every member y shares all of x's blocks, which is
    lambda(x, y) = deg(x).  Returns the first such block per element,
    whether no scan found two, and the meet of each element's blocks."""
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


def _lambda_laws(lam: list[list[int]], deg: list[int]) -> list[str]:
    """The laws of the pair-degree matrix alone, row by row: it is
    symmetric, its diagonal holds the degrees, and no entry exceeds the
    smaller degree of its pair, that is, no row x holds more than deg(x)
    and no column y more than deg(y)."""
    bad = []
    columns = list(map(list, zip(*lam)))
    if columns != lam:
        bad.append("lambda-symmetric")
    if [row[x] for x, row in enumerate(lam)] != deg:
        bad.append("lambda-diagonal")
    if any(max(row) > d for row, d in zip(lam, deg)) or any(
        max(column) > d for column, d in zip(columns, deg)
    ):
        bad.append("lambda-bounded")
    return bad


def _check_covering(
    n: int,
    masks: tuple[int, ...],
    image_laws: dict[tuple[int, ...], list[str]],
    state: _CoveringState | None = None,
) -> tuple[bool, bool, bool, bool, list[str]]:
    """Run every law against one covering given as raw bit vectors.

    The per-covering laws are checked on every call.  The image laws
    (``_image_laws``) read only the neighborhoods family, which many
    coverings share: ``image_laws`` maps each image checked so far in the
    run to the laws it breaks.  ``state`` is the covering's state as the
    orbit walk carries it; without it, it is computed from ``masks``.
    Returns (is_partition, is_irreducible, is_invariable, is_fixed_point,
    violated law names).
    """
    bad: list[str] = []
    if state is None:
        nbh, blkidx = _element_tables(n, masks)
        unions = None
    else:
        nbh, blkidx, unions = state
    deg = [s.bit_count() for s in blkidx]

    # every element sits inside its own neighborhood
    if any(not nbh[x] >> x & 1 for x in range(n)):
        bad.append("neighborhood-reflexive")
    if not _nesting_ok(nbh):
        bad.append("neighborhood-nesting")

    # pair degrees, via block-index sets and, independently, a direct scan
    lam = [[0] * n for _ in range(n)]
    consistent = True
    for x in range(n):
        for y in range(x, n):
            lam[x][y] = lam[y][x] = (blkidx[x] & blkidx[y]).bit_count()
            pair = (1 << x) | (1 << y)
            if lam[x][y] != sum(1 for m in masks if m & pair == pair):
                consistent = False
    if not consistent:
        bad.append("lambda-consistent")
    bad += _lambda_laws(lam, deg)
    if not _degrees_match_blocks(blkidx, lam):
        bad.append("degree-equality-iff-same-blocks")

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


def verify_laws(n: int) -> VerificationSummary:
    """Check every law against every covering of an n-element universe.

    Checks one representative per relabelling orbit and counts its flags
    once per member of the orbit, so the totals are those of all coverings;
    each law a representative breaks is reported once, for the orbit.
    Streams the representatives, so memory stays flat.  n = 4 takes about
    0.11 s (1952 representatives for 32297 coverings), n = 5 about 40
    minutes on one core (18664632 representatives); n above 5 is refused.

    About every 10 s of wall time, a run logs one INFO record to the
    ``covrough.oracle`` logger with the representatives done out of the
    total, the rate since the previous record and the time left at that
    rate, so only runs that last that long report anything.  The records
    reach a caller only through its own logging configuration.
    """
    _check_size(n)
    universe = default_universe(n)
    blocks = _blocks_by_mask(universe)
    total = partitions = irreducible = invariable = fixed_points = 0
    violations: list[tuple[Covering, str]] = []
    # image -> the image laws it breaks, for this run only
    image_laws: dict[tuple[int, ...], list[str]] = {}
    # the representatives done and the clock at the last progress record
    last_done, last_time = 0, time.perf_counter()
    for done, (masks, weight, state) in enumerate(_orbit_representatives(n), 1):
        if not done % _PROGRESS_STRIDE:
            now = time.perf_counter()
            if now >= last_time + _PROGRESS_INTERVAL_S:
                rate = (done - last_done) / (now - last_time)
                _report_progress(n, done, rate)
                last_done, last_time = done, now
        p, irr, inv, fix, bad = _check_covering(n, masks, image_laws, state)
        total += weight
        partitions += p * weight
        irreducible += irr * weight
        invariable += inv * weight
        fixed_points += fix * weight
        for law in bad:
            violations.append((_covering_from_masks(universe, blocks, masks), law))
    return VerificationSummary(
        universe_size=n,
        total_coverings=total,
        partitions=partitions,
        irreducible=irreducible,
        invariable=invariable,
        fixed_points=fixed_points,
        violations=tuple(violations),
    )


def _report_progress(n: int, done: int, rate: float) -> None:
    """Log one progress record.  ``rate`` is the representatives per second
    since the previous record, not since the start: the walk meets the
    families with the most blocks first, so the mean rate so far
    understates the current one and its ETA would run high."""
    # Imported here, as only runs that last an interval log: importing
    # logging with the module added about 6 ms (Python 3.11) to the start
    # of every command.
    import logging

    total = _ORBIT_COUNTS[n]
    eta = (total - done) / rate
    logging.getLogger(__name__).info(
        "verify n=%d: %d/%d orbits, %.0f/s, ETA %.0f s", n, done, total, rate, eta
    )


def census(n: int) -> Iterator[CensusRow]:
    """Stream every covering with its classification flags, computed
    through the public operations (not the raw law checker)."""
    for c in enumerate_coverings(n):
        verdict = is_invariable(c)
        image = cov(c)
        yield CensusRow(
            covering=c,
            is_partition=is_partition(c),
            is_irreducible=not verdict.reducible_blocks,
            is_invariable=verdict.invariable,
            is_cov_fixed_point=image == c,
            cov_image=image,
        )


def preimages(d: Covering, limit: int | None = None) -> list[Covering]:
    """All coverings whose neighborhoods equal ``d``, in enumeration order.

    Empty exactly when ``d`` is not a fixed point; when it is one, the
    result contains ``d`` itself.  ``limit`` keeps only the first ``limit``
    results (none for 0).  A negative limit raises ``ValueError``, and one
    that is not an ``int`` raises ``TypeError``.  Capped at 4-element
    universes.

    The search is structural.  A fixed point ``d`` defines a preorder,
    y <= x iff y is in N(x), whose principal down-sets are the
    neighborhoods.  A covering C has Cov(C) = d iff every block of C is a
    down-set of this preorder and, for each x, the blocks of C containing
    x intersect to exactly N(x).  So only the families of down-sets are
    walked, by the walk ``enumerate_coverings`` takes over all subsets:
    the results come in enumeration order by construction.
    """
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int):
            raise TypeError(f"limit must be an int; got {type(limit).__name__}")
        if limit < 0:
            raise ValueError(f"limit must be at least 0; got {limit}")
    n = d.universe.size
    if n > MAX_PREIMAGE_SIZE:
        raise UniverseTooLarge(
            f"preimage search is capped at {MAX_PREIMAGE_SIZE} elements; got {n}"
        )
    found: list[Covering] = []
    if limit == 0 or not is_cov_fixed_point(d):
        return found
    down = table(d).nbh
    goal = tuple(down)
    downsets = [
        m
        for m in range(1, 1 << n)
        if all(down[x] & ~m == 0 for x in range(n) if m >> x & 1)
    ]
    universe = d.universe
    blocks = _blocks_by_mask(universe)
    for inter, masks in _families(n, downsets):
        if inter == goal:  # goal holds no -1, so the family covers
            found.append(_covering_from_masks(universe, blocks, masks))
            if limit is not None and len(found) >= limit:
                break
    return found
