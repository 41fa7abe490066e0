"""Exhaustive enumeration of coverings of small universes and machine
verification of the structural laws relating neighborhoods, repeat degrees,
core blocks, reduction, and invariability.

Enumeration and the preimage search share one depth-first walk over the
families of a list of subsets, in ascending family-mask order: coverings
are the families of all 2**n - 1 nonempty subsets whose union is the
universe.  The order is deterministic and simple enough to re-implement
independently, which the test suite does.  Its universes are
``setsys.default_universe(n)``, labelled "1".."n", which this module
imports under the same name.

The laws themselves, and the walk over one covering per relabelling orbit
that ``verify_laws`` drives, live in ``_laws``, which imports only the
standard library.
"""

from __future__ import annotations

import time
from operator import and_
from typing import Iterable, Iterator, NamedTuple

from ._laws import (
    _ORBIT_COUNTS,
    _check_covering,
    _meet_columns,
    _orbit_representatives,
)
from ._table import table
from .errors import UniverseTooLarge
from .neighborhoods import cov, is_cov_fixed_point
from .reduction import is_invariable
from .setsys import (
    Block,
    Covering,
    Universe,
    covering_to_dict,
    default_universe,
    is_partition,
)

# Enumeration is capped where exhaustion stops being a desk-scale job:
# n=5 already yields on the order of 2**31 candidate families, and even
# their 18664632 orbits take minutes to verify (README "Limits").
MAX_ENUMERATION_SIZE = 5
MAX_PREIMAGE_SIZE = 4

# verify_laws logs its progress about this often, in seconds of wall time,
# and reads the clock once per this many representatives.
_PROGRESS_INTERVAL_S = 10.0
_PROGRESS_STRIDE = 1024


class CensusRow(NamedTuple):
    """One enumerated covering with its classification flags and image."""

    covering: Covering
    is_partition: bool
    is_irreducible: bool
    is_invariable: bool
    is_cov_fixed_point: bool
    cov_image: Covering


class VerificationSummary(NamedTuple):
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
    return Covering._of(universe, tuple(map(blocks.__getitem__, masks)))


def _coverings(n: int) -> Iterator[tuple[tuple[int, ...], Covering]]:
    """Every covering of an n-element universe, in enumeration order, with
    the tuple of its neighborhoods N(x) that the family walk carries."""
    universe = default_universe(_check_size(n))
    blocks = _blocks_by_mask(universe)
    for inter, masks in _families(n, list(range(1, universe.full_bits + 1))):
        if -1 not in inter:  # the union is the whole universe
            yield inter, _covering_from_masks(universe, blocks, masks)


def enumerate_coverings(n: int) -> Iterator[Covering]:
    """Yield every covering of an n-element universe exactly once, in
    deterministic order.  Capped at n = 5."""
    for _, c in _coverings(n):
        yield c


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


def verify_laws(n: int) -> VerificationSummary:
    """Check every law against every covering of an n-element universe.

    Checks one representative per relabelling orbit and counts its flags
    once per member of the orbit, so the totals are those of all coverings;
    each law a representative breaks is reported once, for the orbit.
    Streams the representatives, so memory stays flat.  n = 4 walks 1952
    representatives for 32297 coverings and n = 5 walks 18664632, for the
    times README "Limits" gives; n above 5 is refused.

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
    # logging with the module added about 6 ms (Python 3.11) to every load
    # of it.
    import logging

    total = _ORBIT_COUNTS[n]
    eta = (total - done) / rate
    logging.getLogger(__name__).info(
        "verify n=%d: %d/%d orbits, %.0f/s, ETA %.0f s", n, done, total, rate, eta
    )


def census(n: int) -> Iterator[CensusRow]:
    """Stream every covering, in enumeration order, with its
    classification flags, computed through the public operations
    (``is_partition``, ``is_invariable``, ``is_cov_fixed_point``,
    ``cov``), not the raw law checker.  README "Limits" gives the time of
    n = 4.

    The per-element neighborhoods N(x) fix Cov(C), and the family walk
    yields them with each covering.  So ``cov`` runs once per distinct
    neighborhood tuple in a run (355 times for the 32297 coverings of
    n = 4, one per labelled preorder), and the rows that share a tuple
    share that one immutable image."""
    # neighborhood tuple -> its Cov image, for this run only
    images: dict[tuple[int, ...], Covering] = {}
    for inter, c in _coverings(n):
        verdict = is_invariable(c)
        image = images.get(inter)
        if image is None:
            image = images[inter] = cov(c)
        yield CensusRow(
            covering=c,
            is_partition=is_partition(c),
            is_irreducible=not verdict.reducible_blocks,
            is_invariable=verdict.invariable,
            is_cov_fixed_point=is_cov_fixed_point(c),
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
