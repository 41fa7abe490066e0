"""Exhaustive enumeration of coverings of small universes and machine
verification of the structural laws relating neighborhoods, repeat degrees,
core blocks, reduction, and invariability.

Enumeration, ``census`` and the preimage search share one depth-first
walk over the families of a list of subsets, in ascending family-mask
order: coverings are the families of all 2**n - 1 nonempty subsets whose
union is the universe.  For each family the walk carries the meets of its
members as one int, an (n + 1)-bit field per element, and the members
themselves as shared ``Block`` objects, so a step is one ``&`` with the
subset's column and one tuple concatenation, and a result is wrapped in a
``Covering`` as it stands.  The columns depend on n alone, not on the
labels, so one table of them per universe size is built on first use and
kept.  Its caller names the meets it wants, and the walk cuts every
subtree in which no family can have them.  The order is deterministic and
simple enough to re-implement independently, which the test suite does.
Its universes are ``setsys.default_universe(n)``, labelled "1".."n",
which this module imports under the same name.

The laws themselves, and the walk over one covering per relabelling orbit
that ``verify_laws`` drives, live in ``_laws``, which imports only the
standard library.  The family walk builds its own columns and shares no
table builder with ``_laws``, so checking ``census`` rows against the law
checker compares two routes.
"""

from __future__ import annotations

import functools
import time
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from ._laws import (
    _ORBIT_COUNTS,
    _check_covering,
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


def _pack(n: int, fields: Iterable[int]) -> int:
    """The element masks ``fields``, one per element, as a packed meet of
    ``_families``: field x from bit x * (n + 1) up."""
    return sum(f << x * (n + 1) for x, f in enumerate(fields))


@functools.cache  # built on first use per n, never at import
def _columns(n: int) -> tuple[int, ...]:
    """The column of every subset m of an n-element universe, at index m:
    the packed meet of ``_families`` whose field x is m when x is in m and
    all n + 1 bits otherwise, so that ANDing it into a family's meet adds m
    to the intersection of each of its elements."""
    field = (1 << n + 1) - 1
    return tuple(
        _pack(n, (m if m >> x & 1 else field for x in range(n))) for m in range(1 << n)
    )


def _families(
    universe: Universe, subsets: list[int], mask: int, want: int
) -> Iterator[tuple[int, tuple[Block, ...]]]:
    """Every family of ``subsets``, ascending bit vectors, whose packed
    meet ``inter`` has ``inter & mask == want``, in ascending family-mask
    order (bit i selects ``subsets[i]``).

    Yields ``(inter, blocks)``: the packed meet, and the members as one
    shared ``Block`` per subset, ascending.  The packed meet has one field
    of n + 1 bits per element x, from bit x * (n + 1) up: the intersection
    of the members holding x, with the top bit set until some member does.
    So a step is one ``&`` with the subset's column, and one tuple
    concatenation.

    Depth first: each family is followed by those that add one subset
    below its lowest member, lowest first, which is counting up.  A step
    only clears bits, so a family's meet ANDed with the columns of every
    subset still allowed below it is contained in the meet of every
    family under it.  A child is cut, with everything under it, when that
    bound has a bit in ``mask`` that ``want`` lacks, since each family
    under it keeps that bit and fails the test.
    """
    n = universe.size
    columns = _columns(n)
    inter = (1 << (n + 1) * n) - 1  # the empty family: every field all ones
    unmet = mask & ~want
    # runs[k]: one (runs[j], column, cut, (block,)) per child, for
    # j = k - 1 down to 0, of a family whose lowest member is subsets[k]
    # (of the empty family for k = len(subsets)).  A plain loop over child
    # indices took preimages of the discrete 4-element family from 19.8 to
    # 22.9 ms, and enumerate_coverings(4) from 27.5 to 31.9 ms.
    runs: list[tuple] = [()]
    below = inter  # the AND of the columns of subsets[:j]
    for j, m in enumerate(subsets):
        column = columns[m]
        step = (runs[j], column, below & unmet, (Block._of(universe, m),))
        runs.append((step,) + runs[j])
        below &= column
    stack = [(runs[-1], inter, ())]
    pop, push = stack.pop, stack.append
    while stack:
        run, inter, blocks = pop()
        if inter & mask == want:
            yield inter, blocks
        for child_run, column, cut, block in run:
            child = inter & column
            if not child & cut:
                push((child_run, child, block + blocks))


def _coverings(n: int) -> Iterator[tuple[int, Covering]]:
    """Every covering of an n-element universe, in enumeration order, with
    its neighborhoods N(x) packed as the family walk carries them: the
    families whose meet has every top bit clear, as each element lies in
    some member.  Checks n at the call, before the walk starts."""
    universe = default_universe(_check_size(n))
    tops = _pack(n, [1 << n] * n)
    subsets = list(range(1, universe.full_bits + 1))
    walk = _families(universe, subsets, tops, 0)
    return ((inter, Covering._of(universe, blocks)) for inter, blocks in walk)


def enumerate_coverings(n: int) -> Iterator[Covering]:
    """Every covering of an n-element universe exactly once, in
    deterministic order, as a generator.  Capped at n = 5; a bad n raises
    at the call."""
    return (c for _, c in _coverings(n))


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
    rate, so only runs that last that long report anything.  Such a run
    ends with one more record: the representatives done, and the wall and
    CPU (``time.process_time``) seconds of the whole run.  A run of any
    length stopped by ``KeyboardInterrupt`` logs one record with the
    representatives checked so far, such as ``verify n=5: interrupted
    after 98304 of 18664632 orbits``, and re-raises it.  The records reach
    a caller only through its own logging configuration.
    """
    _check_size(n)
    universe = default_universe(n)
    total = partitions = irreducible = invariable = fixed_points = 0
    violations: list[tuple[Covering, str]] = []
    # per-element neighborhoods -> the laws and image that read only them,
    # for this run only (see _check_covering)
    memo: dict = {}
    # the representatives done and the clock at the last progress record
    last_done, last_time = 0, time.perf_counter()
    start_time, start_cpu = last_time, time.process_time()
    finished = 0  # the representatives checked
    try:
        for done, (masks, weight, state) in enumerate(_orbit_representatives(n), 1):
            if not done % _PROGRESS_STRIDE:
                now = time.perf_counter()
                if now >= last_time + _PROGRESS_INTERVAL_S:
                    rate = (done - last_done) / (now - last_time)
                    _report_progress(n, done, rate)
                    last_done, last_time = done, now
            p, irr, inv, fix, bad = _check_covering(n, masks, memo, state)
            total += weight
            partitions += p * weight
            irreducible += irr * weight
            invariable += inv * weight
            fixed_points += fix * weight
            for law in bad:
                # the masks are distinct, ascending and cover the universe
                blocks = tuple(Block._of(universe, m) for m in masks)
                violations.append((Covering._of(universe, blocks), law))
            finished = done
    except KeyboardInterrupt:
        orbits = _ORBIT_COUNTS[n]
        _log("verify n=%d: interrupted after %d of %d orbits", n, finished, orbits)
        raise
    if last_done:
        wall = time.perf_counter() - start_time
        cpu = time.process_time() - start_cpu
        _log("verify n=%d: %d orbits done, %.1f s wall, %.1f s CPU", n, done, wall, cpu)
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
    total = _ORBIT_COUNTS[n]
    eta = (total - done) / rate
    _log("verify n=%d: %d/%d orbits, %.0f/s, ETA %.0f s", n, done, total, rate, eta)


def _log(message: str, *args: object) -> None:
    """Log one INFO record to the ``covrough.oracle`` logger."""
    # Imported here, as only runs that last an interval log: importing
    # logging with the module added about 6 ms (Python 3.11) to every load
    # of it.
    import logging

    logging.getLogger(__name__).info(message, *args)


def census(n: int) -> Iterator[CensusRow]:
    """Stream every covering, in enumeration order, with its
    classification flags, computed through the public operations
    (``is_partition``, ``is_invariable``, ``cov``), not the raw law
    checker.  README "Limits" gives the time of n = 4.

    The per-element neighborhoods N(x) fix Cov(C), and the family walk
    yields them with each covering, packed into one int as the meet it
    carries.  So ``cov`` runs once per distinct packed meet in a run (355
    times for the 32297 coverings of n = 4, one per labelled preorder),
    and the rows that share a meet share that one immutable image.  The
    fixed-point flag compares that image with the covering, which is what
    ``is_cov_fixed_point`` decides.  The walk cuts every subtree whose
    families cannot cover the universe.  A bad n raises at the call."""
    return _census_rows(_coverings(n))


def _census_rows(coverings: Iterator[tuple[int, Covering]]) -> Iterator[CensusRow]:
    """The rows of ``census`` for the ``_coverings`` walk ``coverings``."""
    # packed neighborhoods -> their Cov image, for this run only
    images: dict[int, Covering] = {}
    for inter, c in coverings:
        verdict = is_invariable(c)
        image = images.get(inter)
        if image is None:
            image = images[inter] = cov(c)
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
    x intersect to exactly N(x).  Every down-set is the union of the
    principal down-sets of its members, so the down-sets are listed as the
    unions of the distinct N(x), ascending, with no scan of all subsets.
    Only the families of down-sets are walked, by the walk
    ``enumerate_coverings`` takes over all subsets: the results come in
    enumeration order by construction.  The walk wants the packed meet to
    equal the packed N(x) of ``d``.  Every field of a down-set's column
    contains N(x), so it cuts a subtree as soon as the subsets still
    allowed in it cannot shrink some field to N(x), and each result's
    blocks are the ones it carried.
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
    if not is_cov_fixed_point(d):
        return []
    down = table(d).nbh
    universe = d.universe
    everything = (1 << n * (n + 1)) - 1
    walk = _families(universe, _downsets(down), everything, _pack(n, down))
    return [Covering._of(universe, blocks) for _, blocks in islice(walk, limit)]


def _downsets(down: Iterable[int]) -> list[int]:
    """The nonempty down-sets, ascending, of the preorder whose principal
    down-sets are ``down``: the unions of its nonempty subfamilies.  A
    down-set is the union of the principal down-sets of its members, and
    a union of down-sets is one."""
    unions = {0}
    for m in set(down):
        unions |= {u | m for u in unions}
    unions.discard(0)
    return sorted(unions)
