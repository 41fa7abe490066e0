"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` seeded from the workload name and
the run's ``--seed``, so one seed always yields the same inputs.  Families
are ascending lists of bit vectors; ``write_family`` stores one in the
covrough covering file format.
"""

from __future__ import annotations

import bisect
import json
import random

from reference import cov, image_tally, reducible

# Input sizes per scale.  "full" is what the benchmark measures; "smoke"
# is a seconds-long stand-in with the same shapes, for the smoke test.
SCALES = {
    "full": {
        "exhaustive_n": 4, "fixed_targets": 3, "probe_n": 3,
        "elements": 64, "block_sizes": (4, 12),
        "irreducible_blocks": 2000,
        # About 2-3 s for one reduct at the seed commit (Python 3.11).
        "reducible_base": 1000, "planted": 30,
        "repeat": 40,
    },
    "smoke": {
        "exhaustive_n": 3, "fixed_targets": 2, "probe_n": 3,
        "elements": 16, "block_sizes": (3, 6),
        "irreducible_blocks": 60,
        "reducible_base": 40, "planted": 4,
        "repeat": 2,
    },
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def universe(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def family_labels(names: list[str], family) -> list[list[str]]:
    return [[name for i, name in enumerate(names) if m >> i & 1] for m in family]


def write_family(path: str, names: list[str], family) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"universe": names, "blocks": family_labels(names, family)}, fh)
        fh.write("\n")


# --- small universes: preimage targets ---------------------------------------


def preimage_targets(rng: random.Random, n: int, fixed: int) -> list[dict]:
    """The discrete family, a chain, one non-fixed covering and ``fixed``
    further fixed points of Cov, each drawn from a random preorder."""
    order = rng.sample(range(n), n)
    chain = [sum(1 << x for x in order[: i + 1]) for i in range(n)]
    targets = [
        {"kind": "discrete", "family": [1 << x for x in range(n)]},
        {"kind": "chain", "family": sorted(chain)},
        _non_fixed(rng, n),
    ]
    seen = {tuple(t["family"]) for t in targets}
    while len(targets) < 3 + fixed:
        family = list(cov(n, _preorder_up_sets(rng, n)))
        if tuple(family) not in seen:
            seen.add(tuple(family))
            targets.append({"kind": "fixed", "family": family})
    return targets


def probe_targets(rng: random.Random, n: int) -> list[dict]:
    """Every fixed point of Cov on n elements, and one seeded covering
    that is not a fixed point.  The fixed points' preimages are all the
    coverings, so a pass over the targets costs the same for every seed."""
    discrete = tuple(1 << x for x in range(n))
    targets = [{"kind": "discrete" if f == discrete else "fixed", "family": list(f)}
               for f in sorted(image_tally(n))]
    targets.append(_non_fixed(rng, n))
    return targets


def _non_fixed(rng: random.Random, n: int) -> dict:
    full = (1 << n) - 1
    while True:
        family = sorted(m for m in range(1, full + 1) if rng.random() < 0.5)
        union = 0
        for m in family:
            union |= m
        if union == full and cov(n, family) != tuple(family):
            return {"kind": "non-fixed", "family": family}


def _preorder_up_sets(rng: random.Random, n: int) -> list[int]:
    """Up-sets {y : x <= y} of a random preorder; their family is a fixed
    point of Cov, and every fixed point arises this way."""
    up = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < 0.3:
                up[x] |= 1 << y
    changed = True
    while changed:  # transitive closure
        changed = False
        for x in range(n):
            closed = up[x]
            for y in range(n):
                if up[x] >> y & 1:
                    closed |= up[y]
            if closed != up[x]:
                up[x] = closed
                changed = True
    return up


# --- large universes: coverings with a known reducible part ------------------


def _random_block(rng: random.Random, n: int, sizes: tuple[int, int]) -> int:
    return sum(1 << x for x in rng.sample(range(n), rng.randint(*sizes)))


def irreducible_family(
    rng: random.Random, n: int, count: int, sizes: tuple[int, int]
) -> list[int]:
    """``count`` distinct random blocks covering all n elements, none of
    them the union of others.  Offending blocks are redrawn."""
    full = (1 << n) - 1
    family: set[int] = set()
    while True:
        while len(family) < count:
            family.add(_random_block(rng, n, sizes))
        union = 0
        for m in family:
            union |= m
        bad = reducible(n, family)
        if union == full and not bad:
            return sorted(family)
        family -= bad
        missing = full & ~union
        while missing:
            low = missing & -missing
            if len(family) >= count:
                family.discard(rng.choice(sorted(family)))
            family.add(_random_block(rng, n, sizes) | low)
            missing ^= low


def planted_family(
    rng: random.Random, n: int, base_count: int, planted: int,
    sizes: tuple[int, int],
) -> tuple[list[int], list[int]]:
    """An irreducible base plus ``planted`` blocks that are each the union
    of two base blocks.  Returns (family, planted blocks).

    The planted blocks are spread evenly through the canonical (ascending)
    block order, one per stratum: reduct restarts its scan after each
    removal, so its cost follows their positions, and even spacing keeps
    that cost the same for every seed.  No planted block lies inside a
    base block, so exactly the planted blocks are reducible.
    """
    base = irreducible_family(rng, n, base_count, sizes)
    present = set(base)
    unions: list[int] = []
    width = len(base) / planted
    for j in range(planted):
        lo, hi = int(j * width), int((j + 1) * width)
        for _ in range(100_000):
            ia = rng.randrange(max(lo, 1), hi)
            a, b = base[ia], base[rng.randrange(ia)]
            u = a | b  # b < a, so u shares a's top element and sits near a
            if u in (a, b) or u in present:
                continue
            if not lo <= bisect.bisect_left(base, u) < hi:
                continue
            if any(u & ~m == 0 for m in base):
                continue
            present.add(u)
            unions.append(u)
            break
        else:
            raise RuntimeError(f"no union found for stratum {j}")
    family = sorted(present)
    if reducible(n, family) != set(unions):
        raise RuntimeError("planted blocks are not exactly the reducible ones")
    return family, sorted(unions)
