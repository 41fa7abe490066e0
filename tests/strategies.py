"""Hypothesis strategies for random coverings."""

import hypothesis.strategies as st

from covrough import Block, Covering, Universe


@st.composite
def coverings(draw, min_elements=1, max_elements=6, max_blocks=12):
    """Random covering: draw a set of nonempty subset bit vectors, then add
    singleton blocks for any uncovered element so the family covers."""
    n = draw(st.integers(min_elements, max_elements))
    full = (1 << n) - 1
    masks = set(
        draw(
            st.frozensets(
                st.integers(1, full), min_size=1, max_size=min(max_blocks, full)
            )
        )
    )
    union = 0
    for m in masks:
        union |= m
    missing = full & ~union
    while missing:
        low = missing & -missing
        masks.add(low)
        missing ^= low
    universe = Universe(tuple(f"x{i}" for i in range(1, n + 1)))
    return Covering(universe, tuple(Block(universe, m) for m in sorted(masks)))


# The bit table reads the elements in runs of 8 (see covrough._table);
# each pair sits on both sides of a boundary between two runs.
_STRADDLES = ((7, 8), (15, 16), (55, 56), (63, 64), (127, 128))


def _mask(elements):
    return sum(1 << x for x in elements)


@st.composite
def planted_coverings(draw, max_blocks=24, max_unions=8):
    """Random covering of 2 to 200 elements in which some blocks are unions
    of others.  One of the three branches of the size draw stays at or
    below 8 elements, where the bit table reads elements by byte lookup.

    Small random blocks come first, then one block across each run
    boundary that the universe reaches and one holding the last element
    (199 when n = 200), then one block of the elements still uncovered.
    Unions of two or three of these blocks are planted on top; some of
    them get one more element, so that a block can have proper subsets
    without being their union."""
    sizes = st.sampled_from((9, 17, 57, 64, 65, 128, 200)) | st.integers(9, 200)
    n = draw(st.integers(2, 8) | sizes)
    element = st.integers(0, n - 1)
    small = st.frozensets(element, min_size=1, max_size=6)
    drawn = draw(st.lists(small, min_size=1, max_size=max_blocks))
    masks = {_mask(b) for b in drawn}
    ends = [(a, b) for a, b in _STRADDLES if b < n] + [(n - 2, n - 1)]
    for a, b in ends:
        near = st.frozensets(st.integers(max(a - 2, 0), min(b + 2, n - 1)))
        masks.add(_mask(draw(near) | {a, b}))
    union = 0
    for m in masks:
        union |= m
    if union != (1 << n) - 1:
        masks.add(((1 << n) - 1) & ~union)
    parts = sorted(masks)
    for _ in range(draw(st.integers(1, max_unions))):
        planted = 0
        for m in draw(st.lists(st.sampled_from(parts), min_size=2, max_size=3)):
            planted |= m
        if draw(st.booleans()):
            planted |= 1 << draw(element)
        masks.add(planted)
    universe = Universe(tuple(f"x{i}" for i in range(1, n + 1)))
    return Covering(universe, tuple(Block(universe, m) for m in sorted(masks)))
