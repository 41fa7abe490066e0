import random
from itertools import islice

import pytest
from hypothesis import given, settings

from covrough import (
    Block,
    BlockNotInCovering,
    Covering,
    Universe,
    cov,
    core_block_assignment,
    enumerate_coverings,
    is_cov_fixed_point,
    is_invariable,
    is_reducible_element,
    make_covering,
    reducibility_report,
    reduct,
)
from covrough._table import BYTE_BITS, BitTable, table
from covrough._laws import _orbit_representatives, _reduct_masks, _subset_union

from .oracles import (
    cov_bruteforce,
    covering_masks_scan,
    family_of,
    is_union_of_others,
    reduct_restarting,
)
from .strategies import coverings, planted_coverings


class TestIsReducibleElement:
    def test_union_of_singletons_with_witness(self, redundant_union, u3):
        witness = is_reducible_element(redundant_union, u3.block(["1", "2"]))
        assert witness is not None
        assert set(witness) == {u3.block(["1"]), u3.block(["2"])}

    def test_pairwise_overlaps_are_irreducible(self, triangle, u3):
        assert is_reducible_element(triangle, u3.block(["1", "2"])) is None

    def test_singleton_blocks_are_irreducible(self, redundant_union, u3):
        assert is_reducible_element(redundant_union, u3.block(["1"])) is None

    def test_foreign_block_rejected(self, redundant_union, u3):
        with pytest.raises(BlockNotInCovering):
            is_reducible_element(redundant_union, u3.block(["2", "3"]))

    def test_matches_subfamily_enumeration_exhaustively(self):
        for c in enumerate_coverings(3):
            fam = family_of(c)
            for b in c.blocks:
                expected = is_union_of_others(fam, frozenset(b.members()))
                assert (is_reducible_element(c, b) is not None) == expected

    @given(coverings())
    def test_witness_union_rebuilds_the_block(self, c):
        for b in c.blocks:
            witness = is_reducible_element(c, b)
            if witness is None:
                continue
            assert b not in witness
            union = 0
            for w in witness:
                union |= w.bits
            assert union == b.bits


def _witnesses_by_definition(masks):
    """Per block k: the index mask of the blocks that are proper subsets
    of k if their union is k, else 0."""
    out = []
    for k in masks:
        subs = [i for i, m in enumerate(masks) if m != k and m & ~k == 0]
        union = 0
        for i in subs:
            union |= masks[i]
        out.append(sum(1 << i for i in subs) if union == k else 0)
    return out


def _wide_covering(n):
    """A seeded covering of n elements: 300 random blocks of 1 to 8
    elements, singletons for the elements they miss, then 30 unions of two
    or three of those blocks, about half of them with one more element."""
    rng = random.Random(n)
    masks = set()
    for _ in range(300):
        masks.add(sum(1 << x for x in rng.sample(range(n), rng.randint(1, 8))))
    union = 0
    for m in masks:
        union |= m
    masks |= {1 << x for x in range(n) if not union >> x & 1}
    parts = sorted(masks)
    for _ in range(30):
        planted = 0
        for m in rng.sample(parts, rng.randint(2, 3)):
            planted |= m
        if rng.random() < 0.5:
            planted |= 1 << rng.randrange(n)
        masks.add(planted)
    u = Universe(tuple(f"x{i}" for i in range(n)))
    return Covering(u, tuple(Block(u, m) for m in sorted(masks)))


class TestBitParallelFlags:
    """The table's bit-parallel reducibility witnesses against the
    definition, and their truth values against the oracle's pairwise
    subset scan."""

    @staticmethod
    def _check(t, masks):
        assert t.witnesses == _witnesses_by_definition(masks)
        assert [w != 0 for w in t.witnesses] == [
            _subset_union(k, masks) == k for k in masks
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_match_oracle_exhaustively(self, n):
        for masks in covering_masks_scan(n):
            self._check(BitTable(n, list(masks)), masks)

    def test_match_oracle_on_five_element_representatives(self):
        # the many-block shapes of n=5, which has 2**31 families: the first
        # 20000 orbit representatives
        for masks, _, _ in islice(_orbit_representatives(5), 20000):
            self._check(BitTable(5, list(masks)), masks)

    @settings(max_examples=200)
    @given(coverings(max_elements=64, max_blocks=40))
    def test_match_oracle_random(self, c):
        self._check(table(c), tuple(b.bits for b in c.blocks))

    @settings(max_examples=200)
    @given(planted_coverings())
    def test_union_tables_match_oracle(self, c):
        """Witnesses, the reports that list them and the reduct against
        direct scans, on both sides of the 8-element switch: the byte
        lookups up to 8 elements and the per-chunk union tables above."""
        masks = tuple(b.bits for b in c.blocks)
        self._check(table(c), masks)
        report = reducibility_report(c).per_block
        flags = [_subset_union(k, masks) == k for k in masks]
        for b, reducible in zip(c.blocks, flags):
            subs = tuple(m for m in c.blocks if m != b and m.bits & ~b.bits == 0)
            expected = subs if reducible else None
            assert report[b] == expected
            assert is_reducible_element(c, b) == expected
        assert tuple(b.bits for b in reduct(c).blocks) == _reduct_masks(masks)

    @pytest.mark.parametrize("n", [65, 200, 1024])
    def test_wide_universes_match_definitions(self, n):
        """Past 64 elements, the table's neighborhoods and witnesses, Cov
        and the reduct equal their definitions over sets of labels."""
        c = _wide_covering(n)
        masks = tuple(b.bits for b in c.blocks)
        t = table(c)
        self._check(t, masks)
        assert 0 < sum(w != 0 for w in t.witnesses) < len(masks)
        fam = family_of(c)
        names = c.universe.names
        nbh = [frozenset(names[x] for x in range(n) if m >> x & 1) for m in t.nbh]
        assert nbh == [
            frozenset.intersection(*(k for k in fam if x in k)) for x in names
        ]
        assert family_of(cov(c)) == cov_bruteforce(c)
        assert [frozenset(b.members()) for b in reduct(c)] == reduct_restarting(
            [frozenset(b.members()) for b in c.blocks]
        )

    @pytest.mark.parametrize("n", [8, 9])
    def test_witness_values_at_8_and_9_elements(self, n):
        """The singletons and the full set, on either side of the switch:
        only the full set is reducible, and its witness is every
        singleton."""
        t = BitTable(n, [1 << x for x in range(n)] + [(1 << n) - 1])
        assert t.witnesses == [0] * n + [(1 << n) - 1]

    def test_byte_lookup_is_the_bit_walk(self):
        for v in range(256):
            walked = []
            rest = v
            while rest:
                low = rest & -rest
                walked.append(low.bit_length() - 1)
                rest ^= low
            assert BYTE_BITS[v] == tuple(walked)

    def test_narrow_path_matches_wide_path(self):
        """Every n=4 covering, padded to 9 elements by one more block
        {5..9}, gives the same table through the wide path for its own
        blocks and elements; the extra block is irreducible and is the
        core block of each of its elements."""
        pad = 0b11111 << 4
        for masks in covering_masks_scan(4):
            narrow = BitTable(4, list(masks))
            wide = BitTable(9, list(masks) + [pad])
            b = len(masks)
            self._check(wide, masks + (pad,))
            assert wide.witnesses == narrow.witnesses + [0]
            assert wide.nbh == narrow.nbh + [pad] * 5
            assert wide.holders == narrow.holders + [1 << b] * 5
            assert wide.cored == narrow.cored + [True] * 5


class TestReducibilityReport:
    def test_report_flags_whole_covering(self, redundant_union, triangle):
        assert not reducibility_report(redundant_union).is_irreducible_covering
        assert reducibility_report(triangle).is_irreducible_covering

    def test_per_block_covers_every_block(self, redundant_union):
        report = reducibility_report(redundant_union)
        assert set(report.per_block) == set(redundant_union.blocks)


class TestReduct:
    def test_removes_union_block(self, redundant_union, singletons3):
        assert reduct(redundant_union) == singletons3

    def test_irreducible_covering_unchanged(self, fixed_non_partition, triangle):
        assert reduct(fixed_non_partition) == fixed_non_partition
        assert reduct(triangle) == triangle

    def test_removal_does_not_cascade_upward(self, u3):
        c = make_covering(u3, [["1"], ["2"], ["1", "2"], ["1", "2", "3"]])
        assert reduct(c) == make_covering(u3, [["1"], ["2"], ["1", "2", "3"]])

    @given(coverings())
    def test_result_is_irreducible_and_idempotent(self, c):
        r = reduct(c)
        assert reducibility_report(r).is_irreducible_covering
        assert reduct(r) == r

    @given(coverings())
    def test_preserves_neighborhoods(self, c):
        assert cov(reduct(c)) == cov(c)

    def test_preserves_neighborhoods_exhaustively(self):
        for c in enumerate_coverings(3):
            assert cov(reduct(c)) == cov(c)


def _proper_subset_union(masks, k):
    union = 0
    for m in masks:
        if m != k and m & ~k == 0:
            union |= m
    return union


def _assert_all_removal_orders_agree(n):
    """Walk every covering in increasing block count and check that every
    way of removing one reducible block leads to the same final family.
    Families reached mid-removal are coverings themselves, so one memo over
    all of them covers every removal order of every covering."""
    endpoint = {}
    for masks in sorted(covering_masks_scan(n), key=len):
        removable = [
            i for i, k in enumerate(masks) if _proper_subset_union(masks, k) == k
        ]
        if not removable:
            endpoint[masks] = masks
            continue
        ends = {endpoint[masks[:i] + masks[i + 1 :]] for i in removable}
        assert len(ends) == 1, f"removal order matters for {masks}"
        endpoint[masks] = ends.pop()
    return endpoint


class TestReductOrderIndependence:
    def test_all_orders_agree_n3(self):
        endpoints = _assert_all_removal_orders_agree(3)
        for c in enumerate_coverings(3):
            masks = tuple(b.bits for b in c.blocks)
            assert tuple(b.bits for b in reduct(c).blocks) == endpoints[masks]

    def test_all_orders_agree_n4(self):
        endpoints = _assert_all_removal_orders_agree(4)
        for i, c in enumerate(enumerate_coverings(4)):
            if i % 211:  # endpoint map is exhaustive; spot-check the public path
                continue
            masks = tuple(b.bits for b in c.blocks)
            assert tuple(b.bits for b in reduct(c).blocks) == endpoints[masks]


class TestIsInvariable:
    def test_fixed_point_example(self, fixed_non_partition):
        verdict = is_invariable(fixed_non_partition)
        assert verdict
        assert verdict.reducible_blocks == ()
        assert verdict.elements_without_core == ()

    def test_missing_core_block(self, overlapping_pair):
        verdict = is_invariable(overlapping_pair)
        assert not verdict
        assert verdict.elements_without_core == ("2",)
        assert verdict.reducible_blocks == ()

    def test_reducible_block(self, redundant_union, u3):
        verdict = is_invariable(redundant_union)
        assert not verdict
        assert verdict.reducible_blocks == (u3.block(["1", "2"]),)

    def test_matches_fixed_point_exhaustively(self):
        for c in enumerate_coverings(3):
            assert bool(is_invariable(c)) == is_cov_fixed_point(c)

    def test_truth_is_the_invariable_field(self):
        # A verdict is a 3-tuple, which is always true; only its __bool__
        # makes the verdict on a covering that is not invariable false.
        seen = set()
        for n in (1, 2, 3):
            for c in enumerate_coverings(n):
                verdict = is_invariable(c)
                assert bool(verdict) == verdict.invariable
                seen.add(verdict.invariable)
        assert seen == {False, True}

    def test_matches_all_blocks_core_characterization(self):
        for c in enumerate_coverings(3):
            a = core_block_assignment(c)
            alt = all(g is not None for g in a.per_element.values()) and all(
                b in a.core_blocks for b in c.blocks
            )
            assert bool(is_invariable(c)) == alt

    @settings(max_examples=60)
    @given(coverings(max_elements=5))
    def test_matches_fixed_point_random(self, c):
        assert bool(is_invariable(c)) == is_cov_fixed_point(c)


class TestCoreAndReducibilityInteraction:
    def test_reducible_blocks_are_never_core(self):
        for c in enumerate_coverings(3):
            cores = core_block_assignment(c).core_blocks
            for b in c.blocks:
                if is_reducible_element(c, b) is not None:
                    assert b not in cores

    def test_non_core_blocks_are_reducible_when_everyone_has_a_core(self):
        for c in enumerate_coverings(3):
            a = core_block_assignment(c)
            if any(g is None for g in a.per_element.values()):
                continue
            for b in c.blocks:
                if b not in a.core_blocks:
                    assert is_reducible_element(c, b) is not None
