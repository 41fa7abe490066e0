from itertools import chain, islice

import pytest
from hypothesis import given

from covrough import (
    RejectReason,
    UnknownElement,
    census,
    cov,
    enumerate_coverings,
    is_cov_fixed_point,
    is_partition,
    make_covering,
    neighborhood,
    neighborhood_map,
    quick_reject_neighborhoods,
)

from .oracles import cov_bruteforce, family_of, is_union_of_others
from .strategies import coverings


def members(block):
    return block.members()


class TestNeighborhood:
    def test_intersection_of_two_blocks(self, fixed_non_partition):
        assert members(neighborhood(fixed_non_partition, "2")) == ("1", "2")

    def test_partition_gives_own_block(self, singletons3):
        for x in "123":
            assert members(neighborhood(singletons3, x)) == (x,)

    def test_overlap_shrinks_to_shared_part(self, overlapping_pair):
        assert members(neighborhood(overlapping_pair, "2")) == ("2",)

    def test_unknown_element(self, fixed_non_partition):
        with pytest.raises(UnknownElement):
            neighborhood(fixed_non_partition, "44")

    @given(coverings())
    def test_reflexive(self, c):
        for x in c.universe:
            assert x in neighborhood(c, x)

    @given(coverings())
    def test_nesting(self, c):
        nbh = {x: neighborhood(c, x) for x in c.universe}
        for x in c.universe:
            for y in nbh[x].members():
                assert nbh[y].issubset(nbh[x])
                if x in nbh[y]:
                    assert nbh[x] == nbh[y]


class TestNeighborhoodMap:
    def test_family_and_per_element(self, nested_with_tail):
        nm = neighborhood_map(nested_with_tail)
        assert set(nm.per_element) == {"1", "2", "3", "4"}
        assert nm.family == cov(nested_with_tail)
        assert nm.covering is nested_with_tail

    @given(coverings())
    def test_family_members_are_element_neighborhoods(self, c):
        nm = neighborhood_map(c)
        assert set(nm.family.blocks) == set(nm.per_element.values())


class TestCov:
    def test_fixed_example(self, fixed_non_partition):
        assert cov(fixed_non_partition) == fixed_non_partition

    def test_pairwise_overlaps_collapse_to_singletons(self, triangle, singletons3):
        assert cov(triangle) == singletons3

    def test_mixed_example(self, nested_with_tail, u4):
        expected = make_covering(u4, [["1", "2"], ["3"], ["3", "4"]])
        assert cov(nested_with_tail) == expected

    @given(coverings(max_elements=5))
    def test_matches_bruteforce(self, c):
        assert family_of(cov(c)) == cov_bruteforce(c)

    @given(coverings())
    def test_idempotent(self, c):
        image = cov(c)
        assert cov(image) == image

    @given(coverings())
    def test_no_union_property(self, c):
        fam = family_of(cov(c))
        assert len(fam) <= 12  # keeps the literal subfamily enumeration cheap
        for member in fam:
            assert not is_union_of_others(fam, member)


class TestFixedPoint:
    def test_example_is_fixed_but_not_partition(self, fixed_non_partition):
        assert is_cov_fixed_point(fixed_non_partition)
        assert not is_partition(fixed_non_partition)

    def test_partitions_are_fixed(self, singletons3):
        assert is_cov_fixed_point(singletons3)

    def test_overlapping_pair_is_not(self, overlapping_pair):
        assert not is_cov_fixed_point(overlapping_pair)

    @given(coverings())
    def test_partition_implies_fixed(self, c):
        if is_partition(c):
            assert is_cov_fixed_point(c)

    def test_agrees_with_cov_exhaustively(self):
        # census and analyze read the verdict from the image they build, so
        # this is the test that holds the shortcut here to cov
        small = (c for n in (1, 2, 3, 4) for c in enumerate_coverings(n))
        five = (row.covering for row in islice(census(5), 2000))
        seen = set()
        for c in chain(small, five):
            fixed = is_cov_fixed_point(c)
            assert fixed == (cov(c) == c)
            seen.add((c.universe.size, fixed))
        both = {(n, flag) for n in (2, 3, 4, 5) for flag in (False, True)}
        assert seen == both | {(1, True)}


class TestQuickReject:
    def test_too_many_blocks(self, redundant_union):
        assert quick_reject_neighborhoods(redundant_union) is RejectReason.TOO_MANY_BLOCKS

    def test_fixed_point_is_not_rejected(self, fixed_non_partition):
        assert quick_reject_neighborhoods(fixed_non_partition) is None

    def test_block_count_checked_first(self, u2):
        c = make_covering(u2, [["1"], ["2"], ["1", "2"]])
        assert quick_reject_neighborhoods(c) is RejectReason.TOO_MANY_BLOCKS

    def test_reducible_block_reason(self, u4):
        c = make_covering(u4, [["1"], ["2"], ["1", "2"], ["3", "4"]])
        assert quick_reject_neighborhoods(c) is RejectReason.REDUCIBLE_BLOCK

    @given(coverings())
    def test_sound(self, c):
        if quick_reject_neighborhoods(c) is not None:
            assert not is_cov_fixed_point(c)


class TestExhaustiveSmallUniverses:
    """Structural laws over every covering of up to 3 elements."""

    def test_nesting_and_reflexivity(self):
        for c in enumerate_coverings(3):
            nbh = {x: neighborhood(c, x) for x in c.universe}
            for x in c.universe:
                assert x in nbh[x]
                for y in nbh[x].members():
                    assert nbh[y].issubset(nbh[x])

    def test_no_block_of_cov_is_a_union_of_others(self):
        for c in enumerate_coverings(3):
            fam = family_of(cov(c))
            for member in fam:
                assert not is_union_of_others(fam, member)

    def test_cov_idempotent(self):
        for c in enumerate_coverings(3):
            image = cov(c)
            assert cov(image) == image

    def test_quick_reject_sound(self):
        for c in enumerate_coverings(3):
            if quick_reject_neighborhoods(c) is not None:
                assert not is_cov_fixed_point(c)
