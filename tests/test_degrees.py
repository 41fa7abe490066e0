import pytest
from hypothesis import given

from covrough import (
    UnknownElement,
    blocks_containing,
    common_block_repeat_degree,
    core_block,
    core_block_assignment,
    degree_profile,
    enumerate_coverings,
    is_invariable,
    membership_repeat_degree,
    neighborhood,
    non_core_blocks,
)

from .oracles import (
    common_degree_scan,
    core_block_definitional,
    membership_degree_scan,
)
from .strategies import coverings


class TestMembershipRepeatDegree:
    def test_shared_element_counts_both_blocks(self, overlapping_pair):
        assert membership_repeat_degree(overlapping_pair, "1") == 1
        assert membership_repeat_degree(overlapping_pair, "2") == 2
        assert membership_repeat_degree(overlapping_pair, "3") == 1

    def test_partition_all_ones(self, singletons3):
        for x in "123":
            assert membership_repeat_degree(singletons3, x) == 1

    def test_nested_blocks(self, nested_with_tail):
        assert membership_repeat_degree(nested_with_tail, "3") == 2

    def test_unknown_element(self, overlapping_pair):
        with pytest.raises(UnknownElement):
            membership_repeat_degree(overlapping_pair, "0")


class TestCommonBlockRepeatDegree:
    def test_values_from_worked_example(self, chain_of_overlaps):
        lam = lambda x, y: common_block_repeat_degree(chain_of_overlaps, x, y)
        assert lam("1", "2") == 1
        assert lam("2", "3") == 1
        assert lam("2", "4") == 1
        assert lam("1", "3") == 0
        assert lam("1", "4") == 0
        assert lam("3", "4") == 2

    @given(coverings())
    def test_diagonal_equals_membership_degree(self, c):
        for x in c.universe:
            assert common_block_repeat_degree(c, x, x) == membership_repeat_degree(
                c, x
            )

    @given(coverings())
    def test_symmetric_and_bounded(self, c):
        names = c.universe.names
        for x in names:
            for y in names:
                lam = common_block_repeat_degree(c, x, y)
                assert lam == common_block_repeat_degree(c, y, x)
                assert lam <= min(
                    membership_repeat_degree(c, x), membership_repeat_degree(c, y)
                )


class TestCoreBlock:
    def test_smallest_containing_block_when_listed(self, nested_with_tail, u4):
        assert core_block(nested_with_tail, "1") == u4.block(["1", "2"])
        assert core_block(nested_with_tail, "2") == u4.block(["1", "2"])
        assert core_block(nested_with_tail, "4") == u4.block(["3", "4"])

    def test_absent_when_intersection_not_a_block(self, nested_with_tail):
        assert core_block(nested_with_tail, "3") is None

    def test_absent_for_middle_of_overlap(self, overlapping_pair, u3):
        assert core_block(overlapping_pair, "2") is None
        assert core_block(overlapping_pair, "1") == u3.block(["1", "2"])
        assert core_block(overlapping_pair, "3") == u3.block(["2", "3"])

    @given(coverings(max_elements=5))
    def test_agrees_with_definitional_scan(self, c):
        for x in c.universe:
            assert core_block(c, x) == core_block_definitional(c, x)
        assert is_invariable(c).elements_without_core == tuple(
            x for x in c.universe if core_block_definitional(c, x) is None
        )

    @given(coverings())
    def test_core_block_is_neighborhood_and_minimal(self, c):
        for x in c.universe:
            g = core_block(c, x)
            if g is None:
                continue
            assert x in g
            assert g == neighborhood(c, x)
            for k in blocks_containing(c, x):
                assert g.issubset(k)


class TestNonCoreBlocks:
    def test_middle_block_is_not_core(self, nested_with_tail, u4):
        assert non_core_blocks(nested_with_tail) == [u4.block(["1", "2", "3"])]

    def test_all_blocks_can_be_non_core(self, triangle):
        assert non_core_blocks(triangle) == list(triangle.blocks)

    def test_partition_has_none(self, singletons3):
        assert non_core_blocks(singletons3) == []

    @given(coverings())
    def test_non_core_blocks_are_big_and_shared(self, c):
        for b in non_core_blocks(c):
            assert len(b) > 1
            for y in b.members():
                assert membership_repeat_degree(c, y) > 1


class TestAssignmentAndProfile:
    def test_assignment_collects_core_blocks(self, nested_with_tail, u4):
        a = core_block_assignment(nested_with_tail)
        assert a.per_element["3"] is None
        assert a.core_blocks == {u4.block(["1", "2"]), u4.block(["3", "4"])}

    @given(coverings(max_elements=5))
    def test_profile_matches_point_queries(self, c):
        """The profile and the point queries read one bit table, so both
        are checked against the reference's frozenset scans."""
        p = degree_profile(c)
        for x in c.universe:
            deg = membership_degree_scan(c, x)
            assert p.membership[x] == membership_repeat_degree(c, x) == deg
            for y in c.universe:
                lam = common_degree_scan(c, x, y)
                assert p.common[x, y] == common_block_repeat_degree(c, x, y) == lam

    @given(coverings())
    def test_blocks_containing_matches_scan(self, c):
        for x in c.universe:
            assert blocks_containing(c, x) == [b for b in c.blocks if x in b.members()]


class TestExhaustiveSmallUniverses:
    """Degree and core-block laws over every covering of up to 3 or 4
    elements."""

    def test_pair_degree_facts(self):
        """The paper's four facts about pair degrees, read from the
        library's degree functions, on every covering of up to 4 elements:
        lambda is symmetric, its diagonal holds the degrees, no entry
        exceeds the smaller degree of its pair, and deg(x) = lambda(x, y)
        exactly when every block of x holds y.  Each value is also
        compared with a count of the blocks' own bit vectors."""
        for n in (1, 2, 3, 4):
            for c in enumerate_coverings(n):
                names = c.universe.names
                p = degree_profile(c)
                holding = [[b for b in c.blocks if b.bits >> i & 1] for i in range(n)]
                for i, x in enumerate(names):
                    assert blocks_containing(c, x) == holding[i]
                    deg = len(holding[i])
                    assert p.membership[x] == membership_repeat_degree(c, x) == deg
                    assert p.common[x, x] == deg
                    for j, y in enumerate(names):
                        lam = common_block_repeat_degree(c, x, y)
                        assert lam == p.common[x, y] == p.common[y, x]
                        assert lam == sum(b.bits >> j & 1 for b in holding[i])
                        assert lam <= min(deg, len(holding[j]))
                        every = all(b.bits >> j & 1 for b in holding[i])
                        assert (lam == deg) == every

    def test_core_block_routes_agree(self):
        """Each core block, the assignment, its set of core blocks and the
        non-core blocks against the definitional scan, on every covering
        of up to 3 elements."""
        for n in (1, 2, 3):
            for c in enumerate_coverings(n):
                per = {x: core_block_definitional(c, x) for x in c.universe}
                assert {x: core_block(c, x) for x in c.universe} == per
                cores = {b for b in per.values() if b is not None}
                a = core_block_assignment(c)
                assert list(a.per_element.items()) == list(per.items())
                assert a.core_blocks == cores
                assert non_core_blocks(c) == [b for b in c.blocks if b not in cores]

    def test_core_block_minimal_and_equals_neighborhood(self):
        for c in enumerate_coverings(3):
            for x in c.universe:
                g = core_block(c, x)
                if g is None:
                    continue
                assert g == neighborhood(c, x)
                for k in blocks_containing(c, x):
                    assert g.issubset(k)

    def test_non_core_structure(self):
        for c in enumerate_coverings(3):
            for b in non_core_blocks(c):
                assert len(b) > 1
                assert all(
                    membership_repeat_degree(c, y) > 1 for y in b.members()
                )
