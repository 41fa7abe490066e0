import copy
import json
import os
import pickle
import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import given

import covrough
from covrough import (
    Block,
    Covering,
    DuplicateBlock,
    EmptyBlock,
    FileFormatError,
    InvalidUniverse,
    NotACover,
    Universe,
    UnknownElement,
    blocks_containing,
    common_block_repeat_degree,
    core_block,
    covering_from_dict,
    covering_from_json,
    covering_to_dict,
    covering_to_json,
    default_universe,
    enumerate_coverings,
    is_partition,
    make_covering,
    membership_repeat_degree,
    neighborhood,
    read_covering,
    write_covering,
)

from .strategies import coverings, planted_coverings


class SubBlock(Block):
    """A slotted subclass: it keeps the fields, repr and pickling of Block."""

    __slots__ = ()


class TestUniverse:
    def test_basic(self, u3):
        assert u3.size == 3
        assert list(u3) == ["1", "2", "3"]
        assert "2" in u3 and "9" not in u3
        assert u3.index("3") == 2
        assert u3.full_bits == 0b111

    def test_empty_rejected(self):
        with pytest.raises(InvalidUniverse):
            Universe(())

    def test_duplicate_labels_rejected(self):
        # the message names the first label that repeats an earlier one
        with pytest.raises(InvalidUniverse, match="pairwise distinct; 'a' repeats"):
            Universe(("a", "b", "a"))
        with pytest.raises(InvalidUniverse, match="'b' repeats"):
            Universe(("a", "b", "b", "a"))

    def test_type_error_comes_before_a_repeat(self):
        # the repeat is raised after the loop that type-checks every label
        message = "^element labels must be strings; label #2 is int$"
        with pytest.raises(InvalidUniverse, match=message):
            Universe(("a", "a", 2))

    def test_non_string_labels_rejected(self):
        # the message names the position of the first label that is no str
        with pytest.raises(InvalidUniverse, match="strings; label #0 is int"):
            Universe((1, 2))
        with pytest.raises(InvalidUniverse, match="label #2 is NoneType"):
            Universe(("a", "b", None))

    def test_one_string_rejected(self):
        # its characters would otherwise become the labels
        with pytest.raises(InvalidUniverse, match="not one str"):
            Universe("123")

    @pytest.mark.parametrize("n", [65, 1024])
    def test_wide_universes_round_trip(self, n, tmp_path):
        """Blocks are ints of any width: past 64 elements a universe builds
        and a covering over it is written and read back unchanged."""
        u = Universe(tuple(f"e{i}" for i in range(n)))
        assert u.size == n and u.full_bits.bit_length() == n
        halves = [u.names[: n // 2], u.names[n // 2 - 1 :], (u.names[-1],)]
        c = make_covering(u, halves)
        path = tmp_path / "wide.json"
        write_covering(c, str(path))
        assert read_covering(str(path)) == c

    def test_unknown_element(self, u3):
        with pytest.raises(UnknownElement):
            u3.index("7")

    def test_one_string_block_rejected(self):
        # "ab" is a label of its own, not the labels "a" and "b"
        u = Universe(("a", "b", "ab"))
        assert u.block(["ab"]).members() == ("ab",)
        with pytest.raises(TypeError, match="collection of labels, not a str"):
            u.block("ab")

    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda c: Universe(5), TypeError, "strings; got int$", id="universe-int"
            ),
            pytest.param(
                lambda c: Universe(None),
                TypeError,
                "strings; got NoneType$",
                id="universe-none",
            ),
            *(
                pytest.param(call, UnknownElement, r"unknown element \['1'\]", id=name)
                for name, call in [
                    ("index", lambda c: c.universe.index(["1"])),
                    ("block", lambda c: c.universe.block([["1"]])),
                    ("neighborhood", lambda c: neighborhood(c, ["1"])),
                    ("core_block", lambda c: core_block(c, ["1"])),
                    ("blocks_containing", lambda c: blocks_containing(c, ["1"])),
                    ("membership", lambda c: membership_repeat_degree(c, ["1"])),
                    ("common", lambda c: common_block_repeat_degree(c, "1", ["1"])),
                ]
            ),
        ],
    )
    def test_bad_universe_or_label_is_named(
        self, overlapping_pair, call, error, message
    ):
        with pytest.raises(error, match=message):
            call(overlapping_pair)

    def test_unhashable_label_is_not_a_member(self, u3):
        assert ["1"] not in u3
        assert ["1"] not in u3.block(["1"])

    def test_hash_survives_pickling_into_another_process(self):
        # String hashes differ between processes; each unpickled value
        # must equal, and hash as, one built there from its labels.
        u = Universe(("a", "b", "c"))
        c = make_covering(u, [["a", "c"], ["b"], ["c"]])
        neighborhood(c, "a")  # the covering goes with its bit table
        script = (
            "import pickle, sys; "
            "from covrough import Universe, make_covering, neighborhood; "
            "got = pickle.loads(sys.stdin.buffer.read()); "
            "u = Universe(got[0].names); "
            "built = (u, u.block(got[1].members()), "
            "make_covering(u, [b.members() for b in got[2]])); "
            "print(*[x == y and hash(x) == hash(y) for x, y in zip(got, built)], "
            "hash(got[0]) == hash((u.names,)), got[0].index('c'), "
            "neighborhood(got[2], 'a'))"
        )
        env = {**os.environ, "PYTHONHASHSEED": "random"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(covrough.__file__)), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps((u, c.blocks[-1], c)),
            capture_output=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert done.stdout.split() == [b"True"] * 4 + [b"2", b"{a,", b"c}"]


class TestValueTypes:
    """Universe, Block and Covering compare, hash, print and copy by their
    public fields alone, and refuse every attribute write."""

    def test_hash_values(self):
        names = tuple(f"e{i}" for i in range(64))
        u, v = Universe(names), Universe(tuple(list(names)))
        assert u is not v and u == v
        assert hash(u) == hash(v) == hash((u.names,))
        a, b = Block(u, 0b1011), Block(v, 0b1011)
        assert a == b and hash(a) == hash(b) == hash(a.bits)
        assert {a: 1}[b] == 1
        c = make_covering(u, [names[:40], names[30:]])
        d = make_covering(v, [names[30:], names[:40]])
        assert c == d and hash(c) == hash(d) == hash((c.universe, c.blocks))

    @pytest.mark.parametrize(
        "make, attrs",
        [
            (lambda u: u, ["names", "_index", "other"]),
            (lambda u: u.block(["1"]), ["universe", "bits", "other"]),
            (
                lambda u: make_covering(u, [["1"], ["2"]]),
                ["universe", "blocks", "_table", "other"],
            ),
        ],
        ids=["universe", "block", "covering"],
    )
    def test_attributes_cannot_be_assigned_or_deleted(self, u2, make, attrs):
        value = make(u2)
        for attr in attrs:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
                setattr(value, attr, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
                delattr(value, attr)
        assert value == make(u2)

    def test_repr_is_the_constructor_call(self, u2):
        c = make_covering(u2, [["1"], ["1", "2"]])
        u = "Universe(names=('1', '2'))"
        assert repr(u2) == u
        assert repr(c.blocks[0]) == f"Block(universe={u}, bits=1)"
        assert repr(c) == (
            f"Covering(universe={u}, blocks=(Block(universe={u}, bits=1), "
            f"Block(universe={u}, bits=3)))"
        )

    @pytest.mark.parametrize("cls", [Universe, Block, Covering])
    def test_fields_are_the_public_slots(self, cls):
        assert cls._fields == tuple(f for f in cls.__slots__ if not f.startswith("_"))

    def test_repr_evaluates_to_the_value(self):
        # every universe, block and covering with n <= 3
        scope = {"Universe": Universe, "Block": Block, "Covering": Covering}
        for n in (1, 2, 3):
            u = default_universe(n)
            blocks = [Block(u, m) for m in range(1, 1 << n)]
            for value in [u, *blocks, *enumerate_coverings(n)]:
                got = eval(repr(value), scope)
                assert type(got) is type(value) and got == value

    def test_subclass_keeps_its_name(self, u2):
        b = SubBlock(u2, 0b10)
        assert repr(b) == "SubBlock(universe=Universe(names=('1', '2')), bits=2)"
        got = pickle.loads(pickle.dumps(b))
        assert type(got) is SubBlock and got == b

    @pytest.mark.parametrize(
        "duplicate",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_equal_the_original(self, u3, duplicate):
        c = make_covering(u3, [["1", "3"], ["2"], ["3"]])
        neighborhood(c, "1")  # a copy need not carry the bit table along
        for value in (u3, c.blocks[-1], c):
            got = duplicate(value)
            assert type(got) is type(value)
            assert got == value and hash(got) == hash(value)
        got = duplicate(c)
        assert got.universe.index("3") == 2
        assert neighborhood(got, "1") == neighborhood(c, "1")

    def test_covering_is_not_its_tuple_of_blocks(self, u2):
        c = make_covering(u2, [["1"], ["2"]])
        assert c != c.blocks and not c == c.blocks
        assert c.universe != u2.names and c.blocks[0] != c.blocks[0].bits


class TestBlock:
    def test_members_in_universe_order(self, u3):
        # The 64-element block has members at indices 0, 7, 8 and 63: both
        # ends of the word and both sides of a byte boundary.  Its labels
        # sort differently as strings than in universe order.
        u64 = Universe(tuple(str(i) for i in range(1, 65)))
        cases = [
            (u3.block(["2", "1"]), ("1", "2"), "3", "{1, 2}"),
            (u64.block(["64", "9", "1", "8"]), ("1", "8", "9", "64"), "2",
             "{1, 8, 9, 64}"),
        ]
        for b, members, absent, text in cases:
            assert b.members() == members
            assert members[0] in b and absent not in b
            assert len(b) == len(members)
            assert str(b) == text

    def test_empty_rejected(self, u3):
        with pytest.raises(EmptyBlock):
            Block(u3, 0)

    def test_out_of_range_bits_rejected(self, u3):
        with pytest.raises(UnknownElement):
            Block(u3, 0b1000)

    @pytest.mark.parametrize("bits", [1.5, 1.0, "1", None, True])
    def test_non_int_bits_rejected(self, u3, bits):
        with pytest.raises(TypeError, match=type(bits).__name__):
            Block(u3, bits)

    def test_non_universe_rejected(self):
        with pytest.raises(TypeError, match="universe must be a Universe; got tuple"):
            Block(("1", "2"), 1)

    def test_issubset(self, u3):
        assert u3.block(["1"]).issubset(u3.block(["1", "2"]))
        assert not u3.block(["3"]).issubset(u3.block(["1", "2"]))


class TestMakeCovering:
    def test_three_blocks(self, fixed_non_partition):
        assert len(fixed_non_partition) == 3
        assert [b.members() for b in fixed_non_partition] == [("1",), ("1", "2"), ("3",)]

    def test_singleton_universe(self, u1):
        c = make_covering(u1, [["1"]])
        assert len(c) == 1

    def test_not_a_cover(self, u3):
        with pytest.raises(NotACover, match="3"):
            make_covering(u3, [["1", "2"]])

    @pytest.mark.parametrize(
        "missing, tail",
        [(1, "e1"), (10, "e1, e2, e3, e4, e5, e6, e7, e8, e9, e10"),
         (11, "e1, e2, e3, e4, e5, e6, e7, e8, e9, e10 and 1 more"),
         (99999, "e1, e2, e3, e4, e5, e6, e7, e8, e9, e10 and 99989 more")],
        ids=["1", "10", "11", "99999"],
    )
    def test_not_a_cover_names_at_most_ten(self, missing, tail):
        """Up to 10 missing elements are all named; past 10 the message
        names the first 10 and counts the rest."""
        u = Universe(tuple(f"e{i}" for i in range(missing + 1)))
        with pytest.raises(NotACover) as info:
            make_covering(u, [["e0"]])
        assert str(info.value) == f"union of blocks misses element(s): {tail}"

    def test_empty_block_names_index(self, u3):
        with pytest.raises(EmptyBlock, match="#1"):
            make_covering(u3, [["1", "2", "3"], []])

    def test_unknown_element_names_index(self, u3):
        with pytest.raises(UnknownElement, match="#1"):
            make_covering(u3, [["1", "2", "3"], ["4"]])

    def test_string_block_names_index(self, u3):
        # "12" would otherwise read as the block {1, 2}
        with pytest.raises(TypeError, match="#0"):
            make_covering(u3, ["12", "3"])
        with pytest.raises(TypeError, match="#1"):
            make_covering(u3, [["1", "2"], "3"])

    def test_non_iterable_block_names_index(self, u3):
        message = "^block #1 must be a collection of labels; got int$"
        with pytest.raises(TypeError, match=message):
            make_covering(u3, [["1", "2"], 3])

    def test_non_iterable_family_rejected(self, u3):
        message = "^subsets must be an iterable of label collections; got int$"
        with pytest.raises(TypeError, match=message):
            make_covering(u3, 5)

    def test_non_universe_rejected(self):
        with pytest.raises(TypeError, match="^universe must be a Universe; got tuple$"):
            make_covering(("1",), [["1"]])

    def test_unhashable_label_names_index(self, u3):
        with pytest.raises(UnknownElement, match=r"^block #0: unknown element \['1'\]$"):
            make_covering(u3, [[["1"]], ["2", "3"]])

    def test_duplicate_subsets_rejected(self, u3):
        with pytest.raises(DuplicateBlock, match="#0 and #2"):
            make_covering(u3, [["1", "2"], ["3"], ["2", "1"]])

    def test_repeated_labels_within_block_merge(self, u3):
        a = make_covering(u3, [["1", "1", "2"], ["3"]])
        b = make_covering(u3, [["1", "2"], ["3"]])
        assert a == b

    def test_canonical_order_ignores_input_order(self, u3):
        subsets = [["1"], ["1", "2"], ["3"]]
        reference = make_covering(u3, subsets)
        for perm in permutations(subsets):
            assert make_covering(u3, list(perm)) == reference

    def test_direct_constructor_rejects_foreign_blocks(self, u3):
        other = Universe(("a", "b", "c"))
        with pytest.raises(UnknownElement):
            Covering(u3, (Block(other, 0b111),))

    def test_direct_constructor_rejects_non_blocks(self, u3):
        with pytest.raises(TypeError, match="^block #0 must be a Block; got int$"):
            Covering(u3, [3, 4])
        with pytest.raises(TypeError, match="#1 must be a Block; got frozenset"):
            Covering(u3, [Block(u3, 0b111), frozenset("1")])

    def test_direct_constructor_rejects_non_iterable_family(self, u3):
        message = "^blocks must be an iterable of Blocks; got int$"
        with pytest.raises(TypeError, match=message):
            Covering(u3, 5)

    def test_direct_constructor_rejects_non_universe(self):
        with pytest.raises(TypeError, match="^universe must be a Universe; got tuple$"):
            Covering(("1",), [])

    def test_direct_constructor_rejects_duplicates(self, u3):
        with pytest.raises(DuplicateBlock, match="#0 and #1"):
            Covering(u3, (Block(u3, 0b111), Block(u3, 0b111)))

    def test_direct_constructor_names_the_first_repeat(self, u3):
        a, b, c = (Block(u3, m) for m in (0b001, 0b010, 0b100))
        with pytest.raises(DuplicateBlock, match="^blocks #1 and #3 are identical$"):
            Covering(u3, [a, b, c, b, a])

    def test_direct_constructor_names_a_non_block_before_a_repeat(self, u3):
        b = Block(u3, 0b111)
        with pytest.raises(TypeError, match="^block #2 must be a Block; got int$"):
            Covering(u3, [b, b, 5])


class TestCoveringMembership:
    """``in`` bisects the canonical order; a scan of the blocks is the
    reference."""

    @staticmethod
    def _check(c, probes, twin, foreign):
        for b in probes:  # all over c.universe
            assert (b in c) == any(k.bits == b.bits for k in c.blocks), b
        for k in c.blocks:
            assert Block(twin, k.bits) in c
            assert Block(foreign, k.bits) not in c
            assert k.bits not in c
        assert c.universe.names[0] not in c
        assert None not in c

    @staticmethod
    def _universes(u):
        """An equal universe built separately, and a foreign one."""
        return Universe(tuple(u.names)), Universe(tuple(x + "'" for x in u.names))

    def test_every_subset_up_to_four_elements(self):
        for n in range(1, 5):
            u = default_universe(n)
            probes = [Block(u, m) for m in range(1, 1 << n)]
            twin, foreign = self._universes(u)
            for c in enumerate_coverings(n):
                self._check(c, probes, twin, foreign)

    @given(planted_coverings())
    def test_planted_coverings(self, c):
        full = c.universe.full_bits
        near = {b.bits + d for b in c.blocks for d in (-1, 0, 1)}
        lowest, highest = c.blocks[0].bits, c.blocks[-1].bits
        outside = {lowest - 1, lowest >> 1, highest + 1, full}
        masks = sorted(m for m in near | outside if 0 < m <= full)
        probes = [Block(c.universe, m) for m in masks]
        self._check(c, probes, *self._universes(c.universe))


class TestIsPartition:
    def test_example_covering_is_not(self, fixed_non_partition):
        assert not is_partition(fixed_non_partition)

    def test_singletons_are(self, singletons3):
        assert is_partition(singletons3)

    def test_overlapping_blocks_are_not(self, chain_of_overlaps):
        assert not is_partition(chain_of_overlaps)


class TestBlocksContaining:
    def test_shared_element(self, overlapping_pair, u3):
        got = blocks_containing(overlapping_pair, "2")
        assert [b.members() for b in got] == [("1", "2"), ("2", "3")]

    def test_single_block(self, overlapping_pair):
        got = blocks_containing(overlapping_pair, "1")
        assert [b.members() for b in got] == [("1", "2")]

    def test_partition_has_exactly_one(self, singletons3):
        for x in "123":
            assert len(blocks_containing(singletons3, x)) == 1

    def test_unknown_element(self, overlapping_pair):
        with pytest.raises(UnknownElement):
            blocks_containing(overlapping_pair, "9")

    @given(coverings())
    def test_never_empty(self, c):
        for x in c.universe:
            assert len(blocks_containing(c, x)) >= 1


class TestFileFormat:
    def test_dict_round_trip(self, fixed_non_partition):
        assert covering_from_dict(covering_to_dict(fixed_non_partition)) == fixed_non_partition

    def test_writer_is_canonical(self, u3):
        c = make_covering(u3, [["3"], ["2", "1"], ["1"]])
        assert covering_to_dict(c) == {
            "universe": ["1", "2", "3"],
            "blocks": [["1"], ["1", "2"], ["3"]],
        }

    def test_json_round_trip(self, nested_with_tail):
        assert covering_from_json(covering_to_json(nested_with_tail)) == nested_with_tail

    def test_file_round_trip(self, tmp_path, chain_of_overlaps):
        path = tmp_path / "c.json"
        write_covering(chain_of_overlaps, str(path))
        assert read_covering(str(path)) == chain_of_overlaps

    def test_parse_errors(self):
        with pytest.raises(FileFormatError):
            covering_from_dict([1, 2])
        with pytest.raises(FileFormatError):
            covering_from_dict({"universe": ["1"]})
        with pytest.raises(FileFormatError, match="#1"):
            covering_from_dict({"universe": ["1"], "blocks": [["1"], [1]]})
        with pytest.raises(FileFormatError):
            covering_from_dict({"universe": "12", "blocks": [["1"]]})
        with pytest.raises(FileFormatError, match="entry #1 is int$"):
            covering_from_dict({"universe": ["a", 2], "blocks": [["a"]]})
        data = {"universe": ["a", "b"], "blocks": [["a"], ["b", 2]]}
        with pytest.raises(FileFormatError, match="^block #1 .*; entry #1 is int$"):
            covering_from_dict(data)
        with pytest.raises(FileFormatError, match="^block #0 .* of strings$"):
            covering_from_dict({"universe": ["a"], "blocks": ["a"]})
        with pytest.raises(FileFormatError, match='"blocks" must be a list'):
            covering_from_dict({"universe": ["1"], "blocks": "1"})

    def test_validation_applies_on_parse(self):
        data = {"universe": ["1", "2"], "blocks": [["1"]]}
        with pytest.raises(NotACover):
            covering_from_dict(data)

    @given(coverings())
    def test_round_trip_any_covering(self, c):
        again = covering_from_json(covering_to_json(c))
        assert again == c
        assert json.loads(covering_to_json(c))["universe"] == list(c.universe.names)
