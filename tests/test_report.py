import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from covrough import (
    Block,
    Covering,
    Universe,
    analyze,
    common_block_repeat_degree,
    core_block,
    cov,
    enumerate_coverings,
    is_cov_fixed_point,
    is_invariable,
    is_partition,
    is_reducible_element,
    make_covering,
    membership_repeat_degree,
    neighborhood,
    render_report,
    report,
    report_to_dict,
)
from covrough.report import Classification, report_to_json

from .strategies import coverings, planted_coverings


class TestAnalyze:
    def test_classification_of_fixed_point(self, fixed_non_partition):
        r = analyze(fixed_non_partition)
        assert not r.classification.partition
        assert r.classification.irreducible
        assert r.classification.invariable
        assert r.classification.cov_fixed_point
        assert report_to_dict(r)["cov_equals_covering"] is True
        assert r.cov == fixed_non_partition

    def test_element_rows(self, nested_with_tail):
        r = analyze(nested_with_tail)
        by_name = {e.element: e for e in r.elements}
        assert by_name["3"].membership_degree == 2
        assert by_name["3"].core_block is None
        assert by_name["1"].core_block.members() == ("1", "2")
        assert by_name["3"].neighborhood.members() == ("3",)

    def test_block_rows(self, redundant_union, u3):
        r = analyze(redundant_union)
        by_bits = {b.block: b for b in r.blocks}
        union_block = by_bits[u3.block(["1", "2"])]
        assert union_block.witness is not None
        assert union_block.core_block_of == ()
        assert by_bits[u3.block(["1"])].core_block_of == ("1",)

    def test_lambda_only_on_request(self, chain_of_overlaps):
        assert analyze(chain_of_overlaps).lambda_matrix is None
        lam = analyze(chain_of_overlaps, include_lambda=True).lambda_matrix
        names = chain_of_overlaps.universe.names
        at = lambda x, y: lam[names.index(x)][names.index(y)]
        assert at("3", "4") == 2
        assert at("1", "3") == 0

    def test_invariable_always_matches_fixed_point_flag(self):
        for c in enumerate_coverings(3):
            r = analyze(c)
            assert r.classification.invariable == r.classification.cov_fixed_point


def _assert_agrees_with_point_queries(c, include_lambda):
    """Every field of the report equals what the public point query for
    it answers."""
    r = analyze(c, include_lambda=include_lambda)
    names = c.universe.names
    assert r.covering is c
    assert [e.element for e in r.elements] == list(names)
    for e in r.elements:
        assert e.membership_degree == membership_repeat_degree(c, e.element)
        assert e.neighborhood == neighborhood(c, e.element)
        assert e.core_block == core_block(c, e.element)
    if include_lambda:
        assert r.lambda_matrix == tuple(
            tuple(common_block_repeat_degree(c, x, y) for y in names) for x in names
        )
    else:
        assert r.lambda_matrix is None
    assert [row.block for row in r.blocks] == list(c.blocks)
    for row in r.blocks:
        assert row.witness == is_reducible_element(c, row.block)
        assert row.core_block_of == tuple(
            x for x in names if core_block(c, x) == row.block
        )
    assert r.classification == Classification(
        partition=is_partition(c),
        irreducible=all(is_reducible_element(c, b) is None for b in c.blocks),
        invariable=is_invariable(c).invariable,
        cov_fixed_point=is_cov_fixed_point(c),
    )
    assert r.cov == cov(c)


class TestAgreesWithPointQueries:
    @pytest.mark.parametrize("include_lambda", [False, True])
    def test_every_small_covering(self, include_lambda):
        for n in (1, 2, 3):
            for c in enumerate_coverings(n):
                _assert_agrees_with_point_queries(c, include_lambda)

    @settings(max_examples=40, deadline=None)
    @given(planted_coverings(), st.booleans())
    def test_planted_coverings(self, c, include_lambda):
        _assert_agrees_with_point_queries(c, include_lambda)


class TestReportDict:
    def test_schema(self, fixed_non_partition):
        d = report_to_dict(analyze(fixed_non_partition, include_lambda=True))
        assert set(d) == {
            "covering",
            "elements",
            "lambda",
            "blocks",
            "classification",
            "cov",
            "cov_equals_covering",
        }
        assert d["classification"] == {
            "partition": False,
            "irreducible": True,
            "invariable": True,
            "cov_fixed_point": True,
        }
        assert d["lambda"]["elements"] == ["1", "2", "3"]
        assert d["elements"][0] == {
            "element": "1",
            "membership_degree": 2,
            "neighborhood": ["1"],
            "core_block": ["1"],
        }

    def test_reducible_block_carries_witness(self, redundant_union):
        d = report_to_dict(analyze(redundant_union))
        rows = {tuple(row["block"]): row for row in d["blocks"]}
        assert rows[("1", "2")]["reducible"] is True
        assert rows[("1", "2")]["witness"] == [["1"], ["2"]]
        assert rows[("1",)]["reducible"] is False
        assert rows[("1",)]["witness"] is None


class TestRender:
    def test_deterministic(self, nested_with_tail):
        r = analyze(nested_with_tail, include_lambda=True)
        assert render_report(r) == render_report(analyze(nested_with_tail, include_lambda=True))

    def test_contains_verdicts_and_tables(self, fixed_non_partition):
        text = render_report(analyze(fixed_non_partition))
        assert "partition: no" in text
        assert "invariable: yes" in text
        assert "Cov(C)=C: yes" in text
        assert "equal to the covering" in text
        assert "{1, 2}" in text

    def test_missing_core_block_is_marked(self, overlapping_pair, triangle):
        text = render_report(analyze(overlapping_pair))
        assert "| -" in text  # the shared element has no core block
        text = render_report(analyze(triangle))
        assert "none" in text  # no block here is anybody's core block


# Characters whose JSON escapes differ: quotes, backslash, control
# characters, DEL, non-ASCII, both halves of a surrogate pair alone, and
# one character outside the basic plane.
_AWKWARD = st.sampled_from(
    ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\xe9", "\u2028",
     "\ud800", "\udfff", "\U0001f600"]
)
_TEXT = st.text(_AWKWARD | st.characters(), max_size=8)


@st.composite
def _awkward_coverings(draw):
    """A covering of 1 to 6 elements relabelled with distinct awkward labels."""
    c = draw(coverings())
    n = c.universe.size
    u = Universe(tuple(draw(st.lists(_TEXT, min_size=n, max_size=n, unique=True))))
    return Covering(u, tuple(Block(u, b.bits) for b in c.blocks))


def _as_indent_2(obj):
    return json.dumps(obj, indent=2)


# Each case has a row that takes one branch of the writer.
_BRANCHES = {
    "redundant_union": lambda r: any(b.witness for b in r.blocks),
    "overlapping_pair": lambda r: any(e.core_block is None for e in r.elements),
    "triangle": lambda r: any(not b.core_block_of for b in r.blocks),
    "one_element": lambda r: r.covering.universe.size == 1,
}


def _edge_covering(obj):
    """The covering with these blocks' label lists, or the one-element
    covering of a single label."""
    blocks = [[obj]] if isinstance(obj, str) else obj
    names = tuple(dict.fromkeys(x for b in blocks for x in b))
    return make_covering(Universe(names), blocks)


class TestReportJson:
    @pytest.mark.parametrize(
        "obj",
        [
            [["\xe9", '"', "\\", "\x00", "\ud800", "\U0001f600"]],
            [["\xe9\ud800\n"], ["\udfff", "\xe9\ud800\n"]],
            [["\u2028", "\t"], ["\x7f", "/"]],
            [["1", "2"], ["true", "null"], ["false", "-0"]],
            [['"'], ["\\"], ['"', "\\"]],
            [["\x00", "\xe9"], ["\xe9", "\U0001f600"]],
            [["", " "], [" ", "\u2028"], ["", "\u2028"]],
            [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
            [["a", "b", "c"]],
            [["\n"], ["\\n"], ["\n", "\\n"]],
            "0",
            "",
        ],
    )
    def test_edge_cases_match_json_dumps(self, obj):
        # Awkward labels, labels that read as JSON numbers or literals, the
        # empty label, and line breaks beside their escaped spelling, in
        # reducible, core-less and one-element coverings.
        c = _edge_covering(obj)
        for include_lambda in (False, True):
            r = analyze(c, include_lambda=include_lambda)
            assert report_to_json(r) == _as_indent_2(report_to_dict(r))

    @settings(deadline=None)
    @given(_awkward_coverings(), st.booleans())
    def test_awkward_labels_match_json_dumps(self, c, include_lambda):
        r = analyze(c, include_lambda=include_lambda)
        assert report_to_json(r) == _as_indent_2(report_to_dict(r))

    @pytest.mark.parametrize("include_lambda", [False, True])
    @pytest.mark.parametrize("name", sorted(_BRANCHES))
    def test_each_branch_matches_json_dumps(self, request, name, include_lambda):
        if name == "one_element":
            c = make_covering(Universe(("1",)), [["1"]])
        else:
            c = request.getfixturevalue(name)
        r = analyze(c, include_lambda=include_lambda)
        assert _BRANCHES[name](r)
        assert report_to_json(r) == _as_indent_2(report_to_dict(r))

    def test_written_without_the_dict(self, monkeypatch, redundant_union):
        r = analyze(redundant_union, include_lambda=True)
        expected = _as_indent_2(report_to_dict(r))

        def refuse(*args):
            raise AssertionError("report_to_json built a dict")

        monkeypatch.setattr(report, "report_to_dict", refuse)
        monkeypatch.setattr(report, "covering_to_dict", refuse)
        assert report_to_json(r) == expected

    @pytest.mark.parametrize("include_lambda", [False, True])
    def test_every_small_report_matches_json_dumps(self, include_lambda):
        for n in (1, 2, 3):
            for c in enumerate_coverings(n):
                r = analyze(c, include_lambda=include_lambda)
                assert report_to_json(r) == _as_indent_2(report_to_dict(r))

    @settings(max_examples=50, deadline=None)
    @given(planted_coverings(), st.booleans())
    def test_planted_reports_match_json_dumps(self, c, include_lambda):
        r = analyze(c, include_lambda=include_lambda)
        assert report_to_json(r) == _as_indent_2(report_to_dict(r))

    @settings(max_examples=25, deadline=None)
    @given(planted_coverings())
    def test_no_two_parts_share_a_list(self, c):
        seen = []

        def walk(obj):
            if type(obj) is list:
                seen.append(id(obj))
            for child in obj.values() if type(obj) is dict else obj:
                if type(child) in (list, dict):
                    walk(child)

        walk(report_to_dict(analyze(c, include_lambda=True)))
        assert len(seen) == len(set(seen))
