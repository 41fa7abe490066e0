import logging
import re
import subprocess
import sys
import tracemalloc
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from covrough import (
    Block,
    CensusRow,
    Covering,
    Universe,
    UniverseTooLarge,
    census,
    core_block,
    cov,
    default_universe,
    enumerate_coverings,
    is_cov_fixed_point,
    is_invariable,
    is_partition,
    make_covering,
    neighborhood_map,
    preimages,
    reduct,
    summary_to_dict,
    verify_laws,
)
from covrough import _laws, oracle
from covrough._table import table

from .oracles import (
    covering_count_closed_form,
    covering_masks_scan,
    coverings_bruteforce,
    downsets_bruteforce,
    family_mask,
    family_of,
    family_of_masks,
    orbit_bruteforce,
    orbit_walk_reference,
    pair_count_definitional,
    reduct_restarting,
)
from .strategies import planted_coverings

# Flag counts per universe size, frozen from the first verified oracle run
# (cross-checked against the frozenset brute force in oracles.py):
# n: (total, partitions, irreducible, invariable, fixed_points)
FROZEN_CENSUS = {
    1: (1, 1, 1, 1, 1),
    2: (5, 2, 4, 4, 4),
    3: (109, 5, 45, 29, 29),
    4: (32297, 15, 2271, 355, 355),
}


def _masks(c):
    return tuple(b.bits for b in c.blocks)


def _fixed_points(n):
    return [d for d in enumerate_coverings(n) if is_cov_fixed_point(d)]


def _relabelled(c, universe):
    """``c`` with element i of its universe renamed to element i of
    ``universe``."""
    rename = dict(zip(c.universe.names, universe.names))
    return make_covering(universe, [map(rename.get, b.members()) for b in c.blocks])


class TestEnumerateCoverings:
    def test_single_element_universe(self):
        got = list(enumerate_coverings(1))
        assert len(got) == 1
        assert [b.members() for b in got[0]] == [("1",)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_bruteforce_family_for_family(self, n):
        labels = [str(i) for i in range(1, n + 1)]
        expected = set(coverings_bruteforce(labels))
        got = [family_of(c) for c in enumerate_coverings(n)]
        assert len(got) == len(set(got))  # exactly once each
        assert set(got) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_matches_closed_form(self, n):
        count = sum(1 for _ in enumerate_coverings(n))
        assert count == covering_count_closed_form(n)
        assert count == FROZEN_CENSUS[n][0]

    def test_deterministic_order(self):
        assert list(enumerate_coverings(3)) == list(enumerate_coverings(3))

    def test_yielded_coverings_revalidate(self):
        for c in enumerate_coverings(3):
            rebuilt = make_covering(
                c.universe, [list(b.members()) for b in c.blocks]
            )
            assert rebuilt == c

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_is_the_family_mask_scan(self, n):
        got = [_masks(c) for c in enumerate_coverings(n)]
        assert got == list(covering_masks_scan(n))

    def test_order_at_five_starts_as_the_family_mask_scan(self):
        # n=5 has 2**31 families: the first 2000 coverings are compared
        got = [_masks(c) for c in islice(enumerate_coverings(5), 2000)]
        assert got == list(islice(covering_masks_scan(5), 2000))

    @pytest.mark.parametrize(
        "n, count", [(1, None), (2, None), (3, None), (4, None), (5, 2000)]
    )
    def test_packed_key_is_the_neighborhoods(self, n, count):
        """The walk's packed meet holds N(x) in bits x * (n + 1) up, with
        every field's top bit clear, and nothing above the last field."""
        field = (1 << n + 1) - 1
        for key, c in islice(oracle._coverings(n), count):
            fields = [key >> x * (n + 1) & field for x in range(n)]
            assert fields == list(table(c).nbh)
            assert key >> n * (n + 1) == 0

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_coverings(0))
        with pytest.raises(UniverseTooLarge):
            list(enumerate_coverings(6))

    @pytest.mark.parametrize("n", [True, 2.0, "2"])
    def test_size_must_be_an_int(self, n):
        # True would otherwise run as n=1
        message = f"universe size must be an int; got {type(n).__name__}"
        for run in (enumerate_coverings, census):
            with pytest.raises(TypeError, match=message):
                next(run(n))
        with pytest.raises(TypeError, match=message):
            verify_laws(n)

    @pytest.mark.parametrize(
        "n, error",
        [(0, ValueError), (6, UniverseTooLarge), (True, TypeError), ("2", TypeError)],
    )
    def test_bad_size_raises_at_the_call(self, n, error):
        # as verify_laws does, before any next() on the result
        for run in (enumerate_coverings, census):
            with pytest.raises(error):
                run(n)


# Coverings up to relabelling of the elements (OEIS A055621).
ORBIT_COUNTS = {1: 1, 2: 4, 3: 34, 4: 1952}


class TestOrbitRepresentatives:
    """The orderly generator against brute-force orbits on frozensets.
    Disjoint orbits whose sizes sum to the covering count cover every
    covering, so every orbit is visited exactly once."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_representative_per_orbit(self, n):
        reps = list(_laws._orbit_representatives(n))
        assert len(reps) == ORBIT_COUNTS[n]
        seen = set()
        for masks, weight, _ in reps:
            assert list(masks) == sorted(set(masks))
            orbit = orbit_bruteforce(family_of_masks(masks), n)
            assert weight == len(orbit)
            assert seen.isdisjoint(orbit), f"{masks} relabels an earlier one"
            seen |= orbit
        assert sum(w for _, w, _ in reps) == covering_count_closed_form(n)
        assert len(seen) == covering_count_closed_form(n)

    def test_library_table_of_orbit_counts(self):
        assert {n: _laws._ORBIT_COUNTS[n] for n in ORBIT_COUNTS} == ORBIT_COUNTS

    def test_first_shard_at_five(self):
        # n=5 is too large to walk in a test: the first 2000
        # representatives are checked one by one
        for masks, weight, _ in islice(_laws._orbit_representatives(5), 2000):
            fam = family_of_masks(masks)
            assert frozenset().union(*fam) == frozenset(range(5))
            orbit = orbit_bruteforce(fam, 5)
            assert family_mask(fam) == max(map(family_mask, orbit))
            assert weight == len(orbit)
            state = _laws._covering_state(5, masks)
            assert _laws._check_covering(5, masks, {}, state)[4] == []

    @pytest.mark.parametrize(
        "n, count", [(1, 1), (2, 4), (3, 34), (4, 1952), (5, 2000)]
    )
    def test_carried_state(self, n, count):
        # the state the walk carries down is the state computed from the
        # masks; n=5 is checked on its first 2000 representatives
        reps = list(islice(_laws._orbit_representatives(n), count))
        assert len(reps) == count
        for masks, _, state in reps:
            assert state == _laws._covering_state(n, masks)

    @pytest.mark.parametrize(
        "n, count", [(1, 1), (2, 4), (3, 34), (4, 1952), (5, 20000)]
    )
    def test_equals_the_walk_over_every_relabelling(self, n, count):
        # dropping the relabellings that can no longer matter changes
        # neither the representatives, nor their weights, nor their order;
        # n=5 is checked on its first 20000 representatives
        got = [(m, w) for m, w, _ in islice(_laws._orbit_representatives(n), count)]
        assert len(got) == count
        assert got == list(islice(orbit_walk_reference(n), count))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relabelling_bounds(self, n):
        # per bit j and relabelling: twice the highest image bit of the
        # subsets 1..j, and 1 where there are none
        columns = _laws._relabelling_columns(n)
        relabellings = range(len(columns[0]))
        expected = [
            [max([2 * col[k] for col in columns[:j]], default=1) for k in relabellings]
            for j in range(len(columns))
        ]
        assert list(map(list, _laws._relabelling_bounds(n))) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_covering_state_by_definition(self, n):
        # the reference state against frozensets, on every labelled
        # covering: per element x the intersection of the blocks holding x
        # and the indices of those blocks, and per block the union of the
        # blocks that are its proper subsets
        def members(m):
            return frozenset(i for i in range(n) if m >> i & 1)

        for masks in covering_masks_scan(n):
            blocks = [members(m) for m in masks]
            holding = [[j for j, k in enumerate(blocks) if x in k] for x in range(n)]
            nbh = [frozenset.intersection(*[blocks[j] for j in h]) for h in holding]
            unions = [frozenset().union(*[b for b in blocks if b < k]) for k in blocks]
            got_nbh, got_blkidx, got_unions = _laws._covering_state(n, masks)
            assert list(map(members, got_nbh)) == nbh
            indices = [[j for j in range(len(masks)) if s >> j & 1] for s in got_blkidx]
            assert indices == holding
            assert list(map(members, got_unions)) == unions


class TestPairCounts:
    """The packed pair counts against the definitional count, pair by
    pair."""

    @staticmethod
    def _agree(n, masks):
        expected = [
            pair_count_definitional(masks, x, y) for x in range(n) for y in range(n)
        ]
        assert list(_laws._pair_counts(n, masks)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_labelled_covering(self, n):
        for masks in covering_masks_scan(n):
            self._agree(n, masks)

    def test_first_shard_at_five(self):
        # the shard holds the covering by all 31 subsets, whose diagonal
        # counts of 16 are the largest at n=5
        for masks, _, _ in islice(_laws._orbit_representatives(5), 2000):
            self._agree(5, masks)


# A small covering and a hand-corrupted state (nbh, blkidx, unions) for
# each law that no helper sabotage (SABOTAGES) fires: the state computed
# from the blocks breaks no law, and the corrupted one breaks the named law.
CORRUPTED_STATES = {
    # N(1) = {2} leaves 1 outside its own neighborhood
    "neighborhood-reflexive": (2, (1, 2), ((2, 2), (1, 2), (0, 0))),
    # 2 in N(1) = {1, 2}, but N(2) = {2, 3} is not inside it
    "neighborhood-nesting": (3, (1, 2, 4), ((3, 6, 4), (1, 2, 4), (0, 0, 0))),
    # 2 in both blocks: {1} and {1, 2} both pass the scan for 1
    "core-block-unique": (2, (1, 3), ((1, 3), (3, 3), (0, 1))),
    # 1 in no block: the scan finds no core block where N(1) = {1} is one
    "core-block-routes-agree": (2, (1, 2), ((1, 2), (0, 2), (0, 0))),
    # the scan finds {1} for 1, where N(1) = {1, 2}
    "core-block-is-neighborhood": (2, (1, 2), ((3, 2), (1, 2), (0, 0))),
    # 2 in no block: the singleton {2} is no core block
    "non-core-block-structure": (2, (1, 2), ((1, 2), (1, 0), (0, 0))),
    # {1} rebuilt by its proper subsets, while it is the core block of 1
    "reducible-not-core": (2, (1, 2, 3), ((1, 2), (5, 6), (1, 0, 3))),
    # N(2) = {1, 2}: the partition's neighborhoods are not the partition
    "partition-fixed-point": (2, (1, 2), ((1, 3), (1, 2), (0, 0))),
    # a fixed point with a block rebuilt by its proper subsets
    "quick-reject-sound": (2, (1, 2), ((1, 2), (1, 2), (1, 0))),
}


@pytest.mark.parametrize("law", sorted(CORRUPTED_STATES))
def test_law_fires_on_corrupted_state(law):
    n, masks, state = CORRUPTED_STATES[law]
    computed = _laws._covering_state(n, masks)
    assert _laws._check_covering(n, masks, {}, computed)[4] == []
    assert law in _laws._check_covering(n, masks, {}, state)[4]


@pytest.mark.parametrize("n, count", [(4, 1952), (5, 20000)])
def test_run_memo_is_only_a_memo(n, count):
    # one memo shared by the whole run gives what a fresh one per call
    # gives, law names in the same order; n=5 on its first 20000
    # representatives
    reps = list(islice(_laws._orbit_representatives(n), count))
    memo = {}
    shared = [_laws._check_covering(n, m, memo, s) for m, _, s in reps]
    fresh = [_laws._check_covering(n, m, {}, s) for m, _, s in reps]
    assert shared == fresh
    assert 1 < len(memo) < count


def _labelled_scan(n):
    """Every law on every labelled covering, the path verification took
    before it checked one covering per orbit."""
    totals = [0] * 5
    violations = []
    for masks in covering_masks_scan(n):
        # a fresh image memo per covering checks every image law anew
        state = _laws._covering_state(n, masks)
        *flags, bad = _laws._check_covering(n, masks, {}, state)
        for i, v in enumerate((1, *flags)):
            totals[i] += v
        violations.extend((masks, law) for law in bad)
    return tuple(totals), violations


def _counts(s):
    return (
        s.total_coverings,
        s.partitions,
        s.irreducible,
        s.invariable,
        s.fixed_points,
    )


def _canonical(masks, n):
    """The largest family mask in the orbit, by brute force."""
    return max(map(family_mask, orbit_bruteforce(family_of_masks(masks), n)))


def _has_no_singleton(family):
    return all(m & (m - 1) for m in family)


def _cov_masks_without_singletons(n, masks, cov_masks=_laws._cov_masks):
    # cov_masks is bound to the real helper before any test patches it
    return tuple(m for m in cov_masks(n, masks) if m & (m - 1))


def _pair_counts_without_singletons(n, masks, pair_counts=_laws._pair_counts):
    # a singleton block {x} then goes missing from lambda(x, x)
    return pair_counts(n, [m for m in masks if m & (m - 1)])


def _core_scan_without_meets(n, masks, blkidx, lam, core_scan=_laws._core_scan):
    # every core block then looks larger than its meet, at every element
    scan, unique, _ = core_scan(n, masks, blkidx, lam)
    return scan, unique, [0] * n


# Broken law-checker helpers: the per-covering reducibility flags, meets and
# direct pair counts, and the two checks behind the image laws.  Each break
# depends on the blocks only up to relabelling, as the laws do, and the
# image-law ones break some images and spare others of the same size, so a
# memo that mixed up two images would show.
SABOTAGES = {
    "_reducible_flags": lambda masks, unions=None: [False] * len(masks),
    "_core_scan": _core_scan_without_meets,
    "_pair_counts": _pair_counts_without_singletons,
    "_no_union_ok": _has_no_singleton,
    "_cov_masks": _cov_masks_without_singletons,
}


class TestVerifyLaws:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_and_no_violations(self, n):
        s = verify_laws(n)
        assert s.violations == ()
        got = (
            s.total_coverings,
            s.partitions,
            s.irreducible,
            s.invariable,
            s.fixed_points,
        )
        assert got == FROZEN_CENSUS[n]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_labelled_scan(self, n):
        totals, violations = _labelled_scan(n)
        s = verify_laws(n)
        assert _counts(s) == totals
        assert s.violations == () and violations == []

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(SABOTAGES))
    def test_one_violation_per_violating_orbit(self, monkeypatch, n, name):
        # a representative's image laws come from the run's memo, the
        # labelled scan checks them afresh on every covering
        monkeypatch.setattr(_laws, name, SABOTAGES[name])
        totals, labelled = _labelled_scan(n)
        assert labelled
        s = verify_laws(n)
        assert _counts(s) == totals
        got = [
            (_canonical([b.bits for b in c.blocks], n), law)
            for c, law in s.violations
        ]
        assert len(got) == len(set(got))
        assert set(got) == {(_canonical(m, n), law) for m, law in labelled}

    def test_image_memo_lasts_one_run(self, monkeypatch):
        assert verify_laws(3).violations == ()
        monkeypatch.setattr(_laws, "_no_union_ok", lambda family: False)
        laws = {law for _, law in verify_laws(3).violations}
        assert "cov-no-union" in laws

    def test_fixed_points_outnumber_partitions(self):
        s = verify_laws(3)
        assert s.fixed_points > s.partitions

    def test_summary_dict_schema(self):
        d = summary_to_dict(verify_laws(2))
        assert d == {
            "n": 2,
            "total": 5,
            "partitions": 2,
            "irreducible": 4,
            "invariable": 4,
            "fixed_points": 4,
            "violations": [],
        }

    def test_five_is_verified(self, five_shard):
        s = verify_laws(5)
        assert s.universe_size == 5
        assert s.total_coverings == five_shard
        assert s.violations == ()

    def test_six_is_refused(self):
        with pytest.raises(UniverseTooLarge, match="capped at 5"):
            verify_laws(6)

    def test_progress_is_logged(self, monkeypatch, caplog):
        # with no interval, the clock is read and a record logged once per
        # 1024 representatives: once in the 1952 at n=4, then the run's
        # closing record
        monkeypatch.setattr(oracle, "_PROGRESS_INTERVAL_S", 0.0)
        with caplog.at_level(logging.INFO, logger="covrough.oracle"):
            verify_laws(4)
        assert len(caplog.records) == 2
        for record in caplog.records:
            assert record.name == "covrough.oracle"
            assert record.levelno == logging.INFO
        progress, end = (r.getMessage() for r in caplog.records)
        assert progress.startswith("verify n=4: 1024/1952 orbits, ")
        assert re.fullmatch(
            r"verify n=4: 1952 orbits done, \d+\.\d s wall, \d+\.\d s CPU", end
        )

    def test_progress_rate_covers_the_last_interval_only(
        self, monkeypatch, caplog
    ):
        # the clock is read at the start and once per 512 representatives:
        # records at 512 (t=16) and 1536 (t=27, 1024 orbits in 11 s); the
        # mean rate since the start would read 57/s and ETA 7 s there.  The
        # closing record reads both clocks again at the end (t=31).
        clock = iter([0.0, 16.0, 20.0, 27.0, 31.0])
        cpu = iter([2.0, 26.5])
        monkeypatch.setattr(
            oracle,
            "time",
            SimpleNamespace(
                perf_counter=lambda: next(clock), process_time=lambda: next(cpu)
            ),
        )
        monkeypatch.setattr(oracle, "_PROGRESS_STRIDE", 512)
        monkeypatch.setattr(oracle, "_PROGRESS_INTERVAL_S", 10.0)
        with caplog.at_level(logging.INFO, logger="covrough.oracle"):
            verify_laws(4)
        assert [r.getMessage() for r in caplog.records] == [
            "verify n=4: 512/1952 orbits, 32/s, ETA 45 s",
            "verify n=4: 1536/1952 orbits, 93/s, ETA 4 s",
            "verify n=4: 1952 orbits done, 31.0 s wall, 24.5 s CPU",
        ]

    def test_progress_is_silent_without_logging_configuration(self):
        # INFO records reach no handler by default, so a library caller
        # that configures nothing sees nothing
        script = (
            "from covrough import oracle; "
            "oracle._PROGRESS_INTERVAL_S = 0.0; "
            "print(oracle.verify_laws(4).total_coverings)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout == "32297\n"
        assert done.stderr == ""

    @pytest.mark.parametrize("where", ["checker", "walk"])
    def test_interrupt_is_logged_and_raised(self, monkeypatch, caplog, where):
        # stopped while checking the sixth representative, or while the
        # walk looks for it: five are done either way
        if where == "checker":
            check = _laws._check_covering
            calls = []

            def interrupted(*args):
                if len(calls) == 5:
                    raise KeyboardInterrupt
                calls.append(args)
                return check(*args)

            monkeypatch.setattr(oracle, "_check_covering", interrupted)
        else:

            def walk(n):
                yield from islice(_laws._orbit_representatives(n), 5)
                raise KeyboardInterrupt

            monkeypatch.setattr(oracle, "_orbit_representatives", walk)
        with caplog.at_level(logging.INFO, logger="covrough.oracle"):
            with pytest.raises(KeyboardInterrupt):
                verify_laws(3)
        assert [r.getMessage() for r in caplog.records] == [
            "verify n=3: interrupted after 5 of 34 orbits"
        ]

    def test_broken_law_is_reported(self, monkeypatch):
        # sabotage reducibility detection and make sure the harness notices:
        # a covering with a redundant union block then counts as invariable
        # without being a fixed point
        monkeypatch.setattr(
            _laws, "_reducible_flags", lambda masks, unions=None: [False] * len(masks)
        )
        summary = oracle.verify_laws(2)
        laws = {law for _, law in summary.violations}
        assert "invariable-iff-fixed-point" in laws
        rendered = summary_to_dict(summary)
        assert rendered["violations"], "violations must survive rendering"
        entry = rendered["violations"][0]
        assert set(entry) == {"covering", "law"}
        assert set(entry["covering"]) == {"universe", "blocks"}

    def test_wrong_reduct_is_reported(self, monkeypatch):
        # an iterative reduct that removes nothing leaves the neighborhoods
        # alone but disagrees with the one-pass filter on reducible coverings
        monkeypatch.setattr(_laws, "_reduct_masks", lambda masks: masks)
        laws = {law for _, law in oracle.verify_laws(2).violations}
        assert laws == {"reduct-one-pass"}


class TestReductReference:
    """The oracle's reduct tests each block against the blocks kept before
    it; the reference in oracles.py restarts from the first block after
    every deletion."""

    @staticmethod
    def _agree(masks):
        def members(m):
            return frozenset(i for i in range(m.bit_length()) if m >> i & 1)

        expected = reduct_restarting([members(m) for m in masks])
        assert [members(m) for m in _laws._reduct_masks(masks)] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_labelled_covering(self, n):
        for masks in covering_masks_scan(n):
            self._agree(masks)

    def test_first_shard_at_five(self):
        for masks, _, _ in islice(_laws._orbit_representatives(5), 2000):
            self._agree(masks)

    @settings(max_examples=200)
    @given(planted_coverings())
    def test_planted_coverings(self, c):
        self._agree(tuple(b.bits for b in c.blocks))


@pytest.mark.parametrize(
    "family, ok",
    [((1, 2, 3), False), ((1, 2, 4, 7), False), ((1, 2), True), ((3, 5, 6), True)],
)
def test_no_union_reference(family, ok):
    # 3 = 1 | 2 and 7 = 1 | 2 | 4; in (3, 5, 6) each union of two is 7
    assert _laws._no_union_ok(family) is ok


class TestCensus:
    def test_rows_are_consistent(self, fixed_non_partition):
        rows = list(census(3))
        assert len(rows) == 109
        for row in rows:
            assert row.is_invariable == row.is_cov_fixed_point
            if row.is_partition:
                assert row.is_cov_fixed_point
            assert row.cov_image == cov(row.covering)

    def test_contains_a_non_partition_fixed_point(self, fixed_non_partition):
        rows = [
            r
            for r in census(3)
            if r.is_cov_fixed_point and not r.is_partition
        ]
        assert any(r.covering == fixed_non_partition for r in rows)

    @pytest.mark.parametrize("n, count", [(4, None), (5, 2000)])
    def test_rows_match_the_per_row_route(self, n, count):
        """Each row equals the one built from a fresh covering, with no
        shared table or image, by the public operators alone."""
        for row in islice(census(n), count):
            c = make_covering(
                row.covering.universe, [b.members() for b in row.covering]
            )
            verdict = is_invariable(c)
            image = cov(c)
            assert row == CensusRow(
                covering=c,
                is_partition=is_partition(c),
                is_irreducible=not verdict.reducible_blocks,
                is_invariable=verdict.invariable,
                is_cov_fixed_point=image == c,
                cov_image=image,
            )

    def test_flag_totals_match_verify_laws(self):
        totals = [0] * 5
        for row in census(4):
            totals[0] += 1
            totals[1] += row.is_partition
            totals[2] += row.is_irreducible
            totals[3] += row.is_invariable
            totals[4] += row.is_cov_fixed_point
        s = verify_laws(4)
        assert tuple(totals) == FROZEN_CENSUS[4] == (
            s.total_coverings,
            s.partitions,
            s.irreducible,
            s.invariable,
            s.fixed_points,
        )

    @pytest.mark.parametrize("n, images", [(3, 29), (4, 355)])
    def test_equal_neighborhoods_share_one_image(self, n, images):
        """The neighborhoods N(x) fix the image, so a run builds one image
        per labelled preorder (OEIS A000798) and every row with those
        neighborhoods holds that same object."""
        rows = list(census(n))
        first: dict[tuple[int, ...], Covering] = {}
        for row in rows:
            nbh = tuple(
                b.bits for b in neighborhood_map(row.covering).per_element.values()
            )
            assert first.setdefault(nbh, row.cov_image) is row.cov_image
        assert len(first) == len({id(row.cov_image) for row in rows}) == images


class TestPreimages:
    def test_partition_with_many_sources(self, singletons3, triangle):
        got = preimages(singletons3)
        assert len(got) == 36
        assert singletons3 in got
        assert triangle in got

    def test_non_fixed_point_has_none(self, overlapping_pair):
        assert preimages(overlapping_pair) == []

    def test_trivial_universe(self, u1):
        c = make_covering(u1, [["1"]])
        assert preimages(c) == [c]

    def test_limit_truncates(self, singletons3):
        assert len(preimages(singletons3, limit=7)) == 7

    def test_limit_zero_returns_nothing(self, singletons3):
        assert preimages(singletons3, limit=0) == []

    def test_negative_limit_rejected(self, singletons3):
        with pytest.raises(ValueError):
            preimages(singletons3, limit=-1)

    @pytest.mark.parametrize("limit", [1.5, True, "1"])
    def test_non_int_limit_rejected(self, singletons3, limit):
        # 1.5 would otherwise give two coverings
        message = f"limit must be an int; got {type(limit).__name__}"
        with pytest.raises(TypeError, match=message):
            preimages(singletons3, limit=limit)

    def test_every_preimage_maps_back(self, singletons3):
        for p in preimages(singletons3):
            assert cov(p) == singletons3

    def test_retained_memory_per_preimage(self):
        # a covering keeps its blocks once, in the canonical tuple
        target = make_covering(default_universe(4), [["1"], ["2"], ["3"], ["4"]])
        preimages(target)  # warm up, so that only the result is counted
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            found = preimages(target)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(found) == 19020
        assert retained / len(found) < 400

    def test_size_cap(self):
        u = default_universe(5)
        c = make_covering(u, [[str(i) for i in range(1, 6)]])
        with pytest.raises(UniverseTooLarge):
            preimages(c)

    def test_nonempty_iff_fixed_point_exhaustively(self):
        for d in enumerate_coverings(3):
            got = preimages(d)
            if is_cov_fixed_point(d):
                assert d in got
            else:
                assert got == []

    def test_every_image_is_reachable_from_its_source(self):
        for n in (1, 2, 3):
            for c in enumerate_coverings(n):
                image = cov(c)
                assert c in preimages(image)
                assert image in preimages(image)

    # The down-set search against the independent route: enumerate every
    # covering and group it by its image under the library's ``cov``.

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_filtered_enumeration(self, n):
        coverings = list(enumerate_coverings(n))
        for d in coverings:
            assert preimages(d) == [c for c in coverings if cov(c) == d]

    def test_fixed_points_partition_all_coverings_n4(self):
        by_image: dict = {}
        for c in enumerate_coverings(4):
            by_image.setdefault(cov(c), []).append(c)
        assert len(by_image) == FROZEN_CENSUS[4][4]
        total = 0
        for d, sources in by_image.items():
            # sources are in enumeration order and hold no duplicates
            assert preimages(d) == sources
            total += len(sources)
        assert total == FROZEN_CENSUS[4][0]

    def test_limit_gives_a_prefix(self):
        for n in (1, 2, 3):
            for d in enumerate_coverings(n):
                full = preimages(d)
                for k in range(len(full) + 2):
                    assert preimages(d, limit=k) == full[:k]
        u = default_universe(4)
        for d in (
            make_covering(u, [["1"], ["2"], ["3"], ["4"]]),
            make_covering(u, [["1"], ["1", "2"], ["1", "2", "3"], ["1", "2", "3", "4"]]),
        ):
            full = preimages(d)
            for k in (0, 1, 2, 3, 17, len(full) - 1, len(full), len(full) + 1):
                assert preimages(d, limit=k) == full[:k]

    def test_relabelled_universe(self):
        # the walk's per-size table holds no labels: a target over a, b, c
        # (, d) has the default target's preimages, relabelled, and each
        # result and block lies in the target's own universe
        u4 = default_universe(4)
        chain = [["1"], ["1", "2"], ["1", "2", "3"], ["1", "2", "3", "4"]]
        targets = _fixed_points(3) + [
            make_covering(u4, [["1"], ["2"], ["3"], ["4"]]),
            make_covering(u4, chain),
        ]
        for d in targets:
            letters = Universe(tuple("abcd"[: d.universe.size]))
            e = _relabelled(d, letters)
            got = preimages(e)
            assert got == [_relabelled(c, letters) for c in preimages(d)]
            for c in got:
                assert c.universe == letters
                assert all(b.universe == letters for b in c.blocks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_downsets_equal_the_filter(self, n):
        # the unions of the principal down-sets against every subset
        # filtered by the definition of a down-set
        for d in _fixed_points(n):
            got = oracle._downsets(table(d).nbh)
            assert got == sorted(set(got))
            labelled = {frozenset(Block(d.universe, m).members()) for m in got}
            assert labelled == downsets_bruteforce(d)


class TestColumns:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_columns_follow_their_definition(self, n):
        # field x of subset m's column is m when x is in m, else all ones
        field = (1 << n + 1) - 1
        columns = oracle._columns(n)
        assert len(columns) == 1 << n
        for m, column in enumerate(columns):
            fields = [m if m >> x & 1 else field for x in range(n)]
            assert column == oracle._pack(n, fields)
            assert [column >> x * (n + 1) & field for x in range(n)] == fields
            assert column >> n * (n + 1) == 0

    def test_built_on_first_use(self):
        # importing the module builds no table; a 3-element search builds
        # the one for n=3 only
        script = (
            "from covrough import default_universe, make_covering, oracle; "
            "print(oracle._columns.cache_info().currsize); "
            "u = default_universe(3); "
            "oracle.preimages(make_covering(u, [['1'], ['2'], ['3']])); "
            "print(oracle._columns.cache_info().currsize)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout == "0\n1\n"


def _assert_revalidates(c):
    """``c``, built by the library without the constructor's checks,
    equals its rebuild through the validating public constructors."""
    u = c.universe
    again = Covering(u, [Block(u, b.bits) for b in c.blocks])
    assert again == c
    assert hash(again) == hash(c)
    assert repr(again) == repr(c)


class TestDerivedCoveringsRevalidate:
    """Every covering the library derives passes the public validation and
    comes out unchanged: same blocks, in the same order."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_labelled_covering_with_cov_and_reduct(self, n):
        for c in enumerate_coverings(n):
            for derived in (c, cov(c), reduct(c)):
                _assert_revalidates(derived)

    def test_derived_blocks(self):
        for n in (1, 2, 3):
            for c in enumerate_coverings(n):
                u = c.universe
                cores = (core_block(c, x) for x in u.names)
                derived = [*neighborhood_map(c).per_element.values(), *cores]
                for b in filter(None, derived):
                    again = Block(u, b.bits)
                    assert again == b and repr(again) == repr(b)

    def test_every_preimage_at_four(self):
        fixed = [d for d in enumerate_coverings(4) if is_cov_fixed_point(d)]
        assert len(fixed) == FROZEN_CENSUS[4][4]
        total = 0
        for d in fixed:
            for p in preimages(d):
                _assert_revalidates(p)
                total += 1
        assert total == FROZEN_CENSUS[4][0]

    @given(planted_coverings())
    def test_planted_coverings(self, c):
        u = c.universe
        rebuilt = make_covering(u, [b.members() for b in reversed(c.blocks)])
        for derived in (rebuilt, cov(c), reduct(c)):
            _assert_revalidates(derived)

    def test_violation_records(self, monkeypatch):
        name = "_reducible_flags"
        monkeypatch.setattr(_laws, name, SABOTAGES[name])
        violations = verify_laws(3).violations
        assert violations
        for c, _ in violations:
            _assert_revalidates(c)
