from itertools import islice

import pytest

from covrough import Universe, make_covering, oracle


@pytest.fixture
def five_shard(monkeypatch):
    """Make n=5 verification walk only the first 2000 of its 18664632
    representatives, since the whole walk takes minutes (README "Limits");
    returns the number of coverings those 2000 stand for."""
    shard = list(islice(oracle._orbit_representatives(5), 2000))
    monkeypatch.setattr(oracle, "_orbit_representatives", lambda n: iter(shard))
    return sum(weight for _, weight, _ in shard)


@pytest.fixture
def u1():
    return Universe(("1",))


@pytest.fixture
def u2():
    return Universe(("1", "2"))


@pytest.fixture
def u3():
    return Universe(("1", "2", "3"))


@pytest.fixture
def u4():
    return Universe(("1", "2", "3", "4"))


# Small coverings exercising the interesting shapes: a non-partition fixed
# point, a plain overlap, a chain of overlaps, nesting, a triangle of
# pairwise overlaps, and a family with a redundant union block.


@pytest.fixture
def fixed_non_partition(u3):
    return make_covering(u3, [["1"], ["1", "2"], ["3"]])


@pytest.fixture
def overlapping_pair(u3):
    return make_covering(u3, [["1", "2"], ["2", "3"]])


@pytest.fixture
def chain_of_overlaps(u4):
    return make_covering(u4, [["1", "2"], ["2", "3", "4"], ["3", "4"]])


@pytest.fixture
def nested_with_tail(u4):
    return make_covering(u4, [["1", "2"], ["1", "2", "3"], ["3", "4"]])


@pytest.fixture
def triangle(u3):
    return make_covering(u3, [["1", "2"], ["2", "3"], ["1", "3"]])


@pytest.fixture
def redundant_union(u3):
    return make_covering(u3, [["1"], ["2"], ["3"], ["1", "2"]])


@pytest.fixture
def singletons3(u3):
    return make_covering(u3, [["1"], ["2"], ["3"]])
