from itertools import combinations, product

import pytest

from gpdalg import (
    Subspace,
    action_groupoid,
    cyclic_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    ring_from_spec,
)


def zg(k):
    return group_groupoid(cyclic_table(k))


def swap3():
    # z2 swapping objects 0,1 and fixing 2
    return action_groupoid(cyclic_table(2), [(0, 1, 2), (1, 0, 2)])


def swap2():
    return action_groupoid(cyclic_table(2), [(0, 1), (1, 0)])


def cycle3():
    return action_groupoid(cyclic_table(3),
                           [(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def double_swap():
    # z2 on four points as two 2-cycles
    return action_groupoid(cyclic_table(2), [(0, 1, 2, 3), (1, 0, 3, 2)])


def klein_table():
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def named_pool():
    """Shared corpus: small groupoids exercising every structural case."""
    return [
        ("pair:1", pair_groupoid(1)),
        ("pair:2", pair_groupoid(2)),
        ("pair:3", pair_groupoid(3)),
        ("z:1", zg(1)),
        ("z:2", zg(2)),
        ("z:3", zg(3)),
        ("z:4", zg(4)),
        ("swap3", swap3()),
        ("swap2", swap2()),
        ("cycle3", cycle3()),
        ("double_swap", double_swap()),
        ("z2+pt", disjoint_union(zg(2), pair_groupoid(1))),
        ("pair2+z3", disjoint_union(pair_groupoid(2), zg(3))),
    ]


def all_subspaces(ring, dim):
    """Brute-force reference: every subspace of F_q^dim, one RREF each.

    Lists the reduced echelon bases directly, pivot set by pivot set, with
    every choice of free entries; no bound, so keep dim small.
    """
    elems = list(ring.elements())
    for k in range(dim + 1):
        for pivs in combinations(range(dim), k):
            free = [(i, j) for i in range(k) for j in range(dim)
                    if j > pivs[i] and j not in pivs]
            for vals in product(elems, repeat=len(free)):
                rows = [[ring.zero] * dim for _ in range(k)]
                for i in range(k):
                    rows[i][pivs[i]] = ring.one
                for (i, j), v in zip(free, vals):
                    rows[i][j] = v
                yield Subspace._trusted(ring, dim,
                                        [tuple(r) for r in rows])


RING_SPECS = ("q", "fp:2", "fp:3", "zn:4")


@pytest.fixture(params=RING_SPECS)
def any_ring(request):
    return ring_from_spec(request.param)


@pytest.fixture
def qq():
    return ring_from_spec("q")


@pytest.fixture
def f2():
    return ring_from_spec("fp:2")


@pytest.fixture
def f3():
    return ring_from_spec("fp:3")


@pytest.fixture
def z4ring():
    return ring_from_spec("zn:4")
