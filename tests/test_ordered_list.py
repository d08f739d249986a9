"""Unit and property tests for the ordered substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltss.ordered_list import INF, OrderedList, StructureError

from helpers import build_ordered


def decreasing_keys():
    return st.lists(st.integers(1, 200), min_size=0, max_size=30,
                    unique=True).map(lambda xs: sorted(xs, reverse=True))


def test_min_examples():
    assert build_ordered([8, 2, 1]).min() == 1
    assert OrderedList().min() == INF
    assert build_ordered([6, 5, 4, 3]).min() == 3


def test_insert_at_tail():
    lst = build_ordered([8])
    lst.insert(2, 2)
    assert lst.keys() == [8, 2]
    assert lst.size == 2


def test_insert_duplicate_merges_positions():
    lst = build_ordered([8, 2])
    lst.insert(2, 12)
    assert lst.keys() == [8, 2]
    assert lst.entries[-1].positions == [2, 12]


def test_insert_into_empty():
    lst = OrderedList()
    lst.insert(8, 1)
    assert lst.keys() == [8]
    assert lst.min() == 8


def test_insert_interior_and_interior_duplicate():
    # the threshold structure only inserts at or below the minimum, so a
    # key above it, new or already stored, is a caller bug
    lst = build_ordered([8, 5, 2])
    with pytest.raises(StructureError):
        lst.insert(6, 4)
    with pytest.raises(StructureError):
        lst.insert(5, 5)
    assert lst.keys() == [8, 5, 2]
    assert [e.positions for e in lst.entries] == [[1], [2], [3]]


def test_remove_min_drops_all_positions():
    lst = build_ordered([8, 2])
    lst.insert(2, 3)
    lst.remove_min()
    assert lst.keys() == [8]
    with pytest.raises(StructureError):
        OrderedList().remove_min()


def test_predecessor_examples():
    lst = build_ordered([6, 5, 4, 3])
    assert lst.predecessor(8).entry.value == 6
    assert lst.predecessor(5).entry.value == 5
    assert lst.predecessor(2) is None
    assert lst.predecessor(INF).entry.value == 6
    assert OrderedList().predecessor(5) is None


def test_predecessor_returns_first_position_of_entry():
    lst = build_ordered([8, 2])
    lst.insert(2, 12)
    h = lst.predecessor(3)
    assert h.entry.value == 2
    assert h.entry.positions[0] == 2


@settings(max_examples=200)
@given(decreasing_keys(), st.integers(0, 210))
def test_predecessor_matches_linear_scan(keys, bound):
    lst = build_ordered(keys)
    expected = max((k for k in keys if k <= bound), default=None)
    h = lst.predecessor(bound)
    assert (h.entry.value if h else None) == expected


def test_split_concatenate_examples():
    lst = build_ordered([6, 5, 4, 3])
    detached = lst.split_at(lst.predecessor(5))
    assert lst.keys() == [6]
    assert detached.keys() == [5, 4, 3]

    target = build_ordered([8])
    other = build_ordered([6, 5, 4, 3], start=2)
    target.concatenate(other)
    assert target.keys() == [8, 6, 5, 4, 3]
    assert other.entries == []

    empty = OrderedList()
    empty.concatenate(build_ordered([8]))
    assert empty.keys() == [8]


def test_split_whole_list():
    lst = build_ordered([6, 5, 4])
    detached = lst.split_at(lst.predecessor(INF))
    assert lst.keys() == []
    assert detached.keys() == [6, 5, 4]


def test_concatenate_merges_equal_boundary():
    a = OrderedList()
    a.insert(7, 1)
    a.insert(5, 5)
    b = OrderedList()
    b.insert(5, 9)
    a.concatenate(b)
    assert a.keys() == [7, 5]
    assert a.entries[-1].positions == [5, 9]


def test_concatenate_interleaved_positions_raise():
    # equal boundary keys merge only when every detached position follows
    # every stored one, as it does between adjacent levels of the structure
    a = OrderedList()
    a.insert(7, 1)
    a.insert(5, 9)
    b = OrderedList()
    b.insert(5, 4)
    with pytest.raises(StructureError):
        a.concatenate(b)


def test_concatenate_order_violation():
    a = build_ordered([3])
    with pytest.raises(StructureError):
        a.concatenate(build_ordered([5], start=2))


def test_split_stale_handle():
    lst = build_ordered([5])
    h = lst.predecessor(5)
    lst.remove_min()
    lst.insert(5, 2)  # same key, different entry
    with pytest.raises(StructureError):
        lst.split_at(h)


def test_iter_pairs_position_order():
    lst = build_ordered([8, 2])
    lst.insert(2, 12)
    assert list(lst.iter_pairs()) == [(8, 1), (2, 2), (2, 12)]
    h = lst.predecessor(2)
    assert list(lst.iter_pairs(h)) == [(2, 2), (2, 12)]


@settings(max_examples=150)
@given(decreasing_keys().filter(len), st.integers(0, 210))
def test_split_concatenate_round_trip(keys, bound):
    lst = build_ordered(keys)
    before = [(e.value, tuple(e.positions)) for e in lst.entries]
    h = lst.predecessor(bound)
    if h is None:
        return
    detached = lst.split_at(h)
    assert all(k > bound for k in lst.keys())
    assert all(k <= bound for k in detached.keys())
    lst.concatenate(detached)
    assert [(e.value, tuple(e.positions)) for e in lst.entries] == before


def test_ops_counter_moves():
    lst = build_ordered([9, 7, 5, 3, 1])
    before = lst.ops.steps
    lst.predecessor(4)
    assert lst.ops.steps > before
