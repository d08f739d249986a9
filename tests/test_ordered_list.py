"""Unit and property tests for one level of the threshold structure.

A level is an ordered list of keys, largest first, with positions kept in
the append log: appends land at a level's tail, an extract-min drops the
level-1 tail with every position of its value, and the cascade cuts a
level at a key bound and concatenates the cut onto the level below.
Searches by key bound are the enumeration windows over the positional
levels that the shared patience build makes from the log's survivors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltss.dynamic_lis import INF, ThresholdStructure

from helpers import _window, build_structure


def decreasing_keys():
    return st.lists(st.integers(1, 200), min_size=0, max_size=30,
                    unique=True).map(lambda xs: sorted(xs, reverse=True))


def window(ts, bound, level=0):
    """(value, position) pairs of a level from its largest key at most
    bound on, in position order."""
    levels = ts._survivor_levels()
    if not levels:
        return []
    # the keys are ints, so strictly below bound + 1 is at most bound
    return [(v, p) for p, v in _window(levels[level], bound + 1, INF)]


def predecessor(ts, bound, level=0):
    """First (value, position) of the largest key at most bound, or None."""
    pairs = window(ts, bound, level)
    return pairs[0] if pairs else None


def test_min_examples():
    assert build_structure([8, 2, 1]).min_value() == 1
    assert ThresholdStructure().min_value() == INF
    ts = build_structure([6, 5, 4, 3])
    assert ts.key_lists() == [[6, 5, 4, 3]]
    assert ts.min_value() == 3


def test_insert_at_tail():
    ts = build_structure([8])
    ts.append(2)
    assert ts.key_lists() == [[8, 2]]
    assert ts.size == 2


def test_insert_duplicate_merges_positions():
    ts = build_structure([8, 2])
    ts.append(2)
    assert ts.key_lists() == [[8, 2]]
    assert ts.snapshot() == [[(8, (1,)), (2, (2, 3))]]


def test_insert_into_empty():
    ts = ThresholdStructure()
    ts.append(8)
    assert ts.key_lists() == [[8]]
    assert ts.min_value() == 8


def test_insert_interior_and_interior_duplicate():
    # a key above a level's minimum, new or already stored there, never
    # enters that level's interior: it lands on a higher level
    ts = build_structure([8, 5, 2])
    ts.append(6)
    ts.append(5)
    assert ts.key_lists() == [[8, 5, 2], [6, 5]]
    assert ts.snapshot()[0] == [(8, (1,)), (5, (2,)), (2, (3,))]


def test_remove_min_drops_all_positions():
    ts = build_structure([8, 2, 2])
    ts.extract_min()
    assert ts.key_lists() == [[8]]
    assert ts.snapshot() == [[(8, (1,))]]
    assert ts.size == 1
    with pytest.raises(ValueError):
        ThresholdStructure().extract_min()


def test_predecessor_examples():
    ts = build_structure([6, 5, 4, 3])
    assert predecessor(ts, 8)[0] == 6
    assert predecessor(ts, 5)[0] == 5
    assert predecessor(ts, 2) is None
    assert predecessor(ts, INF)[0] == 6
    assert predecessor(ThresholdStructure(), 5) is None


def test_predecessor_returns_first_position_of_entry():
    ts = build_structure([8, 2, 2])
    assert predecessor(ts, 3) == (2, 2)


@settings(max_examples=200)
@given(decreasing_keys(), st.integers(0, 210))
def test_predecessor_matches_linear_scan(keys, bound):
    ts = build_structure(keys)
    expected = max((k for k in keys if k <= bound), default=None)
    found = predecessor(ts, bound)
    assert (found[0] if found else None) == expected


def test_split_concatenate_examples():
    # dropping 2 leaves level 1 at minimum 5, so level 2's keys at most 5
    # are cut off and concatenated below
    ts = build_structure([5, 2, 8, 6, 4, 3])
    assert ts.key_lists() == [[5, 2], [8, 6, 4, 3]]
    ts.extract_min()
    assert ts.key_lists() == [[5, 4, 3], [8, 6]]
    assert ts.snapshot() == [[(5, (1,)), (4, (5,)), (3, (6,))],
                             [(8, (3,)), (6, (4,))]]
    assert ts.stats.transfers_out == {2: 2}


def test_split_whole_list():
    ts = build_structure([2, 6, 5, 4])
    assert ts.key_lists() == [[2], [6, 5, 4]]
    ts.extract_min()
    assert ts.key_lists() == [[6, 5, 4]]
    assert ts.lis_length == 1
    assert ts.stats.transfers_out == {2: 3}


def test_concatenate_merges_equal_boundary():
    ts = build_structure([7, 5, 2, 5])
    assert ts.key_lists() == [[7, 5, 2], [5]]
    ts.extract_min()
    assert ts.key_lists() == [[7, 5]]
    assert ts.snapshot() == [[(7, (1,)), (5, (2, 4))]]
    assert ts.size == 3


def test_iter_pairs_position_order():
    ts = build_structure([8, 2, 2])
    assert window(ts, INF) == [(8, 1), (2, 2), (2, 3)]
    assert window(ts, 2) == [(2, 2), (2, 3)]


def test_ops_counter_moves():
    ts = build_structure([9, 7, 5, 3, 1])
    before = ts.stats.tree_ops()
    ts.append(4)
    assert ts.stats.tree_ops() > before
