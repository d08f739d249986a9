"""Threshold structure tests: hand-computed states of the worked stream,
differential checks against the brute-force oracles, and the structural
invariants after randomized traces."""

import copy
import math
import random
from fractions import Fraction
from itertools import islice, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from ltss.dynamic_lis import (INF, Counters, ThresholdLevels,
                               ThresholdStructure, UncountedLevels,
                               enumerate_lis, positional_levels, walk_lis)
from ltss.oracle import (enumerate_lis_naive, naive_lis, patience_lis,
                         threshold_stacks)
from ltss.tandem import split_levels

from helpers import (WORKED_STREAM, ReferenceLevels, build_structure,
                     drop_min, random_ops, reference_walk_lis)

# the counters a cascade adds to; Counters.__slots__ adds the landing tally
# and the levels that transfers_out reads
COUNTS = ("append_calls", "extract_min_calls", "cascade_steps",
          "search_steps", "structure_steps")

# the six longest increasing subsequences of the worked stream after one
# extract-min and appends of 8 and 2, in enumeration order
WORKED_ENUMERATION = [
    ((2, 2), (5, 5), (6, 8), (8, 11)),
    ((2, 2), (4, 6), (6, 8), (8, 11)),
    ((2, 2), (3, 7), (6, 8), (8, 11)),
    ((2, 2), (4, 6), (5, 9), (8, 11)),
    ((2, 2), (3, 7), (5, 9), (8, 11)),
    ((2, 2), (3, 7), (4, 10), (8, 11)),
]


def worked_state():
    ts = build_structure(WORKED_STREAM)
    ts.extract_min()
    ts.append(8)
    ts.append(2)
    return ts


def counter_state(st):
    # every counter slot, copied, and the totals derived from them
    return ([copy.deepcopy(getattr(st, name)) for name in Counters.__slots__],
            st.transfers_out)


def check_transfers(transfers, reference):
    # the derived totals equal the reference's own per-step tally, keyed by
    # exactly the levels 2..K with every total above 0
    assert transfers == reference
    assert list(transfers) == list(range(2, len(transfers) + 2))
    assert all(moved > 0 for moved in transfers.values())


def check_invariants(ts):
    keys = ts.key_lists()
    assert len(keys) == ts.lis_length
    mins = [lst[-1] for lst in keys]
    assert all(lst for lst in keys)
    assert all(a < b for a, b in zip(mins, mins[1:]))
    for lst in keys:
        assert all(a > b for a, b in zip(lst, lst[1:]))
    assert ts.min_value() == (mins[0] if mins else INF)


def test_append_builds_worked_state():
    ts = build_structure(WORKED_STREAM)
    assert ts.key_lists() == [[8, 2, 1], [6, 5, 4, 3], [6, 5, 4]]
    assert ts.lis_length == 3
    assert ts.size == 10


def test_append_level_search():
    ts = build_structure([8])
    assert ts.key_lists() == [[8]]
    ts.append(2)
    assert ts.key_lists() == [[8, 2]]
    ts = build_structure(WORKED_STREAM)
    ts.extract_min()  # tails are now 2 < 3 < 4
    ts.append(8)
    assert ts.lis_length == 4
    assert ts.key_lists()[3] == [8]


def test_append_duplicate_of_tail_merges():
    ts = build_structure(WORKED_STREAM)
    ts.extract_min()
    before = ts.key_lists()
    ts.append(3)  # equals the level-2 tail
    assert ts.key_lists() == before
    assert ts.snapshot()[1][-1] == (3, (7, 11))


def test_nan_rejected_before_any_change():
    # NaN compares false against everything and would unsort a level
    ts = build_structure([3])
    counters = counter_state(ts.stats)
    for call, arg in ((ts.append, math.nan), (ts.extend, [2, math.nan, 1])):
        with pytest.raises(ValueError):
            call(arg)
        assert ts.key_lists() == [[3]]
        assert ts.size == 1
        assert ts.position_counter == 1
        assert ts.stats.landed == [1]
        assert counter_state(ts.stats) == counters


def test_extract_min_removes_only_level_one_tail():
    ts = build_structure(WORKED_STREAM)
    ts.extract_min()
    assert ts.key_lists() == [[8, 2], [6, 5, 4, 3], [6, 5, 4]]
    assert ts.lis_length == 3
    assert ts.size == 9


def test_extract_min_cascades_suffixes_down():
    ts = worked_state()
    assert ts.key_lists() == [[8, 2], [6, 5, 4, 3], [6, 5, 4], [8]]
    assert ts.snapshot()[0] == [(8, (1,)), (2, (2, 12))]
    ts.extract_min()  # removes both occurrences of 2
    assert ts.key_lists() == [[8, 6, 5, 4, 3], [6, 5, 4], [8]]
    assert ts.lis_length == 3
    assert ts.size == 9
    assert ts.stats.transfers_out == {2: 4, 3: 3, 4: 1}


def test_append_after_cascade_is_discarded_duplicate():
    ts = worked_state()
    ts.extract_min()
    ts.append(8)
    assert ts.key_lists() == [[8, 6, 5, 4, 3], [6, 5, 4], [8]]
    assert ts.snapshot()[2] == [(8, (11, 13))]


def test_extract_min_to_empty():
    ts = build_structure([5])
    ts.extract_min()
    assert ts.lis_length == 0
    assert ts.size == 0
    assert ts.min_value() == INF
    with pytest.raises(ValueError):
        ts.extract_min()


def test_extract_min_merges_boundary_duplicates():
    ts = build_structure([7, 5, 4, 5])
    assert ts.key_lists() == [[7, 5, 4], [5]]
    ts.extract_min()
    assert ts.key_lists() == [[7, 5]]
    assert ts.lis_length == 1
    assert ts.snapshot()[0][-1] == (5, (2, 4))


def test_positions_never_reused():
    ts = build_structure([3, 1])
    ts.extract_min()
    ts.append(2)
    assert ts.position_counter == 3
    assert ts.snapshot()[0] == [(3, (1,)), (2, (3,))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=40))
def test_append_batch_matches_append(values):
    plain = build_structure(values)
    batched = build_structure(values, batch=True)
    assert batched.snapshot() == plain.snapshot()
    assert batched.lis_length == plain.lis_length


def test_append_batch_value_equal_to_lower_tail():
    # the run falls from 6 back to 5, a value equal to the level-1 tail;
    # it must still collapse into that tail, not start a new entry
    plain = build_structure([7, 5, 6, 5])
    batched = build_structure([7, 5, 6, 5], batch=True)
    assert plain.key_lists() == [[7, 5], [6]]
    assert batched.snapshot() == plain.snapshot()


def test_extend_unsized_leaves_state_alone():
    ts = build_structure([6, 2, 9])
    before = (ts.key_lists(), ts.size, ts.position_counter,
              counter_state(ts.stats))
    assert ts.stats.landed == [2, 1]
    with pytest.raises(TypeError):
        ts.extend(iter([5, 3, 4]))
    assert (ts.key_lists(), ts.size, ts.position_counter,
            counter_state(ts.stats)) == before
    assert ts.stats.landed == [2, 1]
    empty = ThresholdStructure()
    with pytest.raises(TypeError):
        empty.extend(iter([5, 3, 4]))
    assert (empty.lis_length, empty.size, empty.position_counter) == (0, 0, 0)


def test_extend_equal_neighbour_searches_below_it():
    # a value not above its predecessor bisects only up to the
    # predecessor's level: 2 probes over three levels, then 1 below level 2
    ts = ThresholdLevels()
    ts.extend([1, 2, 3])
    before = ts.stats.search_steps
    ts.extend([2, 2])
    assert ts.stats.search_steps - before == 3


def test_extend_runs_survive_extracts():
    # every run of appends between two extracts goes in as one extend
    rng = random.Random(7)
    for _ in range(50):
        ops = random_ops(rng, rng.randint(1, 60), 9) + ["x"]
        plain = ThresholdStructure()
        batched = ThresholdStructure()
        run = []
        for op in ops:
            if op != "x":
                plain.append(op)
                run.append(op)
                continue
            batched.extend(run)
            run = []
            assert batched.key_lists() == plain.key_lists()
            assert batched.snapshot() == plain.snapshot()
            if plain.size:
                plain.extract_min()
                batched.extract_min()
                assert batched.key_lists() == plain.key_lists()
                assert batched.size == plain.size


def keys_state(ts):
    return ts.key_lists(), ts.lis_length, ts.min_value()


def lockstep_state(ts):
    return keys_state(ts) + ([getattr(ts.stats, name) for name in COUNTS],)


def test_levels_lockstep_with_structure():
    # the keys-only levels the scan drives, the logged structure and the
    # reference cascade that steps level by level agree on every key and
    # every counter after each step of a mixed trace, and the totals both
    # derive from their landing tallies equal the reference's per-step
    # tally; odd traces end by draining the structure, an extract that
    # empties level 1 below higher levels must shift those levels whole,
    # and equal boundary keys must merge; traces take int, float and
    # Fraction values in turn
    rng = random.Random(41)
    whole_shifts = merges = drains = 0
    for trace in range(300):
        scale = (int, lambda k: k / 2, lambda k: Fraction(k, 3))[trace % 3]
        trio = (ReferenceLevels(), ThresholdLevels(), ThresholdStructure())
        steps = rng.randint(1, 60)
        for step in range(steps + 60 * (trace % 2)):
            roll = rng.random() if step < steps else 0.0
            if roll < 0.3:
                keys = trio[0].key_lists()
                whole_shifts += len(keys) > 1 and len(keys[0]) == 1
                for ts in trio:
                    if not keys:
                        with pytest.raises(ValueError):
                            ts.extract_min()
                    else:
                        ts.extract_min()
                if keys:
                    lost = sum(map(len, keys)) - sum(
                        map(len, trio[0].key_lists()))
                    merges += lost - 1
                    drains += not trio[0].lis_length
            elif roll < 0.5:
                value = scale(rng.randint(1, 15))
                for ts in trio:
                    ts.append(value)
            else:
                if roll < 0.75:
                    run = sorted(rng.sample(range(1, 16), rng.randint(1, 6)),
                                 reverse=True)
                else:
                    run = [rng.randint(1, 15) for _ in range(rng.randint(0, 8))]
                run = [scale(k) for k in run]
                for ts in trio:
                    ts.extend(run)
            reference = lockstep_state(trio[0])
            for ts in trio[1:]:
                check_transfers(ts.stats.transfers_out, trio[0].transfers)
                assert lockstep_state(ts) == reference
            assert trio[1].stats.landed == trio[2].stats.landed
    assert whole_shifts >= 150
    assert merges >= 150
    assert drains >= 150


def test_uncounted_levels_lockstep_with_counted():
    # the levels of a request that prints no counter hold the same keys as
    # the counted ones after every append, run and extract of a mixed
    # trace, an extract that empties level 1 below higher levels and an
    # equal boundary key included, and their shared stats stays zero
    rng = random.Random(53)
    whole_shifts = merges = 0
    for _ in range(400):
        pair = (ThresholdLevels(), UncountedLevels())
        ops = random_ops(rng, rng.randint(1, 80), 15)
        for i, op in enumerate(ops):
            if op == "x":
                keys = pair[0].key_lists()
                for ts in pair:
                    if not keys:
                        with pytest.raises(ValueError):
                            ts.extract_min()
                    else:
                        ts.extract_min()
                if keys:
                    whole_shifts += len(keys) > 1 and len(keys[0]) == 1
                    merges += sum(map(len, keys)) - sum(
                        map(len, pair[0].key_lists())) - 1
            elif i % 2:
                for ts in pair:
                    ts.append(op)
            else:
                # the op and the ints after it, as the comparator feeds a
                # decreasing run, or as they come
                run = list(takewhile(lambda v: v != "x", ops[i:i + 5]))
                if op % 2:
                    run = sorted(set(run), reverse=True)
                for ts in pair:
                    ts.extend(run)
            assert keys_state(pair[1]) == keys_state(pair[0])
    zero = UncountedLevels.stats
    assert (zero.append_calls, zero.extract_min_calls, zero.landed,
            zero.transfers_out, zero.tree_ops()) == (0, 0, [], {}, 0)
    assert pair[1].stats is zero
    assert whole_shifts >= 250
    assert merges >= 2000


def test_cascade_steps_count_cut_levels():
    # every level a cascade cuts moves at least one entry down, so each
    # extract adds exactly the number of levels whose transfers grew
    rng = random.Random(43)
    for _ in range(200):
        ts = ThresholdLevels()
        for op in random_ops(rng, rng.randint(1, 80), 12):
            if op != "x":
                ts.append(op)
                continue
            if not ts.lis_length:
                continue
            st = ts.stats
            before = (st.cascade_steps, dict(st.transfers_out))
            ts.extract_min()
            grown = sum(1 for k, moved in st.transfers_out.items()
                        if moved > before[1].get(k, 0))
            assert st.cascade_steps == before[0] + grown


def test_lis_length_examples():
    assert ThresholdStructure().lis_length == 0
    assert build_structure(WORKED_STREAM).lis_length == 3
    assert build_structure([1, 2, 3]).lis_length == 3
    assert build_structure([3, 3, 3]).lis_length == 1


def test_all_lis_worked_enumeration():
    seqs = list(worked_state().all_lis())
    assert seqs == WORKED_ENUMERATION


def test_all_lis_singletons():
    assert list(build_structure([7]).all_lis()) == [((7, 1),)]
    assert list(build_structure([3, 3, 3]).all_lis()) == [
        ((3, 1),), ((3, 2),), ((3, 3),)]


def test_all_lis_empty_error():
    with pytest.raises(ValueError):
        ThresholdStructure().all_lis()
    ts = build_structure([4])
    ts.extract_min()
    with pytest.raises(ValueError):
        ts.all_lis()


def test_all_lis_matches_exhaustive_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        values = [rng.randint(1, 6) for _ in range(rng.randint(1, 10))]
        ts = build_structure(values)
        got = list(ts.all_lis())
        target = naive_lis(values)
        for seq in got:
            vs = [v for v, _ in seq]
            assert len(seq) == target
            assert all(a < b for a, b in zip(vs, vs[1:]))
        assert {tuple(p for _, p in seq) for seq in got} == \
            enumerate_lis_naive(values)


@pytest.mark.parametrize("scale", [lambda k: k / 2, lambda k: Fraction(k, 3)],
                         ids=["float", "fraction"])
def test_all_lis_non_integer_values(scale):
    # a window holds the values strictly below the chosen one, with no
    # integer step between neighbouring values
    assert list(build_structure([1.5, 2.0]).all_lis()) == [((1.5, 1), (2.0, 2))]
    rng = random.Random(29)
    for _ in range(200):
        values = [scale(rng.randint(1, 8)) for _ in range(rng.randint(1, 12))]
        got = list(build_structure(values).all_lis())
        assert all(v == values[p - 1] for seq in got for v, p in seq)
        assert len({tuple(p for _, p in seq) for seq in got}) == len(got)
        assert {tuple(p for _, p in seq) for seq in got} == \
            enumerate_lis_naive(values)


def test_all_lis_infinite_values():
    # the top window is the whole top level, so a subsequence may end at
    # +inf; a window below a chosen +inf holds every value below it
    assert list(build_structure([INF]).all_lis()) == [((INF, 1),)]
    assert list(build_structure([1, INF]).all_lis()) == [((1, 1), (INF, 2))]
    rng = random.Random(37)
    for _ in range(200):
        values = [rng.choice([-INF, INF, 1, 2, 3])
                  for _ in range(rng.randint(1, 10))]
        got = list(build_structure(values).all_lis())
        assert {tuple(p for _, p in seq) for seq in got} == \
            enumerate_lis_naive(values)


def check_walk_rewrites(levels):
    # every caller's (tag, value) pairs are distinct, so a climb to level
    # k takes that level's next window item and the top rewritten slot
    # always differs from the previous item's
    copies = []
    prev = None
    for rewritten, tags, values in walk_lis(levels):
        item = list(zip(tags, values))
        if prev is None:
            assert rewritten == len(levels)
        else:
            changed = [k for k, pair in enumerate(item) if pair != prev[k]]
            assert rewritten == 1 + max(changed)
        prev = item
        copies.append((tags[:], values[:]))
    assert copies == list(enumerate_lis(levels))


def test_walk_rewrite_count():
    rng = random.Random(31)
    for _ in range(300):
        values = [rng.randint(1, 6) for _ in range(rng.randint(1, 14))]
        check_walk_rewrites(positional_levels(enumerate(zip(values), 1)))
    walked = 0
    for alphabet in ("A", "AC", "ACGT"):
        for _ in range(60):
            f = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            levels = split_levels(f, rng.randint(0, len(f)))
            if levels:
                check_walk_rewrites(levels)
                walked += 1
    assert walked > 100
    with pytest.raises(ValueError):
        next(walk_lis([]))


def walked(walk, levels, limit=3000):
    # each item copied as it is yielded: the walk rewrites its slots in place
    return [(rewritten, tags[:], values[:])
            for rewritten, tags, values in islice(walk(levels), limit)]


def check_walk_matches_reference(levels):
    got = walked(walk_lis, levels)
    assert got and got == walked(reference_walk_lis, levels)


def test_walk_matches_reference_walk():
    rng = random.Random(43)
    for size in range(1, 6):
        alphabet = "ACGTN"[:size]
        for _ in range(40):
            f = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            levels = split_levels(f, rng.randint(0, len(f)))
            if levels:
                check_walk_matches_reference(levels)
    for n in (2, 7, 30, 101):
        check_walk_matches_reference(split_levels("A" * n, n // 2))
    for _ in range(200):
        values = [rng.randint(-4, 4) for _ in range(rng.randint(1, 30))]
        check_walk_matches_reference(
            positional_levels(enumerate(zip(values), 1)))
    for scale in (lambda k: k / 2, lambda k: Fraction(k, 3)):
        for _ in range(60):
            ts = ThresholdStructure()
            for _ in range(rng.randint(1, 40)):
                if ts.size and rng.random() < 0.2:
                    ts.extract_min()
                else:
                    ts.append(scale(rng.randint(-6, 6)))
            if ts.size:
                check_walk_matches_reference(ts._survivor_levels())


def test_walk_window_shapes():
    # hand-built levels of lis histories, one value per tag; each case
    # names the windows that the walk opens below level 2
    cases = [
        # one item, the level's only entry
        ([2, 3], [([2], [1]), ([3], [2])],
         [(2, [1, 2], [2, 3])]),
        # one item after a value above the chosen one, or equal to it
        ([5, 1, 3], [([5, 1], [1, 2]), ([3], [3])],
         [(2, [2, 3], [1, 3])]),
        ([3, 2, 3], [([3, 2], [1, 2]), ([3], [3])],
         [(2, [2, 3], [2, 3])]),
        # two items, the step back reaching a value above the chosen one,
        # or equal to it
        ([5, 2, 1, 3], [([5, 2, 1], [1, 2, 3]), ([3], [4])],
         [(2, [2, 4], [2, 3]), (1, [3, 4], [1, 3])]),
        ([4, 2, 1, 4], [([4, 2, 1], [1, 2, 3]), ([4], [4])],
         [(2, [2, 4], [2, 4]), (1, [3, 4], [1, 4])]),
        # two items ending before a later entry with a smaller value
        ([3, 1, 4, 0, 2], [([3, 1, 0], [1, 2, 4]), ([4, 2], [3, 5])],
         [(2, [1, 3], [3, 4]), (1, [2, 3], [1, 4]),
          (2, [2, 5], [1, 2]), (1, [4, 5], [0, 2])]),
        # three items from the bisect, whose start leaves out a value
        # equal to the chosen one just before it
        ([5, 4, 3, 2, 1, 4], [([5, 4, 3, 2, 1], [1, 2, 3, 4, 5]), ([4], [6])],
         [(2, [3, 6], [3, 4]), (1, [4, 6], [2, 4]), (1, [5, 6], [1, 4])]),
        # four items from the bisect over the whole level before them
        ([3, 2, 1, 0, 4], [([3, 2, 1, 0], [1, 2, 3, 4]), ([4], [5])],
         [(2, [1, 5], [3, 4]), (1, [2, 5], [2, 4]), (1, [3, 5], [1, 4]),
          (1, [4, 5], [0, 4])]),
    ]
    for history, levels, items in cases:
        assert positional_levels(enumerate(zip(history), 1)) == levels
        assert walked(walk_lis, levels) == items
        assert walked(reference_walk_lis, levels) == items


def test_trace_invariants_and_oracle_equivalence():
    rng = random.Random(23)
    for _ in range(150):
        ops = random_ops(rng, rng.randint(1, 80), 15)
        ts = ThresholdStructure()
        shadow = []
        for op in ops:
            if op == "x":
                if not ts.size:
                    continue
                ts.extract_min()
                drop_min(shadow)
                # rebuilding from the surviving stream gives the same keys
                rebuilt = build_structure(shadow)
                assert ts.key_lists() == rebuilt.key_lists()
                assert ts.key_lists() == threshold_stacks(shadow)
            else:
                ts.append(op)
                shadow.append(op)
            check_invariants(ts)
            assert ts.lis_length == patience_lis(shadow)
            assert ts.size == len(shadow)


def test_transfer_totals_stay_within_budget():
    rng = random.Random(31)
    for _ in range(30):
        ts = ThresholdStructure()
        lam_max = 0
        for _ in range(rng.randint(1, 150)):
            ts.append(rng.randint(1, 40))
            lam_max = max(lam_max, ts.lis_length)
        while ts.size:
            ts.extract_min()
        extracts = ts.stats.extract_min_calls
        for level, moved in ts.stats.transfers_out.items():
            assert level >= 2
            assert moved <= extracts * lam_max


def renumbered(seqs, rank):
    return [tuple((v, rank[p]) for v, p in seq) for seq in seqs]


class ThresholdMachine(RuleBasedStateMachine):
    """Interleaved appends, decreasing and unsorted extends, extract-mins
    and enumerations against a shadow list of live (value, position)
    pairs.  snapshot() rebuilds the positional levels from the append log,
    so after every step its keys must equal the dynamic levels, and it
    must equal a fresh append build of the survivors, positions compared
    by rank: witness recovery rebuilds a split that way instead of
    replaying the scan."""

    def __init__(self):
        super().__init__()
        self.ts = ThresholdStructure()
        # the keys-only levels and the stepping reference take every
        # update too, for the counters and transfer totals, and the
        # uncounted levels for their keys
        self.levels = ThresholdLevels()
        self.reference = ReferenceLevels()
        self.uncounted = UncountedLevels()
        self.shadow = []

    def _fresh(self):
        return build_structure([v for v, _ in self.shadow])

    def _rank(self):
        return {p: i for i, (_, p) in enumerate(self.shadow, 1)}

    @rule(value=st.integers(1, 12))
    def append(self, value):
        self.ts.append(value)
        self.levels.append(value)
        self.reference.append(value)
        self.uncounted.append(value)
        self.shadow.append((value, self.ts.position_counter))

    def _extend(self, values):
        start = self.ts.position_counter
        self.ts.extend(values)
        self.levels.extend(values)
        self.reference.extend(values)
        self.uncounted.extend(values)
        self.shadow.extend((v, start + i) for i, v in enumerate(values, 1))

    @rule(values=st.lists(st.integers(1, 12), min_size=1, max_size=6))
    def extend_decreasing(self, values):
        self._extend(sorted(set(values), reverse=True))

    @rule(values=st.lists(st.integers(1, 12), max_size=8))
    def extend(self, values):
        self._extend(values)

    @precondition(lambda self: self.shadow)
    @rule()
    def extract_min(self):
        self.ts.extract_min()
        self.levels.extract_min()
        self.reference.extract_min()
        self.uncounted.extract_min()
        low = min(v for v, _ in self.shadow)
        self.shadow = [(v, p) for v, p in self.shadow if v != low]

    @precondition(lambda self: self.shadow)
    @rule()
    def all_lis(self):
        got = list(islice(self.ts.all_lis(), 500))
        live = set(self.shadow)
        for seq in got:
            assert len(seq) == self.ts.lis_length
            assert set(seq) <= live
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(seq, seq[1:]))
        rank = self._rank()
        fresh = islice(self._fresh().all_lis(), 500)
        assert renumbered(got, rank) == list(fresh)
        if len(self.shadow) <= 20:
            assert {tuple(rank[p] for _, p in seq) for seq in got} == \
                enumerate_lis_naive([v for v, _ in self.shadow])

    @invariant()
    def matches_shadow(self):
        ts = self.ts
        check_invariants(ts)
        assert ts.size == len(self.shadow)
        assert ts.lis_length == patience_lis([v for v, _ in self.shadow])
        snap = ts.snapshot()
        assert [[v for v, _ in level] for level in snap] == ts.key_lists()
        rank = self._rank()
        state = [[(v, tuple(rank[p] for p in ps)) for v, ps in level]
                 for level in snap]
        assert state == self._fresh().snapshot()

    @invariant()
    def counters_match_reference(self):
        expected = lockstep_state(self.reference)
        for ts in (self.ts, self.levels):
            check_transfers(ts.stats.transfers_out, self.reference.transfers)
            assert lockstep_state(ts) == expected
        assert keys_state(self.uncounted) == keys_state(self.reference)


ThresholdMachine.TestCase.settings = settings(
    derandomize=True, max_examples=150, stateful_step_count=40, deadline=None)
test_threshold_machine = ThresholdMachine.TestCase
