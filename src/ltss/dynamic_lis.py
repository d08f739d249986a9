"""Dynamic longest-increasing-subsequence structure over threshold lists.

Level k holds the values whose best strictly increasing run ending there
has length exactly k.  A level stores keys only, negated so that a plain
ascending list holds them with the minimum value at its tail, and the
level minima form a strictly increasing tail chain that drives all
searches.  Supported updates:

  append(v)        value arrives after every current element
  extend(values)   the values arrive one after another, same post-state
                   as repeated append; while the run decreases, each level
                   search is confined below the previous value's level
  extract_min()    every occurrence of the smallest value disappears, and
                   level suffixes shift down to repair the tail chain
  all_lis()        lazy enumeration of every longest increasing
                   subsequence, largest value chain first

UncountedLevels keeps the levels alone, so its space is O(live keys): it
is what the scan's comparator drives for a request that prints no
counter.  ThresholdLevels is the same levels with counted updates, for
every other.  Values are real numbers, not NaN: ThresholdStructure
rejects NaN, the levels check nothing.
ThresholdStructure adds element identity for an exact size and all_lis()
after extracts: each inserted element gets a position from a strictly
increasing counter that is never reused.  Positions live in an append log
rather than in the levels: the value at position p is the p-th value ever
appended, and an extract-min kills every logged occurrence of its value
at once.  Only enumeration reads positions, and positional levels depend
only on the sequence of surviving appends, so positional_levels() builds
them from (tag, values) runs with one patience pass (Hunt and Szymanski,
1977) and walk_lis() walks them: all_lis() feeds each survivor of the
log as a run of one, a MatchIndex each prefix letter's live match list
as it is, the same run the scan's comparator feeds extend().  The walk
opens each window with one bisect on tags and one value comparison,
takes a one-item window straight into its slots and zips only a wider
one from slices.  It rewrites one (tags, values) slot pair per level in
place, so match runs tagged by prefix positions give a witness's p and
s positions as they are.  Each
walk item says how many leading levels it rewrote: consecutive items
share every level above that, so a consumer that formats items redoes
only the rewritten ones.  enumerate_lis() yields a copy of each item.

ThresholdLevels and ThresholdStructure count their work in a Counters,
always on; UncountedLevels counts nothing.  The counted extract cascade
tallies no entry transfers: an entry only moves down, one level per
cut or whole-level shift, until it is extracted at level 1 or merged
away at a boundary, so

  moved out of level k = entries landed at levels >= k
                         - entries merged away at levels >= k
                         - entries alive at levels >= k

extend() tallies each entry it adds on its landing level, a merge takes
one off its level's tally, and Counters.transfers_out sums the tallies
and the live level lengths from the top level down, O(lambda) per read.
"""

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, takewhile
from operator import neg, sub

INF = math.inf


class Counters:
    """Lifetime instrumentation: call counts, search and structure steps
    for the scaling checks, and the per-level landing tally that the
    transfer totals are derived from when read.  The scalar counts are
    added once per call; per value, extend counts its bisect probes and
    landing level, and an extract's level loop the bit length of each cut
    level's width and each merge."""

    __slots__ = ("append_calls", "extract_min_calls", "cascade_steps",
                 "search_steps", "structure_steps", "landed", "_levels")

    def __init__(self, levels):
        self.append_calls = 0
        self.extract_min_calls = 0
        self.cascade_steps = 0     # levels cut by extract cascades
        self.search_steps = 0      # bisect probes, bounded by bit lengths
        self.structure_steps = 0   # inserts, removals, splits, concatenates
        self.landed = []     # [k-1]: entries added at level k, less merges there
        self._levels = levels      # the live levels, read for their lengths

    @property
    def transfers_out(self):
        """Level k -> entries moved from k to k-1, for every level that has
        moved any, derived by conservation (see the module docstring): the
        entries that landed at levels >= k, less merges there, and are no
        longer alive there.  One suffix sum, O(lambda) per read.  A cascade
        cuts levels 2, 3, ... in turn and each cut moves at least one
        entry, so the totals have no gaps: the first zero ends them."""
        landed = self.landed
        alive = [len(level) for level in self._levels]
        alive += [0] * (len(landed) - len(alive))
        # gone[i]: entries that left level len(landed) - i, level 1 last
        gone = list(accumulate(map(sub, reversed(landed), reversed(alive))))
        return dict(enumerate(takewhile(bool, gone[-2::-1]), 2))

    def tree_ops(self):
        """Total elementary operations performed by the structure."""
        return self.search_steps + self.structure_steps


class UncountedLevels:
    """Keys-only threshold levels: everything the scan reads and nothing
    that only enumeration needs.  Values go in unchecked: a NaN would
    corrupt the levels, but the comparator feeds only int positions.
    Their updates count nothing: they serve the scan of a request that
    prints no counter.  stats is one Counters, shared by every instance,
    that always reads zero, because a traced benchmark run reads the
    counters of every comparator: it files these zeros under the CLI's
    span, which no benchmark metric reads."""

    __slots__ = ("_levels", "_mins")
    stats = Counters(())

    def __init__(self):
        self._levels = []    # negated keys per level, ascending
        self._mins = []      # _mins[k-1] == -self._levels[k-1][-1], always

    @property
    def lis_length(self):
        return len(self._mins)

    def min_value(self):
        """Smallest live value, +inf when empty."""
        return self._mins[0] if self._mins else INF

    def key_lists(self):
        return [[-x for x in level] for level in self._levels]

    def append(self, value):
        """Insert value after every current element."""
        self.extend((value,))

    def extend(self, values):
        """Append each value of the sequence in order, as
        ThresholdLevels.extend does, counting nothing."""
        mins = self._mins
        levels = self._levels
        top = i = len(mins)
        prev = INF
        for v in values:
            if v > prev:
                i = top
            i = bisect_left(mins, v, 0, i)
            if i == top:
                top += 1
                mins.append(v)
                levels.append([-v])
            elif mins[i] != v:
                mins[i] = v
                levels[i].append(-v)
            prev = v

    def extract_min(self):
        """Remove every occurrence of the smallest live value and repair
        the tail chain, as ThresholdLevels.extract_min does, counting
        nothing."""
        mins = self._mins
        if not mins:
            raise ValueError("extract_min on empty structure")
        levels = self._levels
        below = levels[0]
        below.pop()
        lam = len(mins)
        k = 1
        while k < lam and below:
            tail = below[-1]
            upper = levels[k]
            if tail > upper[-1]:
                break
            cut = bisect_left(upper, tail)
            if tail == upper[cut]:
                below.pop()
            below += upper[cut:]
            del upper[cut:]
            below = upper
            k += 1
        del mins[0]
        if below:
            mins.insert(k - 1, -below[-1])
        else:
            del levels[k - 1]


class ThresholdLevels(UncountedLevels):
    """UncountedLevels whose two updates count their work in their own
    Counters, for every caller that reads a counter."""

    __slots__ = ("stats",)

    def __init__(self):
        super().__init__()
        self.stats = Counters(self._levels)

    def extend(self, values):
        """Append each value of the sequence in order.  A value not above
        its predecessor lands at or below the predecessor's level, so
        within a decreasing run each bisect of the tail chain stops at
        the previous value's level."""
        n = len(values)     # before any state changes: values must be sized
        mins = self._mins
        levels = self._levels
        stats = self.stats
        landed = stats.landed
        probes = 0
        top = i = len(mins)
        prev = INF
        for v in values:
            if v > prev:
                i = top
            probes += i.bit_length()
            i = bisect_left(mins, v, 0, i)
            if i == top:
                top += 1
                mins.append(v)
                levels.append([-v])
                if i == len(landed):
                    landed.append(0)
                landed[i] += 1
            elif mins[i] != v:
                # an equal tail collapses the value into that tail's entry
                mins[i] = v
                levels[i].append(-v)
                landed[i] += 1
            prev = v
        stats.append_calls += n
        stats.search_steps += probes
        stats.structure_steps += n

    def extract_min(self):
        """Remove every occurrence of the smallest live value, then repair
        the tail chain: whenever a level's new minimum is not below the
        tail of the level above, the offending suffix of the upper level
        (its keys at most the lower minimum) moves down one level, merging
        equal boundary keys.  Besides that structural work the level loop
        counts only each cut's probes and each merge, the merge on its
        level's landing tally, so the transfer totals need no tally here.
        A level the cascade empties is deleted, so every level above it
        moves down whole, each still counted as a cut level that moves
        its full width.  The tail chain shifts once, after the loop."""
        mins = self._mins
        if not mins:
            raise ValueError("extract_min on empty structure")
        levels = self._levels
        stats = self.stats
        landed = stats.landed
        below = levels[0]
        below.pop()
        lam = len(mins)
        probes = merges = 0
        k = 1
        while k < lam and below:
            tail = below[-1]
            upper = levels[k]
            if tail > upper[-1]:
                break
            cut = bisect_left(upper, tail)
            probes += len(upper).bit_length()
            if tail == upper[cut]:
                below.pop()
                landed[k - 1] -= 1
                merges += 1
            below += upper[cut:]
            del upper[cut:]
            below = upper
            k += 1
        del mins[0]
        if below:
            mins.insert(k - 1, -below[-1])
            steps = k - 1
        else:
            del levels[k - 1]
            probes += sum(len(level).bit_length() for level in levels[k - 1:])
            steps = len(levels)     # the cut levels and those shifted whole
        stats.extract_min_calls += 1
        stats.cascade_steps += steps
        stats.search_steps += probes
        # the extract and each merge remove an entry; a cut level is split
        # off and concatenated below
        stats.structure_steps += 1 + merges + 2 * steps


class ThresholdStructure(ThresholdLevels):
    """Threshold levels plus the append log that numbers elements, for
    an exact size and enumeration after extracts."""

    __slots__ = ("size", "_log", "_killed", "_count")

    def __init__(self):
        super().__init__()
        self.size = 0        # live element count, duplicates included
        self._log = []       # value of every append; position p is _log[p-1]
        self._killed = {}    # value -> position counter at its last extract
        self._count = Counter()   # live occurrences per value

    @property
    def position_counter(self):
        return len(self._log)

    def snapshot(self):
        """(value, positions) pairs per level, for state comparisons."""
        out = []
        for values, positions in self._survivor_levels():
            entries = []
            for v, p in zip(values, positions):
                if entries and entries[-1][0] == v:
                    entries[-1][1].append(p)
                else:
                    entries.append((v, [p]))
            out.append([(v, tuple(ps)) for v, ps in entries])
        return out

    def append(self, value):
        """extend((value,)) done directly, every counter included: one
        bisect of the tail chain, one landing tally, one log entry."""
        if value != value:
            raise ValueError("NaN is not ordered against other values")
        mins = self._mins
        stats = self.stats
        landed = stats.landed
        top = len(mins)
        i = bisect_left(mins, value)
        stats.search_steps += top.bit_length()
        if i == top:
            mins.append(value)
            self._levels.append([-value])
            if i == len(landed):
                landed.append(0)
            landed[i] += 1
        elif mins[i] != value:
            mins[i] = value
            self._levels[i].append(-value)
            landed[i] += 1
        stats.append_calls += 1
        stats.structure_steps += 1
        self.size += 1
        self._log.append(value)
        self._count[value] += 1

    def extend(self, values):
        if any(v != v for v in values):
            raise ValueError("NaN is not ordered against other values")
        super().extend(values)
        self.size += len(values)
        self._log.extend(values)
        self._count.update(values)

    def extract_min(self):
        m = self.min_value()
        super().extract_min()
        self._killed[m] = len(self._log)
        self.size -= self._count.pop(m)

    def all_lis(self):
        """Yield, lazily, every longest strictly increasing subsequence as
        a tuple of (value, position) pairs in top-down window walk order,
        maximal value chain first.  An empty structure raises at the call."""
        if self.size == 0:
            raise ValueError("all_lis on empty structure")
        return (tuple(zip(values, positions)) for positions, values in
                enumerate_lis(self._survivor_levels()))

    def _survivor_levels(self):
        killed = self._killed
        return positional_levels((p, (v,)) for p, v in enumerate(self._log, 1)
                                 if p > killed.get(v, 0))


def positional_levels(runs):
    """Levels of an append-only history of (tag, values) runs, tags
    increasing and values falling within a run: level k is the
    (values, tags) of its elements in history order, values falling."""
    tails, values, tags = [], [], []
    for t, run in runs:
        for v in run:
            k = bisect_left(tails, v)
            if k == len(tails):
                tails.append(v)
                values.append([v])
                tags.append([t])
            else:
                tails[k] = v
                values[k].append(v)
                tags[k].append(t)
    return list(zip(values, tags))


_TAKEN = iter(())   # the frame of a one-item window, taken in place


def walk_lis(levels):
    """Walk every longest strictly increasing subsequence of the levels'
    history, level 1 first, the maximal value chain first, from one open
    window and one (tag, value) slot per level.  The top window is the
    whole top level.  Below a chosen (value, tag), level k's window runs
    from the first value strictly below value up to the first tag not
    below tag.  Its last item is the entry that was level k's tail when
    the chosen one arrived, so one bisect on tags and one value comparison
    tell a one-item window from a wider one.  A one-item window goes
    straight into its slots, and its frame is an exhausted iterator that
    the climb passes over.  Only a wider window is zipped from slices, its
    start one more step back or a bisect on values.  Each item is
    (rewritten, tags, values): the walk's own slot lists, rewritten in
    place, and how many leading slots it reassigned since the previous
    item (all of them on the first).  Slots from rewritten up still hold
    the previous item's entries; a consumer keeps what it needs of them
    before asking for the next item."""
    if not levels:
        raise ValueError("no increasing subsequence in an empty history")
    lam = len(levels)
    tags = [None] * lam
    values = [None] * lam
    frames = [None] * lam
    k = top = lam - 1
    frames[k] = zip(levels[k][1], levels[k][0])
    while k < lam:
        for tags[k], values[k] in frames[k]:
            if k:
                tag = tags[k]
                value = values[k]
                while k:
                    k -= 1
                    level_values, level_tags = levels[k]
                    last = bisect_left(level_tags, tag) - 1
                    if last and level_values[last - 1] < value:
                        start = last - 1
                        if start and level_values[start - 1] < value:
                            start = bisect_right(level_values, -value, 0,
                                                 start - 1, key=neg)
                        frames[k] = zip(level_tags[start:last + 1],
                                        level_values[start:last + 1])
                        break
                    tag = tags[k] = level_tags[last]
                    value = values[k] = level_values[last]
                    frames[k] = _TAKEN
                else:
                    yield top + 1, tags, values
                    top = 0
                break
            yield top + 1, tags, values
            top = 0
        else:
            # the climb ends on the level that takes its next window item
            k += 1
            top = k


def enumerate_lis(levels):
    """Yield every longest strictly increasing subsequence of the levels'
    history as two new lists, (tags, values), in walk_lis order."""
    for _, tags, values in walk_lis(levels):
        yield tags[:], values[:]
