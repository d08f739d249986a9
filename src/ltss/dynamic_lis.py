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

ThresholdLevels keeps the levels alone, so its space is O(live keys): it
is what the scan's comparator drives.  Values are positive integers.
ThresholdStructure adds element identity for an exact size and all_lis()
after extracts: each inserted element gets a position from a strictly
increasing counter that is never reused.  Positions live in an append log
rather than in the levels: the value at position p is the p-th value ever
appended, and an extract-min kills every logged occurrence of its value
at once.  Only enumeration reads positions, and positional levels depend
only on the sequence of surviving appends, so positional_levels() builds
them from any append-only history with one patience pass (Hunt and
Szymanski, 1977) and enumerate_lis() walks them: all_lis() feeds the
log's survivors, a comparator its live match lists.  The walk's windows
are slices of a level's tags and values, and its items are (tag, value)
pairs, so a comparator whose tags are prefix positions reads its
(p, s) witnesses off the walk as they are; all_lis() turns each item
round to the (value, position) form it reports.
"""

import math
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import islice
from operator import neg

INF = math.inf


class Counters:
    """Lifetime instrumentation: call counts, per-level transfer totals,
    and search/structure steps for the scaling checks, tallied once per
    call rather than once per elementary step."""

    __slots__ = ("append_calls", "extract_min_calls", "cascade_steps",
                 "transfers_out", "search_steps", "structure_steps")

    def __init__(self):
        self.append_calls = 0
        self.extract_min_calls = 0
        self.cascade_steps = 0     # levels cut by extract cascades
        self.transfers_out = {}    # level k -> entries moved from k to k-1
        self.search_steps = 0      # bisect probes, bounded by bit lengths
        self.structure_steps = 0   # inserts, removals, splits, concatenates

    def tree_ops(self):
        """Total elementary operations performed by the structure."""
        return self.search_steps + self.structure_steps


class ThresholdLevels:
    """Keys-only threshold levels: everything the scan reads and nothing
    that only enumeration needs."""

    __slots__ = ("_levels", "_mins", "stats")

    def __init__(self):
        self._levels = []    # negated keys per level, ascending
        self._mins = []      # _mins[k-1] == -self._levels[k-1][-1], always
        self.stats = Counters()

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
        """Append each value of the sequence in order.  A value not above
        its predecessor lands at or below the predecessor's level, so
        within a decreasing run each bisect of the tail chain stops at
        the previous value's level."""
        mins = self._mins
        levels = self._levels
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
            elif mins[i] != v:
                # an equal tail collapses the value into that tail's entry
                mins[i] = v
                levels[i].append(-v)
            prev = v
        n = len(values)
        stats = self.stats
        stats.append_calls += n
        stats.search_steps += probes
        stats.structure_steps += n

    def extract_min(self):
        """Remove every occurrence of the smallest live value, then repair
        the tail chain: whenever a level's new minimum is not below the
        tail of the level above, the offending suffix of the upper level
        (its keys at most the lower minimum) moves down one level, merging
        equal boundary keys."""
        mins = self._mins
        if not mins:
            raise ValueError("extract_min on empty structure")
        levels = self._levels
        below = levels[0]
        below.pop()
        stats = self.stats
        transfers = stats.transfers_out
        probes = 0
        steps = 1
        lam = len(mins)
        k = 1
        while k < lam:
            below_min = -below[-1] if below else INF
            if below_min < mins[k]:
                break
            upper = levels[k]
            width = len(upper)
            cut = bisect_left(upper, -below_min)
            probes += width.bit_length()
            moved = width - cut
            if below and below[-1] == upper[cut]:
                below.pop()
                steps += 1
            below.extend(upper[cut:])
            del upper[cut:]
            steps += 2
            transfers[k + 1] = transfers.get(k + 1, 0) + moved
            mins[k - 1] = mins[k]
            below = upper
            k += 1
        if below:
            mins[k - 1] = -below[-1]
        else:
            levels.pop()
            mins.pop()
        stats.extract_min_calls += 1
        stats.cascade_steps += k - 1
        stats.search_steps += probes
        stats.structure_steps += steps


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

    def extend(self, values):
        super().extend(values)
        self.size += len(values)
        self._log.extend(values)
        self._count.update(values)

    def extract_min(self):
        m = self.min_value()
        super().extract_min()
        self._killed[m] = len(self._log)
        self.size -= self._count.pop(m)

    def all_lis(self, limit=None):
        """Yield every longest strictly increasing subsequence as a tuple
        of (value, position) pairs, in the deterministic order of the
        top-down window walk: the maximal value chain comes first."""
        if self.size == 0:
            raise ValueError("all_lis on empty structure")
        return (tuple((v, p) for p, v in seq) for seq in
                islice(enumerate_lis(self._survivor_levels()), limit))

    def _survivor_levels(self):
        killed = self._killed
        return positional_levels((v, p) for p, v in enumerate(self._log, 1)
                                 if p > killed.get(v, 0))


def positional_levels(history):
    """Levels of an append-only history of (value, tag) pairs, tags
    non-decreasing and values decreasing within a tag: level k is the
    (values, tags) of its elements in history order, values falling."""
    tails, values, tags = [], [], []
    for v, t in history:
        k = bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
            values.append([v])
            tags.append(array("q", (t,)))
        else:
            tails[k] = v
            values[k].append(v)
            tags[k].append(t)
    return list(zip(values, tags))


def _window(level, value_bound, tag_bound):
    # (tag, value) items of a level below a chosen (value, tag): the slice
    # from the first value at most value_bound up to the first tag not
    # below tag_bound.  One sharing the chosen tag lies above the value bound.
    values, tags = level
    start = bisect_left(values, -value_bound, key=neg)
    stop = bisect_left(tags, tag_bound, start)
    return zip(tags[start:stop], values[start:stop])


def enumerate_lis(levels):
    """Yield every longest strictly increasing subsequence of the levels'
    history as a tuple of (tag, value) items, the maximal value chain
    first."""
    if not levels:
        raise ValueError("no increasing subsequence in an empty history")
    lam = len(levels)
    frames = [_window(levels[-1], INF, INF)]
    chosen = []
    while frames:
        item = next(frames[-1], None)
        if item is None:
            frames.pop()
            if len(chosen) > len(frames):
                chosen.pop()
            continue
        if len(chosen) == len(frames):
            chosen[-1] = item
        else:
            chosen.append(item)
        if len(frames) == lam:
            yield tuple(reversed(chosen))
        else:
            tag, value = item
            frames.append(_window(levels[lam - len(frames) - 1],
                                  value - 1, tag))
