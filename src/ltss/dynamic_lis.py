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
them from (tag, values) runs with one patience pass (Hunt and Szymanski,
1977) and enumerate_lis() walks them: all_lis() feeds each survivor of
the log as a run of one, a MatchIndex each prefix letter's live match
list as it is, the same run the scan's comparator feeds extend().  The
walk's windows are slices of a level's tags and values, and its items
are (tag, value) pairs, so match runs tagged by prefix positions give
their (p, s) witnesses as they are; all_lis() turns each item round.
"""

import math
from bisect import bisect_left
from collections import Counter
from itertools import islice
from operator import add, neg, sub

INF = math.inf


class Counters:
    """Lifetime instrumentation: call counts, per-level transfer totals,
    and search/structure steps for the scaling checks, tallied once per
    call rather than once per elementary step; an extract tallies its
    whole cascade from the (width, cut) of every level it cut."""

    __slots__ = ("append_calls", "extract_min_calls", "cascade_steps",
                 "level_transfers", "search_steps", "structure_steps")

    def __init__(self):
        self.append_calls = 0
        self.extract_min_calls = 0
        self.cascade_steps = 0     # levels cut by extract cascades
        self.level_transfers = []  # [k-2]: entries moved from level k to k-1
        self.search_steps = 0      # bisect probes, bounded by bit lengths
        self.structure_steps = 0   # inserts, removals, splits, concatenates

    @property
    def transfers_out(self):
        """Level k -> entries moved from k to k-1, for every level that has
        moved any.  A cascade cuts levels 2, 3, ... in turn and each cut
        moves at least one entry, so the totals have no gaps."""
        return dict(enumerate(self.level_transfers, 2))

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
        n = len(values)     # before any state changes: values must be sized
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
        stats = self.stats
        stats.append_calls += n
        stats.search_steps += probes
        stats.structure_steps += n

    def extract_min(self):
        """Remove every occurrence of the smallest live value, then repair
        the tail chain: whenever a level's new minimum is not below the
        tail of the level above, the offending suffix of the upper level
        (its keys at most the lower minimum) moves down one level, merging
        equal boundary keys.  The level loop only moves slices and records
        each cut level's (width, cut).  A level the cascade empties is
        deleted, so every level above it moves down whole, each still
        counted as a cut level that moves its full width.  The tail chain
        shifts and the counters are tallied once, after the loop."""
        mins = self._mins
        if not mins:
            raise ValueError("extract_min on empty structure")
        levels = self._levels
        below = levels[0]
        held = len(below)    # entries on level 1 before the extract
        below.pop()
        lam = len(mins)
        cuts = []       # width, cut of each level the loop cuts, flattened
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
            cuts += len(upper), cut
            del upper[cut:]
            below = upper
            k += 1
        widths = cuts[::2]
        moved = list(map(sub, widths, cuts[1::2]))
        # a merge is the one step that drops an entry, so the levels the
        # loop touched lost the extracted entry plus one per merge
        removals = held + sum(widths) - sum(map(len, levels[:k]))
        del mins[0]
        if below:
            mins.insert(k - 1, -below[-1])
        else:
            del levels[k - 1]
            shifted = list(map(len, levels[k - 1:]))
            widths += shifted
            moved += shifted
        stats = self.stats
        stats.extract_min_calls += 1
        stats.cascade_steps += len(widths)
        stats.search_steps += sum(map(int.bit_length, widths))
        stats.structure_steps += removals + 2 * len(widths)
        totals = stats.level_transfers
        totals += [0] * (len(widths) - len(totals))
        totals[:len(widths)] = map(add, totals, moved)


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
    history as a new list of (tag, value) items, the maximal value chain
    first."""
    if not levels:
        raise ValueError("no increasing subsequence in an empty history")
    lam = len(levels)
    frames = [_window(levels[-1], INF, INF)]
    chosen = [None]      # the item taken from each open window
    while frames:
        item = next(frames[-1], None)
        if item is None:
            frames.pop()
            chosen.pop()
            continue
        chosen[-1] = item
        if len(frames) == lam:
            yield chosen[::-1]
        else:
            tag, value = item
            frames.append(_window(levels[lam - len(frames) - 1],
                                  value - 1, tag))
            chosen.append(None)
