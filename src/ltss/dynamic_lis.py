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

Values are positive integers; each inserted element gets a position from a
strictly increasing counter that is never reused, so enumeration can
report (value, position) pairs that identify elements uniquely.  Positions
live in an append log rather than in the levels: the value at position p
is the p-th value ever appended, and an extract-min kills every logged
occurrence of its value at once.  The positional levels depend only on the
sequence of surviving appends, so snapshot() and all_lis() rebuild them
from the log with one patience pass.
"""

import math
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import islice

INF = math.inf


class Counters:
    """Lifetime instrumentation: call counts, per-level transfer totals,
    and search/structure steps for the scaling checks, tallied once per
    call rather than once per elementary step."""

    __slots__ = ("append_calls", "extract_min_calls", "transfers_out",
                 "search_steps", "structure_steps")

    def __init__(self):
        self.append_calls = 0
        self.extract_min_calls = 0
        self.transfers_out = {}    # level k -> entries moved from k to k-1
        self.search_steps = 0      # bisect probes, bounded by bit lengths
        self.structure_steps = 0   # inserts, removals, splits, concatenates

    def tree_ops(self):
        """Total elementary operations performed by the structure."""
        return self.search_steps + self.structure_steps


class ThresholdStructure:

    __slots__ = ("_levels", "_mins", "size", "_log", "_killed", "_count",
                 "stats")

    def __init__(self):
        self._levels = []    # negated keys per level, ascending
        self._mins = []      # _mins[k-1] == -self._levels[k-1][-1], always
        self.size = 0        # live element count, duplicates included
        self._log = []       # value of every append; position p is _log[p-1]
        self._killed = {}    # value -> position counter at its last extract
        self._count = Counter()   # live occurrences per value
        self.stats = Counters()

    @property
    def lis_length(self):
        return len(self._mins)

    @property
    def position_counter(self):
        return len(self._log)

    def min_value(self):
        """Smallest live value, +inf when empty."""
        return self._mins[0] if self._mins else INF

    def key_lists(self):
        return [[-x for x in level] for level in self._levels]

    def snapshot(self):
        """(value, positions) pairs per level, for state comparisons."""
        log = self._log
        out = []
        for level in self._positional_levels():
            entries = []
            for p in level:
                value = log[p - 1]
                if entries and entries[-1][0] == value:
                    entries[-1][1].append(p)
                else:
                    entries.append((value, [p]))
            out.append([(v, tuple(ps)) for v, ps in entries])
        return out

    def append(self, value):
        """Insert value after every current element."""
        self.extend((value,))

    def extend(self, values):
        """Append each value of the sequence in order.  A value not above
        its predecessor lands at or below the predecessor's level, and one
        above it lands higher, so each bisect of the tail chain covers only
        that side."""
        mins = self._mins
        levels = self._levels
        probes = 0
        top = i = len(mins)
        prev = INF
        for v in values:
            if v <= prev:
                probes += i.bit_length()
                i = bisect_left(mins, v, 0, i)
            else:
                lo = i + 1
                probes += (top - lo).bit_length()
                i = bisect_left(mins, v, lo, top)
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
        self.size += n
        self._log.extend(values)
        self._count.update(values)
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
        if self.size == 0:
            raise ValueError("extract_min on empty structure")
        levels = self._levels
        mins = self._mins
        m = mins[0]
        self._killed[m] = len(self._log)
        self.size -= self._count.pop(m)
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
        stats.search_steps += probes
        stats.structure_steps += steps

    def all_lis(self, limit=None):
        """Yield every longest strictly increasing subsequence as a tuple
        of (value, position) pairs, in the deterministic order of the
        top-down window walk: the maximal value chain comes first."""
        if self.size == 0:
            raise ValueError("all_lis on empty structure")
        return islice(self._enumerate(self._positional_levels()), limit)

    def _positional_levels(self):
        # One patience pass over the surviving appends: level k as the
        # positions of its elements, ascending, which lists its keys in
        # decreasing order with equal keys adjacent.
        killed = self._killed
        tails = []
        levels = []
        for p, v in enumerate(self._log, 1):
            if p <= killed.get(v, 0):
                continue
            k = bisect_left(tails, v)
            if k == len(tails):
                tails.append(v)
                levels.append(array("q", (p,)))
            else:
                tails[k] = v
                levels[k].append(p)
        return levels

    def _window(self, level, value_bound, pos_bound):
        # Valid elements of a level below a chosen (value, position): keys
        # at most value_bound, positions below pos_bound.  They form a
        # contiguous run in position order starting at the first key at
        # most value_bound.
        log = self._log
        start = bisect_left(level, -value_bound, key=lambda p: -log[p - 1])
        for pos in islice(level, start, None):
            if pos >= pos_bound:
                return
            yield log[pos - 1], pos

    def _enumerate(self, levels):
        lam = len(levels)
        frames = [self._window(levels[-1], INF, INF)]
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
                value, pos = item
                frames.append(self._window(levels[lam - len(frames) - 1],
                                           value - 1, pos))
