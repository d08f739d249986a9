"""Dynamic longest-increasing-subsequence structure over threshold lists.

Level k holds the values whose best strictly increasing run ending there
has length exactly k.  Each level is an OrderedList (decreasing keys), and
the level minima form a strictly increasing tail chain that drives all
searches.  Supported updates:

  append(v)        value arrives after every current element
  append_batch(v)  same post-state, but a persistent level cursor makes a
                   decreasing burst of values cost one walk down the chain
  extract_min()    every occurrence of the smallest value disappears, and
                   level suffixes shift down to repair the tail chain
  all_lis()        lazy enumeration of every longest increasing
                   subsequence, largest value chain first

Values are positive integers; each inserted element gets a position from a
strictly increasing counter that is never reused, so enumeration can
report (value, position) pairs that identify elements uniquely.
"""

from itertools import islice

from .ordered_list import INF, OpCounter, OrderedList


class Counters:
    """Lifetime instrumentation: call counts, per-level transfer totals,
    and elementary search/structure steps for the scaling checks."""

    __slots__ = ("append_calls", "extract_min_calls", "transfers_out",
                 "search_steps", "substrate")

    def __init__(self):
        self.append_calls = 0
        self.extract_min_calls = 0
        self.transfers_out = {}    # level k -> entries moved from k to k-1
        self.search_steps = 0
        self.substrate = OpCounter()

    def tree_ops(self):
        """Total elementary operations performed by the structure."""
        return self.search_steps + self.substrate.steps


class ThresholdStructure:

    __slots__ = ("_lists", "_mins", "_lam", "size", "_pos", "_cursor", "stats")

    def __init__(self):
        self._lists = []
        self._mins = []      # _mins[k-1] == self._lists[k-1].min(), always
        self._lam = 0
        self.size = 0        # live element count, duplicates included
        self._pos = 0        # position source, never reused
        self._cursor = 1     # batched-append level, persists between calls
        self.stats = Counters()

    @property
    def lis_length(self):
        return self._lam

    @property
    def position_counter(self):
        return self._pos

    def min_value(self):
        """Smallest live value, +inf when empty."""
        return self._mins[0] if self._lam else INF

    def key_lists(self):
        return [lst.keys() for lst in self._lists]

    def snapshot(self):
        """(value, positions) pairs per level, for state comparisons."""
        return [[(e.value, tuple(e.positions)) for e in lst.entries]
                for lst in self._lists]

    def append(self, value):
        """Insert value after every current element; binary search over the
        tail chain finds its level."""
        self.size += 1
        self._pos += 1
        stats = self.stats
        stats.append_calls += 1
        mins = self._mins
        probes = 0
        j, k = 0, self._lam + 1
        while j + 1 < k:
            probes += 1
            m = (j + k) >> 1
            if value > mins[m - 1]:
                j = m
            else:
                k = m
        stats.search_steps += probes
        self._insert_at_level(k, value)

    def append_batch(self, value):
        """Same post-state as append(value).  The level search restarts
        only when the running cursor sits too low, so consecutive
        decreasing values walk the tail chain downward at most once."""
        self.size += 1
        self._pos += 1
        stats = self.stats
        stats.append_calls += 1
        mins = self._mins
        lam = self._lam
        k = self._cursor
        if k > lam + 1:
            k = lam + 1
        if k <= lam and mins[k - 1] < value:
            k = lam + 1
        # >= rather than >: a value equal to a lower tail must land on that
        # tail's level and collapse into it, exactly where append() puts it
        walk = 0
        while k > 1 and mins[k - 2] >= value:
            k -= 1
            walk += 1
        stats.search_steps += walk
        self._cursor = k
        self._insert_at_level(k, value)

    def _insert_at_level(self, k, value):
        if k > self._lam:
            self._lists.append(OrderedList(self.stats.substrate))
            self._mins.append(INF)
            self._lam = k
        self._lists[k - 1].insert(value, self._pos)
        self._mins[k - 1] = value

    def extract_min(self):
        """Remove every occurrence of the smallest live value, then repair
        the tail chain: whenever a level's new minimum is not below the
        tail of the level above, the offending suffix of the upper level
        (its keys at most the lower minimum) moves down one level, merging
        equal boundary keys."""
        if self.size == 0:
            raise ValueError("extract_min on empty structure")
        stats = self.stats
        stats.extract_min_calls += 1
        lists = self._lists
        mins = self._mins
        first = lists[0]
        self.size -= len(first.tail_entry().positions)
        first.remove_min()
        k = 2
        if self.size:
            lam = self._lam
            transfers = stats.transfers_out
            while k <= lam:
                below_min = lists[k - 2].min()
                if below_min < mins[k - 1]:
                    break
                upper = lists[k - 1]
                detached = upper.split_at(upper.predecessor(below_min))
                moved = detached.size
                lists[k - 2].concatenate(detached)
                transfers[k] = transfers.get(k, 0) + moved
                mins[k - 2] = mins[k - 1]
                k += 1
        mins[k - 2] = lists[k - 2].min()
        if self._lam and mins[self._lam - 1] == INF:
            self._lam -= 1
            lists.pop()
            mins.pop()

    def all_lis(self, limit=None):
        """Yield every longest strictly increasing subsequence as a tuple
        of (value, position) pairs, in the deterministic order of the
        top-down window walk: the maximal value chain comes first."""
        if self.size == 0:
            raise ValueError("all_lis on empty structure")
        return islice(self._enumerate(), limit)

    def _window(self, level, value_bound, pos_bound):
        # Valid elements of a level below a chosen (value, position): keys
        # at most value_bound, positions below pos_bound.  They form a
        # contiguous run in position order starting at the predecessor.
        lst = self._lists[level - 1]
        handle = lst.predecessor(value_bound)
        if handle is None:
            return
        for value, pos in lst.iter_pairs(handle):
            if pos >= pos_bound:
                return
            yield value, pos

    def _enumerate(self):
        lam = self._lam
        frames = [self._window(lam, INF, INF)]
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
                frames.append(self._window(lam - len(frames), value - 1, pos))
