"""Incremental-prefix / decremental-suffix string comparison.

The common-subsequence length between a prefix P and a suffix S reduces to
a longest increasing subsequence the Hunt-Szymanski way: appending a
letter to P feeds that letter's match positions in S, taken in decreasing
order, into the threshold structure; the structure's LIS length is then
exactly the common-subsequence length.  Dropping the front letter of S is
a single extract-min (or nothing at all, when the dropped position was
never matched).  Positions keep their original 1-based S coordinates
throughout; nothing is ever renumbered.
"""

from bisect import bisect_right

from .dynamic_lis import ThresholdStructure


class MatchIndex:
    """Per-letter match positions over S, each list strictly decreasing.

    Positions dropped off the front of S always form a tail of each list,
    so one live-length cursor per letter skips them in amortized O(1).
    """

    __slots__ = ("by_letter", "_live")

    def __init__(self, s):
        by_letter = {}
        for j in range(len(s), 0, -1):
            by_letter.setdefault(s[j - 1], []).append(j)
        self.by_letter = by_letter
        self._live = {letter: len(ps) for letter, ps in by_letter.items()}

    def live_positions(self, letter, front):
        """Match positions still inside the suffix (> front), largest
        first.  Trims the consumed tail lazily; front must not shrink."""
        ps = self.by_letter.get(letter)
        if ps is None:
            return ()
        n = self._live[letter]
        while n and ps[n - 1] <= front:
            n -= 1
        self._live[letter] = n
        return ps[:n]


class Comparator:
    """Common-subsequence tracker between a growing prefix P and the
    front-shrinking suffix of the original string S."""

    __slots__ = ("s_text", "index", "ts", "front", "p_len", "_batches")

    def __init__(self, s):
        self.s_text = s
        self.index = MatchIndex(s)
        self.ts = ThresholdStructure()
        self.front = 0       # letters dropped off the front of S
        self.p_len = 0
        self._batches = []   # (p_index, first_pos, last_pos) per non-empty append

    @property
    def lcss_length(self):
        return self.ts.lis_length

    def append_to_p(self, letter):
        """Extend P with letter: feed its live match positions, largest
        first, as one decreasing batch."""
        self.p_len += 1
        live = self.index.live_positions(letter, self.front)
        if live:
            ts = self.ts
            start = ts.position_counter + 1
            ts.extend(live)
            self._batches.append((self.p_len, start, ts.position_counter))

    def drop_front_of_s(self):
        """Shrink S from the front.  A dropped position that was ever
        matched is necessarily the structure's minimum, so one O(1)
        comparison decides between extract-min and doing nothing."""
        if self.front >= len(self.s_text):
            raise ValueError("suffix already exhausted")
        self.front += 1
        if self.ts.min_value() == self.front:
            self.ts.extract_min()

    def witnesses(self, limit=None):
        """Maximal common subsequences as (p_position, s_position) pair
        lists, in enumeration order.  Both coordinates strictly increase
        along a witness; s positions are original S coordinates."""
        starts = [b[1] for b in self._batches]
        batches = self._batches
        for seq in self.ts.all_lis(limit):
            pairs = []
            for value, pos in seq:
                batch = batches[bisect_right(starts, pos) - 1]
                pairs.append((batch[0], value))
            yield pairs

    def witness(self):
        """First maximal common subsequence of the enumeration."""
        return next(self.witnesses(limit=1))
