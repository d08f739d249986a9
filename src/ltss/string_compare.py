"""Incremental-prefix / decremental-suffix string comparison.

The common-subsequence length between a prefix P and a suffix S reduces to
a longest increasing subsequence the Hunt-Szymanski way: appending a
letter to P feeds that letter's match positions in S, taken in decreasing
order, into the threshold structure; the structure's LIS length is then
exactly the common-subsequence length.  Dropping the front letter of S is
a single extract-min (or nothing at all, when the dropped position was
never matched).  Positions keep their original 1-based S coordinates
throughout; nothing is ever renumbered.  The structure keeps keys only:
the live match lists, in prefix order, are exactly its surviving appends,
so MatchIndex.levels builds P's positional levels from them; `ltss lcss`,
which never drops a letter, answers from that one build alone.
"""

from .dynamic_lis import positional_levels, walk_lis


class MatchIndex:
    """Per-letter match positions over S, each list strictly decreasing,
    holding exactly the positions still in the suffix: a comparator pops
    each one off its letter's list as it drops it."""

    __slots__ = ("by_letter",)

    def __init__(self, s):
        by_letter = {}
        for j in range(len(s), 0, -1):
            by_letter.setdefault(s[j - 1], []).append(j)
        self.by_letter = by_letter

    def levels(self, p):
        """One positional build of p over the current lists: one run per
        letter of p, its live list as it is, tagged by its 1-based index
        in p.  There is one level per LCS letter, and a walk item is a
        witness's p positions and s positions, as two lists."""
        return positional_levels((i, self.by_letter.get(letter, ()))
                                 for i, letter in enumerate(p, 1))


class Comparator:
    """Common-subsequence tracker between a growing prefix P and the
    front-shrinking suffix of the original string S, driving the empty
    threshold levels ts that its caller picks."""

    __slots__ = ("s_text", "index", "ts", "front", "p_letters")

    def __init__(self, s, ts):
        self.s_text = s
        self.index = MatchIndex(s)
        self.ts = ts
        self.front = 0       # letters dropped off the front of S
        self.p_letters = []

    @property
    def lcss_length(self):
        return self.ts.lis_length

    def append_to_p(self, letter):
        """Extend P with letter: feed its match positions in S, largest
        first, as one decreasing run; a letter with none left in S feeds
        an empty run, which changes nothing."""
        self.p_letters.append(letter)
        self.ts.extend(self.index.by_letter.get(letter, ()))

    def drop_front_of_s(self):
        """Shrink S from the front.  Positions leave S in increasing
        order and each match list decreases, so the dropped position is
        its letter's list tail.  A dropped position that was ever matched
        is necessarily the structure's minimum, so one O(1) comparison
        decides between extract-min and doing nothing."""
        if self.front >= len(self.s_text):
            raise ValueError("suffix already exhausted")
        self.index.by_letter[self.s_text[self.front]].pop()
        self.front += 1
        if self.ts.min_value() == self.front:
            self.ts.extract_min()

    def witnesses(self):
        """Yield, lazily, each maximal common subsequence as a list of
        (p_position, s_position) pairs in enumeration order, both strictly
        increasing, s in original S coordinates.  The levels are built on
        the first item, over the live lists.  With no common letter the one
        maximal common subsequence is the empty one: it yields [] once."""
        levels = self.index.levels(self.p_letters)
        for _, p_positions, s_positions in walk_lis(levels):
            yield list(zip(p_positions, s_positions))
