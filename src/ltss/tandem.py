"""Longest tandem scattered subsequence driver.

Scan the prefix/suffix splits of the input: at step t the comparator
drops letter t off the suffix and appends it to the prefix, so the tracked
length L(t) is the common-subsequence length of F[1..t] against
F[t+1..n].  The best split (earliest on ties) then yields a witness and
its two disjoint occurrences from one positional build of F[1..t] over
F[t+1..n].  compute_ltss and the CLI scan through _scan and take the
witness from solve, whose walk an enumerating caller continues.  _scan
alone picks the levels it drives, from whether its caller reads counters:
ThresholdLevels counts the scan's work into a RunStats, and that scan
steps every split.  UncountedLevels counts nothing and gives none, and
its scan steps only the splits that can still win.  L(t) is at most B(t),
the sum over letters of the lesser of their counts on each side, and it
moves by at most 1 per step.  F, the exact L at B's earliest maximum,
floors the answer, and for t >= a, L(t) <= LCS(f[:t], f[a:]), which one
bit-vector pass anchored at a gives.  A chain of such passes, each
skipping at most F splits and run only while those splits outweigh it,
moves the window's start to the first split whose bounds reach F; the
passes over one direction of f share one set of letter masks, which each
shifts by its anchor.  The end starts at n - 1, and only the scan's best
length lam moves it: once lam reaches F, a later split matters only if
its L reaches lam + 1, so the chain over the reversed string pulls the
end in with that floor.  No split left out can win, so the length and
split, which still come from the levels, are those of a full scan.
"""

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .dynamic_lis import ThresholdLevels, UncountedLevels, walk_lis
from .string_compare import Comparator, MatchIndex

# an anchored pass costs about as much as the scan stepping over this many
# times n live matches (measured on CPython 3.11)
_PASS_COST = 64


@dataclass
class LtssResult:
    """Best tandem: its length, the winning prefix length, the repeated
    subsequence, and the two occurrence position lists (1-based, the first
    entirely at or before split_index, the second entirely after).  stats
    holds the instrumentation of the scan that found it, None if that scan
    counted nothing, and takes no part in equality."""
    length: int
    split_index: int
    witness: str
    first_occurrence: list
    second_occurrence: list
    stats: "RunStats" = field(default=None, compare=False, repr=False)


@dataclass
class RunStats:
    """Scan-wide instrumentation for one input string."""
    n: int
    matches: int        # equal-letter position pairs fed to the structure
    lambda_max: int
    extract_mins: int
    cascade_steps: int  # levels cut by the extract cascades
    transfers: dict
    tree_ops: int
    elapsed: float


def _scan(f, counted):
    """Run the split scan and return (best_len, best_split, RunStats).
    Its comparator drives ThresholdLevels if counted, and steps every
    split.  Else it drives UncountedLevels, steps only the splits of
    window = _Window(f), and the RunStats is None: each new best length
    lam >= window.floor lets window.narrow pull the window's end, n - 1 at
    first, in to the last split that may still reach lam + 1."""
    start = time.perf_counter()
    window = None if counted else _Window(f)
    comp = _comparator_at(f, 0 if counted else window.first - 1,
                          ThresholdLevels() if counted else UncountedLevels())
    ts = comp.ts
    append_to_p = comp.append_to_p
    drop = comp.drop_front_of_s
    best_len = 0
    best_split = 0
    for t in range(1, len(f)) if counted else window:
        drop()
        append_to_p(f[t - 1])
        lam = ts.lis_length
        # earliest split wins ties, and every new overall maximum first
        # appears as a new high-water mark of the tracked length
        if lam > best_len:
            best_len = lam
            best_split = t
            if not counted and lam >= window.floor:
                window.narrow(lam, t)
    elapsed = time.perf_counter() - start
    if not counted:
        return best_len, best_split, None
    st = ts.stats
    return best_len, best_split, RunStats(
        n=len(f),
        matches=st.append_calls,
        lambda_max=best_len,
        extract_mins=st.extract_min_calls,
        cascade_steps=st.cascade_steps,
        transfers=st.transfers_out,
        tree_ops=st.tree_ops(),
        elapsed=elapsed,
    )

class _Window:
    """The splits an uncounted scan steps, first to last within [1, n - 1];
    iterating yields them, reading last afresh at every step.  A split
    whose L falls below F = floor = L(t*), for B's earliest maximum t*,
    can neither win nor tie.  The chain over f gives first.  last starts
    at n - 1, and only narrow moves it, through the chain over the
    reversed string, whose split a is split n - a here."""

    def __init__(self, f):
        n = len(f)
        counts = Counter(f)
        # a letter's slack is its count less one, less twice its copies
        # left of the split: one more copy crossing left raises its term in
        # B while the slack is positive and lowers it while it is negative
        slack = {letter: count - 1 for letter, count in counts.items()}
        bounds = [0]
        for letter in f:
            s = slack[letter]
            slack[letter] = s - 2
            bounds.append(bounds[-1] + (s > 0) - (s < 0))
        top = bounds.index(max(bounds))
        self.floor = floor = next(_anchored_lengths(f, top, _masks(f[top:])))
        # the step at split t works on about t (n - t) S / n^2 live matches,
        # S the sum of squared letter counts; a pass costs about _PASS_COST n
        squares = sum(c * c for c in counts.values())
        limit = _PASS_COST * n ** 3 // max(1, squares)
        self.first = _Chain(f, bounds, limit).carve(1, floor, floor, n)
        self.right = _Chain(f[::-1], bounds[::-1], limit)
        self.last = n - 1

    def __iter__(self):
        t = self.first
        while t <= self.last:
            yield t
            t += 1

    def narrow(self, best, t):
        """Pull last in, never below the split t just stepped, to the last
        split whose bounds may still reach best + 1: no later split can
        beat best.  The reversed chain goes on from last, n - 1 before
        the first call, and its first pass may skip best + 1 splits, or
        the last - t left if fewer, in place of the last pass's skip."""
        n = len(self.right.f)
        self.last = n - self.right.carve(n - self.last, best + 1,
                                         min(best + 1, self.last - t), n - t)

class _Chain:
    """A chain of anchored passes over one direction of f, with bounds the
    B(t) of that direction; its passes share one set of letter masks,
    built on the first pass."""

    def __init__(self, f, bounds, limit):
        self.f = f
        self.bounds = bounds
        self.limit = limit
        self.masks = None

    def carve(self, a, floor, skipped, stop):
        """The first split from a on, stop at the most, whose B and whose
        anchored bounds both reach floor.  For t >= a, L(t) <= LCS(f[:t],
        f[a:]), as f[t:] is a suffix of f[a:], and the next pass anchors
        where B and that bound both reach floor.  LCS(f[:t], f[a:]) >=
        t - a, so a pass skips at most floor splits, and fewer as the chain
        closes in: one runs only while skipped a (n - a) > limit, skipped
        becoming the splits the last pass skipped."""
        f, bounds = self.f, self.bounds
        n = len(f)
        while a < stop and bounds[a] < floor:
            a += 1
        while a < stop and skipped * a * (n - a) > self.limit:
            if self.masks is None:
                self.masks = _masks(f)
            masks = {letter: mask >> a for letter, mask in self.masks.items()}
            for t, length in enumerate(_anchored_lengths(f, a, masks), a):
                if length >= floor and bounds[t] >= floor:
                    break
            if t == a:
                break
            a, skipped = min(t, stop), t - a
        return a

def _masks(f):
    """Letter masks of f: bit j of a letter's mask is set where f[j] is
    that letter."""
    masks = {}
    for j, letter in enumerate(f):
        masks[letter] = masks.get(letter, 0) | 1 << j
    return masks

def _anchored_lengths(f, anchor, masks):
    """Yield LCS(f[:t], f[anchor:]) for t = anchor, ..., n: L(anchor)
    first, then a bound on each later L(t), given masks, the _masks of
    f[anchor:].  One Allison-Dix / Hyyro bit-vector LCS pass on Python
    ints: bit j of row is cleared where the DP row steps up at column
    j + 1 of f[anchor:]."""
    width = len(f) - anchor
    row = full = (1 << width) - 1
    for t, letter in enumerate(f):
        if t >= anchor:
            yield width - row.bit_count()
        hits = row & masks.get(letter, 0)
        row = ((row + hits) | (row - hits)) & full
    yield width - row.bit_count()

def _comparator_at(f, split, ts):
    """A Comparator over f driving the empty levels ts, brought to
    f[:split] against f[split:] by appends alone: no drop extracts, as
    the front reaches split while the structure is empty, and the state
    depends only on the survivors."""
    comp = Comparator(f, ts)
    for _ in range(split):
        comp.drop_front_of_s()
    for letter in f[:split]:
        comp.append_to_p(letter)
    return comp

def replay_split(f, split):
    """Comparator holding f[:split] against f[split:], for callers that
    keep driving it; the tandem path builds none."""
    if not 0 <= split <= len(f):
        raise ValueError("split %d outside 0..%d" % (split, len(f)))
    return _comparator_at(f, split, ThresholdLevels())

def split_levels(f, split):
    """Positional levels of f[:split] over f[split:], from one fresh
    MatchIndex(f) with the prefix's positions popped: a walk item is a
    maximal tandem's first and second occurrence lists.  A split with no
    common letter gives no levels, whose walk is the one empty item."""
    if not 0 <= split <= len(f):
        raise ValueError("split %d outside 0..%d" % (split, len(f)))
    index = MatchIndex(f)
    for letter in f[:split]:
        index.by_letter[letter].pop()   # the list tail, as a drop pops it
    return index.levels(f[:split])

def walk_tandems(f, walk):
    """Yield (witness, first_occurrence, second_occurrence) for each item
    of a split walk, copied out of the walk's slots."""
    padded = " " + f     # 1-based positions
    for _, tags, values in walk:
        # one letter comes back bare, and joins to itself
        yield ("".join(itemgetter(*tags)(padded)) if tags else "",
               tags[:], values[:])

def split_tandems(f, split):
    """Yield (witness, first_occurrence, second_occurrence) for every
    maximal tandem of the str f at the split, in enumeration order, from
    one positional build; a split with no common letter yields ("", [], [])."""
    if not isinstance(f, str):
        raise TypeError("split_tandems expects a str, got %s" % type(f).__name__)
    yield from walk_tandems(f, walk_lis(split_levels(f, split)))

def solve(f, scan):
    """The LtssResult of f's _scan answer, and the split walk whose first
    item gave its witness: the walk yields that item again, slots intact."""
    best_len, best_split, stats = scan
    walk = walk_lis(split_levels(f, best_split))
    item = next(walk)
    witness, first, second = next(walk_tandems(f, (item,)))
    return (LtssResult(best_len, best_split, witness, first, second, stats),
            chain((item,), walk))

def compute_ltss(f):
    """Longest subsequence occurring twice without overlap in the str f,
    with the scan's instrumentation attached as .stats."""
    if not isinstance(f, str):
        raise TypeError("compute_ltss expects a str, got %s" % type(f).__name__)
    return solve(f, _scan(f, counted=True))[0]

def ltss_stats(f):
    """Run the scan alone and report its instrumentation, the RunStats
    that compute_ltss(f).stats carries; f may be any hashable sequence."""
    return _scan(f, counted=True)[2]
