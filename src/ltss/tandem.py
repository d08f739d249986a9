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
bit-vector pass anchored at a gives.  Chains of such passes, each
skipping at most F splits and run only while those splits outweigh it,
narrow the window from both ends to the splits whose bounds reach F.
Splits outside that window can neither win nor tie, so the length and
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
    split.  Else it drives UncountedLevels, steps only the window
    _window(f) of splits that can still win, and the RunStats is None."""
    start = time.perf_counter()
    first, last = (1, len(f) - 1) if counted else _window(f)
    comp = _comparator_at(f, first - 1,
                          ThresholdLevels() if counted else UncountedLevels())
    ts = comp.ts
    append_to_p = comp.append_to_p
    drop = comp.drop_front_of_s
    best_len = 0
    best_split = 0
    for t in range(first, last + 1):
        drop()
        append_to_p(f[t - 1])
        lam = ts.lis_length
        # earliest split wins ties, and every new overall maximum first
        # appears as a new high-water mark of the tracked length
        if lam > best_len:
            best_len = lam
            best_split = t
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

def _window(f):
    """(first, last) of an uncounted scan's window of splits, within
    [1, n - 1].  A split whose L falls below F = L(t*), for B's earliest
    maximum t*, can neither win nor tie.  _carve gives first, and last
    from the reversed string, whose split a is split n - a here; its
    passes skip at most F splits each and run while the live matches they
    may skip outweigh them."""
    n = len(f)
    counts = Counter(f)
    # a letter's slack is its count less one, less twice its copies left
    # of the split: one more copy crossing left raises its term in B while
    # the slack is positive and lowers it while the slack is negative
    slack = {letter: count - 1 for letter, count in counts.items()}
    bounds = [0]
    for letter in f:
        s = slack[letter]
        slack[letter] = s - 2
        bounds.append(bounds[-1] + (s > 0) - (s < 0))
    floor = next(_anchored_lengths(f, bounds.index(max(bounds))))
    # the step at split t works on about t (n - t) S / n^2 live matches, S
    # the sum of squared letter counts; a pass costs about _PASS_COST n
    limit = _PASS_COST * n ** 3 // max(1, sum(c * c for c in counts.values()))
    first = _carve(f, bounds, floor, limit)
    last = n - _carve(f[::-1], bounds[::-1], floor, limit)
    # with no repeated letter the floor is 0 and the carve keeps 0 and n
    return max(first, 1), min(last, n - 1)

def _carve(f, bounds, floor, limit):
    """The first split a with B(a) >= floor that the anchored passes keep.
    For t >= a, L(t) <= LCS(f[:t], f[a:]), as f[t:] is a suffix of f[a:],
    and the next pass anchors where B and that bound both reach floor.
    LCS(f[:t], f[a:]) >= t - a, so a pass skips at most floor splits, and
    fewer as the chain closes in: one runs only while k a (n - a) > limit,
    for k the splits the last one skipped (floor at first)."""
    a = next(t for t, bound in enumerate(bounds) if bound >= floor)
    skipped = floor
    while skipped * a * (len(f) - a) > limit:
        for t, length in enumerate(_anchored_lengths(f, a), a):
            if length >= floor and bounds[t] >= floor:
                break
        if t == a:
            break
        a, skipped = t, t - a
    return a

def _anchored_lengths(f, anchor):
    """Yield LCS(f[:t], f[anchor:]) for t = anchor, ..., n: L(anchor)
    first, then a bound on each later L(t).  One Allison-Dix / Hyyro
    bit-vector LCS pass on Python ints: bit j of row is cleared where the
    DP row steps up at column j + 1 of f[anchor:]."""
    masks = {}
    for j, letter in enumerate(f[anchor:]):
        masks[letter] = masks.get(letter, 0) | 1 << j
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
    common letter gives no levels."""
    if not 0 <= split <= len(f):
        raise ValueError("split %d outside 0..%d" % (split, len(f)))
    index = MatchIndex(f)
    for letter in f[:split]:
        index.by_letter[letter].pop()   # the list tail, as a drop pops it
    return index.levels(f[:split])

def split_walk(f, split):
    """walk_lis over split_levels(f, split); a split with no common letter
    walks the one empty item."""
    levels = split_levels(f, split)
    return walk_lis(levels) if levels else iter([(0, [], [])])

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
    maximal tandem at the split, in enumeration order, from one positional
    build; a split with no common letter yields the one empty tandem."""
    yield from walk_tandems(f, split_walk(f, split))

def solve(f, scan):
    """The LtssResult of f's _scan answer, and the split walk whose first
    item gave its witness: the walk yields that item again, slots intact."""
    best_len, best_split, stats = scan
    walk = split_walk(f, best_split)
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
