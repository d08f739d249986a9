"""Longest tandem scattered subsequence driver.

Scan every prefix/suffix split of the input: at step t the comparator
drops letter t off the suffix and appends it to the prefix, so the tracked
length is the common-subsequence length of F[1..t] against F[t+1..n].  The
best split (earliest on ties) then yields a witness and its two disjoint
occurrences from one positional build of F[1..t] over F[t+1..n].
compute_ltss and the CLI scan through _scan and take the witness from
solve, whose walk an enumerating caller continues.  _scan alone picks the
levels it drives, from whether its caller reads counters: ThresholdLevels
counts the scan's work into a RunStats, UncountedLevels counts nothing and
gives none.
"""

import time
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .dynamic_lis import ThresholdLevels, UncountedLevels, walk_lis
from .string_compare import Comparator, MatchIndex


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
    Its comparator drives ThresholdLevels if counted, else UncountedLevels,
    and the RunStats is None."""
    start = time.perf_counter()
    ts = ThresholdLevels() if counted else UncountedLevels()
    comp = Comparator(f, ts)
    append_to_p = comp.append_to_p
    drop = comp.drop_front_of_s
    best_len = 0
    best_split = 0
    for t in range(1, len(f)):
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
        transfers=dict(st.transfers_out),
        tree_ops=st.tree_ops(),
        elapsed=elapsed,
    )

def replay_split(f, split):
    """Comparator holding f[:split] against f[split:], for callers that
    keep driving it; the tandem path builds none.  Appends alone reach the
    scan's state: no drop extracts, as the front reaches split while the
    structure is empty, and the state depends only on the survivors."""
    if not 0 <= split <= len(f):
        raise ValueError("split %d outside 0..%d" % (split, len(f)))
    comp = Comparator(f, ThresholdLevels())
    for _ in range(split):
        comp.drop_front_of_s()
    for letter in f[:split]:
        comp.append_to_p(letter)
    return comp

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
