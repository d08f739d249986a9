"""Shared test plumbing: structure builders, randomized trace drivers,
reference implementations of the structure's fast paths and the
benchmark corpus's strings."""

import importlib.util
import sys
from bisect import bisect_left, bisect_right
from operator import itemgetter, neg
from pathlib import Path

from ltss.dynamic_lis import INF, ThresholdLevels, ThresholdStructure
from ltss.string_compare import Comparator
from ltss.tandem import RunStats

WORKED_STREAM = [8, 2, 1, 6, 5, 4, 3, 6, 5, 4]


def build_structure(values, batch=False):
    """Structure fed values one append at a time, or by one extend."""
    ts = ThresholdStructure()
    if batch:
        ts.extend(values)
    else:
        for v in values:
            ts.append(v)
    return ts


def benchmark_shapes():
    """The first string of every shape in the benchmark corpus at seed 0,
    named by workload and shape, such as "dna-near-tandem", from
    perfbench/corpus.py itself, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    shapes = {}
    for prefix, workload in (("dna", "dna-scan"), ("protein", "protein-cli"),
                             ("enumerate", "enumerate")):
        for item in corpus.build(workload, 0):
            shapes.setdefault(prefix + "-" + item.label, item.text)
    return shapes


def random_ops(rng, length, vmax, p_extract=0.3):
    """Mixed op stream: an int means append it, 'x' requests an extract
    (runners skip extracts that hit an empty structure)."""
    return ["x" if rng.random() < p_extract else rng.randint(1, vmax)
            for _ in range(length)]


def drop_min(shadow):
    """Shadow-list extract: delete every occurrence of the minimum."""
    m = min(shadow)
    shadow[:] = [x for x in shadow if x != m]


class ReferenceLevels(ThresholdLevels):
    """Threshold levels whose extend bisects the tail chain for every
    value, with no finger probe, and whose extract cascade steps one level
    at a time, shifting the tail chain and tallying every counter per
    step, as the cascade first did; the reference for the finger-first
    extend and the batched cascade.  It keeps its own per-level tally of
    the entries each step moves, in transfers; its merges leave the
    landing tally alone, so its Counters.transfers_out is no reference."""

    __slots__ = ("moved",)

    def __init__(self):
        super().__init__()
        self.moved = []     # [k-2]: entries moved from level k to k-1

    @property
    def transfers(self):
        return dict(enumerate(self.moved, 2))

    def extend(self, values):
        n = len(values)
        mins = self._mins
        levels = self._levels
        stats = self.stats
        landed = stats.landed
        probes = 0
        top = i = len(mins)
        prev = INF
        for v in values:
            # within a decreasing run the bisect stops at the previous
            # value's level
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
                mins[i] = v
                levels[i].append(-v)
                landed[i] += 1
            prev = v
        stats.append_calls += n
        stats.search_steps += probes
        stats.structure_steps += n

    def extract_min(self):
        mins = self._mins
        if not mins:
            raise ValueError("extract_min on empty structure")
        levels = self._levels
        below = levels[0]
        below.pop()
        stats = self.stats
        totals = self.moved
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
            if len(totals) < k:
                totals.append(0)
            totals[k - 1] += moved
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


def reference_run_stats(f):
    """The RunStats of a split scan whose comparator drives ReferenceLevels,
    transfers taken from the reference's own tally and elapsed left 0."""
    ts = ReferenceLevels()
    comp = Comparator(f, ts)
    best_len = 0
    for t in range(1, len(f)):
        comp.drop_front_of_s()
        comp.append_to_p(f[t - 1])
        best_len = max(best_len, ts.lis_length)
    st = ts.stats
    return RunStats(n=len(f), matches=st.append_calls, lambda_max=best_len,
                    extract_mins=st.extract_min_calls,
                    cascade_steps=st.cascade_steps, transfers=ts.transfers,
                    tree_ops=st.tree_ops(), elapsed=0.0)


def reference_positional_levels(runs):
    """The patience pass that bisects every tail for every value, with no
    bound; the reference for dynamic_lis.positional_levels."""
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


def _window(level, value, tag):
    # (tag, value) items of a level below a chosen (value, tag): the slice
    # from the first value strictly below value up to the first tag not
    # below tag.  One sharing the chosen tag lies above the chosen value.
    values, tags = level
    start = bisect_right(values, -value, key=neg)
    stop = bisect_left(tags, tag, start)
    return zip(tags[start:stop], values[start:stop])


def reference_walk_lis(levels):
    """The walk that opens every window with _window, two bisects and two
    slices each; the reference for walk_lis, item for item."""
    if not levels:
        yield 0, [], []
        return
    lam = len(levels)
    tags = [None] * lam
    values = [None] * lam
    frames = [None] * lam
    k = top = lam - 1
    frames[k] = _window(levels[k], INF, INF)
    while k < lam:
        for tags[k], values[k] in frames[k]:
            if k:
                k -= 1
                frames[k] = _window(levels[k], values[k + 1], tags[k + 1])
                break
            yield top + 1, tags, values
            top = 0
        else:
            # the climb ends on the level that takes its next window item
            k += 1
            top = k


def reference_print_tandems(f, lam, walk):
    """The tandem= printer that joins all lam tokens of every line after
    reconverting the rewritten ones; the reference for cli._print_tandems,
    byte for byte."""
    padded = " " + f     # 1-based positions
    decimal = list(map(str, range(len(f) + 1)))
    word, first, second = ([None] * lam for _ in range(3))
    write = sys.stdout.write
    for r, tags, values in walk:
        if r == 1:
            # an itemgetter of one index returns its item bare
            t = tags[0]
            word[0], first[0] = padded[t], decimal[t]
            second[0] = decimal[values[0]]
        else:
            at = itemgetter(*tags[:r])
            word[:r], first[:r] = at(padded), at(decimal)
            second[:r] = itemgetter(*values[:r])(decimal)
        write("tandem=%s occ1=%s occ2=%s\n"
              % ("".join(word), ",".join(first), ",".join(second)))
