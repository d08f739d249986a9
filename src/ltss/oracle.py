"""Brute-force references for differential testing.

Nothing here shares code with the fast path: quadratic DP for common
subsequences and path counts over it, two independent LIS lengths
(quadratic and patience), an exhaustive LIS enumerator, a cubic split
scan for tandems, a bit-parallel length of every split and the tandem scan
over it, for strings thousands of letters long, the classical stack-based
threshold construction, and a tandem witness checker.  The exhaustive
routines refuse inputs past their guards instead of silently taking
forever.
"""

from bisect import bisect_left

ENUMERATION_GUARD = 20
TANDEM_GUARD = 200
# longest string `ltss --verify` checks with bitparallel_ltss, whose
# O(n^3 / word size) scan takes well under a second there
BITPARALLEL_GUARD = 2000
# largest dp_lcss table `lcss --verify` builds, in (|P|+1)(|S|+1) Python
# ints: at the limit 0.6 s and a 56 MB peak (CPython 3.11, 2-vCPU VM);
# 10^4 x 10^4 would need about 1.5 GB
LCSS_CELL_GUARD = 2000 * 2000


def dp_lcss(p, s):
    """(len(p)+1) x (len(s)+1) table; cell [i][j] holds the common
    subsequence length of the i-prefix of p and the j-prefix of s."""
    m, n = len(p), len(s)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        pc = p[i - 1]
        row = d[i]
        prev = d[i - 1]
        for j in range(1, n + 1):
            if pc == s[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                a = row[j - 1]
                b = prev[j]
                row[j] = a if a >= b else b
    return d


def lcss_length(p, s):
    return dp_lcss(p, s)[len(p)][len(s)]


def naive_lis(values):
    """Longest strictly increasing subsequence length, quadratic DP."""
    best = 0
    ends = []
    for i, v in enumerate(values):
        here = 1
        for j in range(i):
            if values[j] < v and ends[j] >= here:
                here = ends[j] + 1
        ends.append(here)
        if here > best:
            best = here
    return best


def patience_lis(values):
    """Strictly increasing LIS length via patience tails; the fast
    reference for long traces."""
    tails = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def threshold_stacks(values):
    """Key lists of the classical stack-based threshold construction:
    level k collects the values whose best increasing run ending there has
    length exactly k, duplicates dropped."""
    tails = []
    lists = []
    for v in values:
        k = bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
            lists.append([v])
        elif tails[k] != v:
            tails[k] = v
            lists[k].append(v)
    return lists


def naive_all_lis(values):
    """Every longest strictly increasing subsequence as a set of 1-based
    position tuples.  Exhaustive search; refuses lists longer than 20."""
    if len(values) > ENUMERATION_GUARD:
        raise ValueError("list too long for exhaustive enumeration: %d" % len(values))
    target = naive_lis(values)
    if target == 0:
        return set()
    out = set()
    n = len(values)

    def extend(start, last, chain):
        depth = len(chain)
        if depth == target:
            out.add(tuple(chain))
            return
        for i in range(start, n - (target - depth) + 1):
            if last is None or values[i] > last:
                chain.append(i + 1)
                extend(i + 1, values[i], chain)
                chain.pop()

    extend(0, None, [])
    return out


def count_lcs_chains(p, s):
    """Number of maximum-length chains of match pairs (i, j), p[i] == s[j],
    rising strictly in i and j, the empty chain counting as 1: the classical
    path count over dp_lcss's table.  A cell's chains end at its match, if
    any, after one of its diagonal cell's, or lie in the cell above or to
    the left where that keeps the length, less those lying in both."""
    d = dp_lcss(p, s)
    count = [[1] * (len(s) + 1) for _ in range(len(p) + 1)]
    for i, a in enumerate(p, 1):
        for j, b in enumerate(s, 1):
            k = d[i][j]
            count[i][j] = ((d[i - 1][j] == k) * count[i - 1][j]
                           + (d[i][j - 1] == k) * count[i][j - 1]
                           + ((a == b) - (d[i - 1][j - 1] == k))
                           * count[i - 1][j - 1])
    return count[-1][-1]


def count_lis(values):
    """Number of longest strictly increasing subsequences of values, told
    apart by position, the empty one counting as 1: each is a longest chain
    of match pairs with the sorted distinct values, counted in O(n^2)."""
    return count_lcs_chains(values, sorted(set(values)))


def naive_ltss(f):
    """(length, split) maximizing the DP common-subsequence length of
    f[:split] against f[split:]; earliest split wins ties.  Refuses
    strings longer than 200."""
    if len(f) > TANDEM_GUARD:
        raise ValueError("string too long for cubic scan: %d" % len(f))
    best_len = 0
    best_split = 0
    for split in range(len(f) + 1):
        val = lcss_length(f[:split], f[split:])
        if val > best_len:
            best_len = val
            best_split = split
    return best_len, best_split


def split_lengths(f):
    """[L(0), ..., L(n)]: the common-subsequence length of f[:t] against
    f[t:] for every split t, for any length: the Allison-Dix / Hyyro
    bit-vector LCS on Python ints, run once per split.  Bit j of a row is
    cleared exactly where the DP row steps up at suffix column j+1, so a
    split's length is the count of cleared bits."""
    n = len(f)
    masks = {}
    for j, ch in enumerate(f):
        masks[ch] = masks.get(ch, 0) | 1 << j
    lengths = [0] * (n + 1)
    for split in range(1, n):
        full = (1 << (n - split)) - 1
        row = full
        for ch in f[:split]:
            hits = row & (masks[ch] >> split)
            row = ((row + hits) | (row - hits)) & full
        lengths[split] = n - split - row.bit_count()
    return lengths


def bitparallel_ltss(f):
    """(length, split) as naive_ltss returns it, for any length: the
    earliest longest of split_lengths(f)."""
    lengths = split_lengths(f)
    best_len = max(lengths)
    return best_len, lengths.index(best_len)


def validate_tandem(f, result):
    """True iff result is internally consistent and embeds its witness
    twice, with the occurrences split disjointly around split_index."""
    w = result.witness
    occ1 = result.first_occurrence
    occ2 = result.second_occurrence
    if not (result.length == len(w) == len(occ1) == len(occ2)):
        return False
    if not 0 <= result.split_index <= len(f):
        return False
    for occ in (occ1, occ2):
        prev = 0
        for pos, ch in zip(occ, w):
            if pos <= prev or pos > len(f) or f[pos - 1] != ch:
                return False
            prev = pos
    if result.length:
        if occ1[-1] > result.split_index or occ2[0] <= result.split_index:
            return False
    return True
