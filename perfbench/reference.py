"""Bench-local references, sharing no code with the ltss package.

`all_splits_lcs` is the baseline the benchmark times next to the scan: the
Allison-Dix / Hyyro bit-vector LCS on Python ints, run once per split.
`count_alignments` counts the optimal witnesses a split offers, so the
enumeration checks know how many the program should list.
"""


def _masks(text):
    masks = {}
    for j, ch in enumerate(text):
        masks[ch] = masks.get(ch, 0) | (1 << j)
    return masks


def all_splits_lcs(f):
    """(length, split) maximizing LCS(f[:split], f[split:]), earliest split
    on ties; (0, 0) when no letter repeats."""
    n = len(f)
    masks = _masks(f)
    best_len, best_split = 0, 0
    for t in range(1, n):
        m = n - t
        full = (1 << m) - 1
        suffix = {ch: mask >> t for ch, mask in masks.items()}
        v = full
        for ch in f[:t]:
            u = v & suffix[ch]
            v = ((v + u) | (v - u)) & full
        length = m - v.bit_count()
        if length > best_len:
            best_len, best_split = length, t
    return best_len, best_split


class _Fenwick:
    """Prefix sums over columns 1..size."""

    __slots__ = ("tree",)

    def __init__(self, size):
        self.tree = [0] * (size + 1)

    def add(self, i, value):
        tree = self.tree
        while i < len(tree):
            tree[i] += value
            i += i & -i

    def prefix(self, i):
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


def count_alignments(p, s):
    """Number of distinct maximum-length chains of matches (i, j), p[i] ==
    s[j], strictly increasing in both coordinates.

    The k-th match of a maximum chain always has prefix-LCS depth exactly k,
    so chains are counted level by level: a match at depth k extends every
    depth k-1 chain ending strictly above and to the left of it.
    """
    m = len(s)
    prev = [0] * (m + 1)
    levels = [None]            # levels[k]: Fenwick over columns of depth-k counts
    for i in range(1, len(p) + 1):
        ch = p[i - 1]
        row = [0] * (m + 1)
        found = []
        for j in range(1, m + 1):
            if s[j - 1] == ch:
                depth = prev[j - 1] + 1
                row[j] = depth
                count = 1 if depth == 1 else levels[depth - 1].prefix(j - 1)
                found.append((depth, j, count))
            else:
                a, b = row[j - 1], prev[j]
                row[j] = a if a >= b else b
        for depth, j, count in found:
            if depth == len(levels):
                levels.append(_Fenwick(m))
            levels[depth].add(j, count)
        prev = row
    top = prev[m]
    return levels[top].prefix(m) if top else 0
