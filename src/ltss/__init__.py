"""Longest tandem scattered subsequence: the longest subsequence that
occurs twice in a string without the two occurrences overlapping.

The search runs one comparator scan over every prefix/suffix split,
backed by a dynamic LIS structure that supports appends, extends by a run
of values, extract-min and full enumeration of the optimal subsequences.
"""

from .dynamic_lis import INF, Counters, ThresholdStructure
from .string_compare import Comparator, MatchIndex
from .tandem import LtssResult, RunStats, compute_ltss, ltss_stats, replay_split

__all__ = [
    "Comparator",
    "Counters",
    "INF",
    "LtssResult",
    "MatchIndex",
    "RunStats",
    "ThresholdStructure",
    "compute_ltss",
    "ltss_stats",
    "replay_split",
]
