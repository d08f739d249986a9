"""End-to-end tandem search tests: the golden example, degenerate inputs,
exhaustive small-alphabet agreement with the cubic oracle, agreement with
the bit-parallel oracle at thousands of letters, witness recovery against
the scan's own interleaving, the input contract, and stats."""

import dataclasses
import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from ltss import string_compare, tandem
from ltss.dynamic_lis import ThresholdLevels, UncountedLevels
from ltss.oracle import (bitparallel_ltss, naive_ltss, split_lengths,
                         validate_tandem)
from ltss.string_compare import Comparator
from ltss.tandem import (LtssResult, compute_ltss, ltss_stats, replay_split,
                         split_tandems)

from helpers import reference_run_stats

GOLDEN = "AGCGAACGGGTA"


def check_against_oracle(f):
    res = compute_ltss(f)
    assert (res.length, res.split_index) == naive_ltss(f)
    assert validate_tandem(f, res)
    return res


def test_golden_example():
    res = compute_ltss(GOLDEN)
    assert res.length == 4
    assert res.split_index == 5
    assert res.witness == "AGGA"
    assert res.first_occurrence == [1, 2, 4, 5]
    assert res.second_occurrence == [6, 9, 10, 12]
    assert validate_tandem(GOLDEN, res)


def test_degenerate_inputs():
    for f in ("", "A", "ABC", "ABCDEFG"):
        res = compute_ltss(f)
        assert res == type(res)(0, 0, "", [], [])
        assert validate_tandem(f, res)


def test_two_equal_letters():
    res = compute_ltss("AA")
    assert (res.length, res.split_index, res.witness) == (1, 1, "A")
    assert res.first_occurrence == [1]
    assert res.second_occurrence == [2]


def test_determinism():
    a = compute_ltss(GOLDEN)
    b = compute_ltss(GOLDEN)
    assert a == b


def test_exhaustive_small_binary():
    for n in range(1, 10):
        for bits in itertools.product("AB", repeat=n):
            check_against_oracle("".join(bits))


def test_random_medium_strings():
    rng = random.Random(5)
    for _ in range(60):
        sigma = rng.choice(["AB", "ABC", "ABCD", "ABCDEFGH",
                            "ABCDEFGHIJKLMNOPQRSTUVWXYZ"])
        n = rng.randint(1, 80)
        check_against_oracle("".join(rng.choice(sigma) for _ in range(n)))


def uniform(rng, n, alphabet):
    return "".join(rng.choice(alphabet) for _ in range(n))


def mutate(rng, text, rate, alphabet):
    """Substitute each letter with probability rate by a different one."""
    return "".join(rng.choice(alphabet.replace(ch, ""))
                   if rng.random() < rate else ch for ch in text)


def test_large_strings_against_bitparallel_oracle():
    rng = random.Random(41)
    half = uniform(rng, 500, "ACGT")
    strings = [
        uniform(rng, 1000, "AB"),
        uniform(rng, 1200, "ACGT"),
        uniform(rng, 1500, "ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
        "A" * 1000,
        mutate(rng, "ACGT" * 300, 0.1, "ACGT"),
        half + half[::-1],
    ]
    for f in strings:
        res = compute_ltss(f)
        assert (res.length, res.split_index) == bitparallel_ltss(f)
        assert validate_tandem(f, res)


def test_every_split_length_at_thousands_of_letters():
    # a comparator per levels class, stepped as _scan steps its own, holds
    # the common-subsequence length of every split, not just the best one
    rng = random.Random(53)
    strings = [uniform(rng, 2000, alphabet) for alphabet in
               ("AB", "ACGT", "ACDEFGHIKLMNPQRSTVWY")]
    strings.append(uniform(rng, 3000, "ACGT"))
    for f in strings:
        expected = split_lengths(f)
        for levels in (ThresholdLevels, UncountedLevels):
            comp = Comparator(f)
            comp.ts = levels()
            got = [comp.lcss_length]
            for letter in f:
                comp.drop_front_of_s()
                comp.append_to_p(letter)
                got.append(comp.lcss_length)
            assert got == expected, (len(f), levels.__name__)


def test_stats_match_stepping_reference_at_thousands_of_letters():
    # every RunStats field but elapsed, against a scan whose comparator
    # drives the cascade that steps one level at a time and tallies its
    # own transfers, at sigma 4 and 20
    rng = random.Random(47)
    for alphabet in ("ACGT", "ACDEFGHIKLMNPQRSTVWY"):
        f = uniform(rng, 2000, alphabet)
        assert dataclasses.replace(ltss_stats(f), elapsed=0.0) == \
            reference_run_stats(f)


def test_replay_split_reaches_scan_state():
    comp = replay_split(GOLDEN, 5)
    assert comp.lcss_length == 4
    assert comp.front == 5
    assert comp.p_len == 5


def scan_replay(f, split):
    """Reference: the scan's interleaved drops and appends up to split,
    extract-mins included."""
    comp = Comparator(f)
    for t in range(1, split + 1):
        comp.drop_front_of_s()
        comp.append_to_p(f[t - 1])
    return comp


def witness_list(comp, limit):
    return (list(itertools.islice(comp.witnesses(), limit))
            if comp.lcss_length else [])


def as_tandem(f, pairs):
    first = [p for p, _ in pairs]
    return "".join(f[p - 1] for p in first), first, [s for _, s in pairs]


def check_replay(f, split, limit):
    comp = replay_split(f, split)
    ref = scan_replay(f, split)
    assert (comp.front, comp.p_len) == (ref.front, ref.p_len) == (split, split)
    assert comp.lcss_length == ref.lcss_length
    expected = witness_list(ref, limit)
    assert witness_list(comp, limit) == expected
    # a split with no common letter has the one empty tandem
    tandems = [as_tandem(f, pairs) for pairs in expected] or [("", [], [])]
    assert list(itertools.islice(split_tandems(f, split), limit)) == tandems
    stats = comp.ts.stats
    assert stats.extract_min_calls == 0
    before, after = Counter(f[:split]), Counter(f[split:])
    assert stats.append_calls == sum(before[c] * after[c] for c in before)


def test_replay_split_matches_scan_interleaving_exhaustive():
    for n in range(1, 11):
        for bits in itertools.product("AB", repeat=n):
            f = "".join(bits)
            for split in range(n + 1):
                check_replay(f, split, 2000)


def test_replay_split_matches_scan_interleaving_random():
    rng = random.Random(17)
    strings = []
    for sigma in ("AB", "ACGT", "ACDEFGHIKLMNPQRSTVWY"):
        for _ in range(2):
            n = rng.randint(2, 300)
            strings.append("".join(rng.choice(sigma) for _ in range(n)))
            half = "".join(rng.choice(sigma) for _ in range(n // 2))
            strings.append(half + half[::-1])
            strings.append(half + "".join(
                rng.choice(sigma) if rng.random() < 0.1 else ch for ch in half))
    for f in strings:
        splits = {compute_ltss(f).split_index}
        splits.update(rng.randint(1, len(f) - 1) for _ in range(2))
        for split in splits:
            check_replay(f, split, 500)


def test_split_tandems_follow_scan_enumeration():
    rng = random.Random(29)
    for _ in range(20):
        f = "".join(rng.choice("ACGT") for _ in range(rng.randint(2, 120)))
        res = compute_ltss(f)
        if not res.length:
            continue
        expected = [as_tandem(f, pairs) for pairs in
                    itertools.islice(
                        scan_replay(f, res.split_index).witnesses(), 300)]
        got = list(itertools.islice(split_tandems(f, res.split_index), 300))
        assert got == expected
        assert got[0] == (res.witness, res.first_occurrence,
                          res.second_occurrence)


def test_split_tandems_single_letter_witnesses():
    # a one-position witness takes its letter through a single-key lookup
    assert list(split_tandems("AA", 1)) == [("A", [1], [2])]
    assert list(split_tandems("ABBA", 2)) == [("A", [1], [4]),
                                              ("B", [2], [3])]
    assert compute_ltss("AA") == LtssResult(1, 1, "A", [1], [2])


def test_split_tandems_zero_length_splits():
    # the empty prefix, the empty suffix, and a split with no common letter
    for f, split in (("AB", 1), ("ABAB", 0), ("ABAB", 4)):
        assert list(split_tandems(f, split)) == [("", [], [])]


def test_split_tandems_builds_no_comparator(monkeypatch):
    # the tandems of a split come from one positional build; the scan's
    # comparator is the only one a tandem request constructs
    built = []
    real = string_compare.Comparator.__init__

    def counting(self, s):
        built.append(s)
        real(self, s)

    monkeypatch.setattr(string_compare.Comparator, "__init__", counting)
    for split in range(1, len(GOLDEN)):
        assert next(split_tandems(GOLDEN, split))[0]
    assert built == []
    assert compute_ltss(GOLDEN).witness == "AGGA"
    assert compute_ltss("ABCDEFG").length == 0
    assert built == [GOLDEN, "ABCDEFG"]


def test_split_out_of_range_is_rejected(monkeypatch):
    # split -1 would pair f[:-1] with all of f, and a split past the end
    # would drop letters until the suffix ran out
    built = []

    class Counting(Comparator):
        __slots__ = ()

        def __init__(self, s):
            built.append(s)
            super().__init__(s)

    monkeypatch.setattr(tandem, "Comparator", Counting)
    for split in (-4, -1, 5, 7):
        with pytest.raises(ValueError, match="split %d outside 0..4" % split):
            replay_split("ABAB", split)
        with pytest.raises(ValueError, match="split %d outside" % split):
            next(split_tandems("ABAB", split))
    assert built == []
    # both ends stay in range: an empty prefix and an empty suffix
    for split in (0, 4):
        comp = replay_split("ABAB", split)
        assert (comp.front, comp.p_len, comp.lcss_length) == (split, split, 0)
    assert list(split_tandems("ABAB", 2)) == [("AB", [1, 2], [3, 4])]
    # only the two direct replay_split calls build a comparator
    assert built == ["ABAB"] * 2


def test_compute_ltss_accepts_str_only(monkeypatch):
    def no_scan(f):
        raise AssertionError("scanned a rejected input")
    monkeypatch.setattr(tandem, "_scan", no_scan)
    # a list of multi-letter tokens would join into a witness that is not
    # a subsequence of anything; a tuple of ints cannot be joined at all
    for f in (["ab", "cd", "ab", "cd"], (1, 2, 1, 2)):
        with pytest.raises(TypeError):
            compute_ltss(f)


def test_ltss_stats_scans_any_hashable_sequence():
    st = ltss_stats((1, 2, 1, 2))
    assert (st.n, st.matches, st.lambda_max) == (4, 2, 2)
    assert ltss_stats(["ab", "cd", "ab", "cd"]).lambda_max == 2


def test_stats_golden():
    start = time.perf_counter()
    st = ltss_stats(GOLDEN)
    wall = time.perf_counter() - start
    # equal-letter pairs: A x4 -> 6, G x5 -> 10, C x2 -> 1, T x1 -> 0
    assert st.matches == 17
    assert st.lambda_max == 4
    assert st.n == 12
    assert st.extract_mins > 0
    assert all(k >= 2 and v > 0 for k, v in st.transfers.items())
    assert st.tree_ops > 0
    assert 0.0 < st.elapsed <= wall


def test_stats_cascade_steps():
    # GOLDEN's seven extracts cut eight levels: transfers 2:8, 3:4, 4:1
    st = ltss_stats(GOLDEN)
    assert st.cascade_steps == 8
    for f in benchmark_shapes().values():
        st = ltss_stats(f)
        assert len(st.transfers) <= st.cascade_steps
        assert st.cascade_steps <= sum(st.transfers.values())
        assert st.cascade_steps <= st.extract_mins * (st.lambda_max - 1)


def test_stats_all_distinct():
    st = ltss_stats("ABCDEFG")
    assert st.matches == 0
    assert st.lambda_max == 0
    assert st.extract_mins == 0
    assert st.transfers == {}


def test_result_carries_its_scan_stats():
    rng = random.Random(11)
    strings = ["", "ABCDEFG", GOLDEN] + [
        "".join(rng.choice("ACGT") for _ in range(rng.randint(20, 120)))
        for _ in range(5)]
    for f in strings:
        carried = dataclasses.replace(compute_ltss(f).stats, elapsed=0.0)
        assert carried == dataclasses.replace(ltss_stats(f), elapsed=0.0)
        assert carried.lambda_max == compute_ltss(f).length


def benchmark_shapes():
    """The first string of every shape in the benchmark corpus at seed 0,
    built the way perfbench/corpus.py builds them."""
    dna, amino = "ACGT", "ACDEFGHIKLMNPQRSTVWY"
    rng = random.Random("dna-scan/0")
    scan = [uniform(rng, 600, dna) for _ in range(10)]
    x = uniform(rng, 300, dna)
    near = x + mutate(rng, x, 0.05, dna)
    protein = uniform(random.Random("protein-cli/0"), 800, amino)
    rng = random.Random("enumerate/0")
    spread = uniform(rng, 400, dna)
    x = uniform(rng, 200, dna)
    periodic = mutate(rng, dna * 100, 0.15, dna)
    return {"dna-uniform": scan[0], "dna-near-tandem": near,
            "dna-single-letter": "A" * 600, "protein-uniform": protein,
            "enumerate-uniform": spread, "enumerate-palindrome": x + x[::-1],
            "enumerate-periodic": periodic}


# (matches, lambda_max, extract_mins, entries moved, first 16 hex digits of
# the sha256 of the sorted transfers items, tree_ops) per shape.  The
# --stats and JSON payloads print the first four counters and the benchmark
# traces tree_ops, so a change to the structure's internals must leave every
# one of them as it is.
SHAPE_COUNTERS = {
    "dna-uniform": (45053, 195, 595, 1036756, "ddfb7a132a1ef640", 836041),
    "dna-near-tandem": (44863, 282, 595, 965027, "25e8ff83863dc56f", 840841),
    "dna-single-letter": (179700, 300, 598, 89401, "63c16ecd2b9ccfbb",
                          2310245),
    "protein-uniform": (15990, 144, 779, 574071, "749fedd9f1e600c7", 418814),
    "enumerate-uniform": (19945, 126, 395, 306153, "35a2ce8256e8aef8",
                          326304),
    "enumerate-palindrome": (19900, 135, 395, 307487, "2aca8aa77e3c17f3",
                             342577),
    "enumerate-periodic": (19877, 158, 395, 276380, "53947571cecd0025",
                           387524),
}


def test_benchmark_shape_counters_golden():
    for name, f in benchmark_shapes().items():
        st = ltss_stats(f)
        transfers = sorted(st.transfers.items())
        digest = hashlib.sha256(repr(transfers).encode()).hexdigest()[:16]
        assert (st.matches, st.lambda_max, st.extract_mins,
                sum(st.transfers.values()), digest,
                st.tree_ops) == SHAPE_COUNTERS[name], name
