"""End-to-end tandem search tests: the golden example, degenerate inputs,
exhaustive small-alphabet agreement with the cubic oracle, agreement with
the bit-parallel oracle at thousands of letters, witness recovery against
the scan's own interleaving, the input contract, and stats."""

import dataclasses
import functools
import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from ltss import string_compare, tandem
from ltss.dynamic_lis import (ThresholdLevels, ThresholdStructure,
                              UncountedLevels)
from ltss.oracle import (bitparallel_ltss, count_lcs_chains, dp_lcss,
                         naive_ltss, split_lengths, validate_tandem)
from ltss.string_compare import Comparator
from ltss.tandem import (LtssResult, compute_ltss, ltss_stats, replay_split,
                         split_tandems)

from helpers import benchmark_shapes, reference_run_stats

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


def large_shapes():
    """Six shapes of 1000 to 1500 letters: uniform at sigma 2, 4 and 26,
    one letter, a mutated period and a palindrome."""
    rng = random.Random(41)
    half = uniform(rng, 500, "ACGT")
    return [
        uniform(rng, 1000, "AB"),
        uniform(rng, 1200, "ACGT"),
        uniform(rng, 1500, "ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
        "A" * 1000,
        mutate(rng, "ACGT" * 300, 0.1, "ACGT"),
        half + half[::-1],
    ]


def thousands_of_letters():
    """2000 letters at sigma 2, 4 and 20, then 3000 at sigma 4."""
    rng = random.Random(53)
    strings = [uniform(rng, 2000, alphabet) for alphabet in
               ("AB", "ACGT", "ACDEFGHIKLMNPQRSTVWY")]
    strings.append(uniform(rng, 3000, "ACGT"))
    return strings


@functools.cache
def cached_split_lengths(f):
    """split_lengths(f), computed once per string for the tests that share
    it; no caller changes the list."""
    return split_lengths(f)


def test_large_strings_against_bitparallel_oracle():
    for f in large_shapes():
        res = compute_ltss(f)
        assert (res.length, res.split_index) == bitparallel_ltss(f)
        assert validate_tandem(f, res)


def same_scan_answer(f):
    return (tandem._scan(f, counted=False)[:2]
            == tandem._scan(f, counted=True)[:2])


def test_uncounted_scan_answers_as_counted_exhaustive():
    # criterion 4's ranges: every binary string up to 12 letters and every
    # ternary one up to 9
    for alphabet, max_n in (("AB", 12), ("ABC", 9)):
        for n in range(max_n + 1):
            for letters in itertools.product(alphabet, repeat=n):
                assert same_scan_answer("".join(letters)), letters


def test_uncounted_scan_answers_as_counted_on_shapes():
    rng = random.Random(61)
    strings = [uniform(rng, rng.randint(1, 300), alphabet)
               for alphabet in ("A", "AB", "ACGT", "ACDEFGHIKLMNPQRSTVWY")
               for _ in range(15)]
    # the large and benchmark shapes are in test_window_is_sound_at_scale
    for f in strings:
        assert same_scan_answer(f), f
    # any hashable sequence: a list of ints
    ints = [rng.randint(1, 5) for _ in range(200)]
    assert same_scan_answer(ints)
    assert tandem._scan(ints, counted=False)[:2] == bitparallel_ltss(ints)


def test_split_length_matches_oracle_at_every_split():
    # a pass anchored at a yields LCS(f[:t], f[a:]) for t = a, ..., n; row
    # t of dp_lcss(f, f[a:]) ends in that length, as lcss_length(f[:t],
    # f[a:]) reads it, so one table per anchor covers every t; its first
    # value, at t = a, is the split length L(a).  A chain keeps the masks
    # of f[base:]: a pass anchored below base builds them from its anchor,
    # one above shifts them, so falling anchors build on every call and
    # rising ones once; a fresh chain's first pass is the floor's
    rng = random.Random(67)
    strings = ["", "A", "Z", "ABCDEFG", "GFEDCBA"] + [
        uniform(rng, rng.randint(0, 60),
                rng.choice(("AB", "ACGT", "ABCDEFGH")))
        for _ in range(60)]
    strings.append([rng.randint(1, 5) for _ in range(40)])
    for f in strings:
        n = len(f)
        expected = [[row[-1] for row in dp_lcss(f, f[a:])[a:]]
                    for a in range(n + 1)]
        falling = tandem._Chain(f, None, 0)
        for a in range(n, -1, -1):
            assert list(falling.lengths(a)) == expected[a], (f, a)
            assert falling.base == a
        rising = tandem._Chain(f, None, 0)
        for a in range(n + 1):
            assert list(rising.lengths(a)) == expected[a], (f, a)
            assert rising.base == 0
        assert [next(tandem._Chain(f, None, 0).lengths(t))
                for t in range(n + 1)] == split_lengths(f), f


def carve_reference(f, bounds, floor, a, skipped, stop):
    """The first split from a on, stop at the most, with B >= floor that
    the chain of anchored passes keeps, with the anchored bound
    LCS(f[:t], f[a:]) read off the DP oracle's table: a pass anchored at
    a ends at the first t >= a where that bound and B(t) both reach floor
    (at n if none does), and the next pass runs while k a (n - a) exceeds
    64 n^3 over the sum of squared letter counts, k being the splits the
    last pass skipped (skipped at first)."""
    n = len(f)
    squares = sum(c * c for c in Counter(f).values())
    limit = tandem._PASS_COST * n ** 3 // max(1, squares)
    a = next((t for t in range(a, stop) if bounds[t] >= floor), stop)
    while a < stop and skipped * a * (n - a) > limit:
        anchored = [row[-1] for row in dp_lcss(f, f[a:])]
        t = next((t for t in range(a, n + 1)
                  if anchored[t] >= floor and bounds[t] >= floor), n)
        if t == a:
            break
        a, skipped = min(t, stop), t - a
    return a


def bounds_and_floor(f):
    """B(t) for t = 0, ..., n from each side's letter counts, and the
    floor F, the bit-parallel oracle's L at B's earliest maximum."""
    bounds = [sum((Counter(f[:t]) & Counter(f[t:])).values())
              for t in range(len(f) + 1)]
    return bounds, split_lengths(f)[bounds.index(max(bounds))]


def window_reference(f, carved):
    """(first, last) of the uncounted scan's window on at least one
    letter, from the definitions: B(t) and F from bounds_and_floor.
    Uncarved, the window is the letter-count one, from the first to the
    last split whose B(t) >= F, within [1, n - 1].  Carved, it is the
    window the scan starts with: from carve_reference's split, carving
    from split 1, to n - 1, as only a new best length moves the end."""
    n = len(f)
    bounds, floor = bounds_and_floor(f)
    if carved:
        return carve_reference(f, bounds, floor, 1, floor, n), n - 1
    first = next(t for t in range(n + 1) if bounds[t] >= floor)
    last = max(t for t in range(n + 1) if bounds[t] >= floor)
    return max(first, 1), min(last, n - 1)


def stop_reference(f):
    """The split where the uncounted scan stops, from the definitions: it
    steps the carved window's splits in order from its start, L(t) from
    the bit-parallel oracle, and the end, n - 1 at first, moves only when
    a new best length lam >= F carries the reversed carve on from it with
    floor lam + 1, its first pass skipping lam + 1 splits or the last - t
    left if fewer, and stopping at split t at the earliest."""
    n = len(f)
    bounds, floor = bounds_and_floor(f)
    lengths = split_lengths(f)
    t, last = window_reference(f, True)
    best = 0
    while t <= last:
        if lengths[t] > best:
            best = lengths[t]
            if best >= floor:
                last = n - carve_reference(f[::-1], bounds[::-1], best + 1,
                                           n - last, min(best + 1, last - t),
                                           n - t)
        t += 1
    return last


def uncounted_stop(f):
    """The uncounted scan's (length, split) of f, and the split where it
    stopped: the scan drops one suffix letter per split it reaches."""
    drops = 0
    real_drop = Comparator.drop_front_of_s

    def drop(self):
        nonlocal drops
        drops += 1
        real_drop(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Comparator, "drop_front_of_s", drop)
        answer = tandem._scan(f, counted=False)[:2]
    return answer, drops


@functools.cache
def recarved_at_sigma_256():
    """2500 letters at sigma 256: the best length passes F 6 times, and the
    re-carves' anchored passes pull the window's end from n - 1 to
    0.50 n."""
    return uniform(random.Random(89), 2500,
                   "".join(map(chr, range(0x100, 0x200))))


def window_of(f):
    w = tandem._Window(f)
    return w.first, w.last


def test_window_matches_its_definition():
    # the window starts at the carved first split and ends at n - 1, and
    # the scan stops where the re-carves on each new best length put the
    # end; the empty string, whose end is -1, steps no split at all
    rng = random.Random(73)
    strings = [uniform(rng, rng.randint(2, 50),
                       rng.choice(("A", "AB", "ABC", "ACGT", "ABCDEFGH")))
               for _ in range(200)]
    carved = 0
    for f in strings + ["A", "AB", "ABCDEFG"]:
        window = window_reference(f, True)
        assert window_of(f) == window, f
        assert uncounted_stop(f) == (bitparallel_ltss(f), stop_reference(f)), f
        carved += window[0] != window_reference(f, False)[0]
    # the passes move the start of 11 of these windows
    assert carved >= 10
    # with no repeated letter the floor is 0, and the window is the full
    # scan's [1, n - 1]
    assert window_of("ABCDEFG") == window_reference("ABCDEFG", True) \
        == (1, 6)


def test_uncounted_scan_steps_only_the_window(monkeypatch):
    # the uncounted scan reaches split first - 1 by drops and appends alone,
    # with no extract, then steps up to the split where the re-carves on
    # each new best length stop it; the counted scan steps every split
    f = uniform(random.Random(71), 600, "ACGT")
    n = len(f)
    first = window_reference(f, True)[0]
    stop = stop_reference(f)
    # the anchored passes move the start of the letter-count window in,
    # and the best length, passing F twice, pulls the end in from n - 1
    # to inside it
    b_first, b_last = window_reference(f, False)
    assert (b_first, b_last) == (194, 406)
    assert b_first < first < stop < b_last
    events = []
    real_drop = Comparator.drop_front_of_s
    real_append = Comparator.append_to_p

    def drop(self):
        events.append("d")
        real_drop(self)

    def append(self, letter):
        events.append("a")
        real_append(self, letter)

    monkeypatch.setattr(Comparator, "drop_front_of_s", drop)
    monkeypatch.setattr(Comparator, "append_to_p", append)
    for cls in (UncountedLevels, ThresholdLevels):
        real_extract = cls.extract_min

        def extract(self, real_extract=real_extract):
            events.append("x")
            real_extract(self)
        monkeypatch.setattr(cls, "extract_min", extract)

    def scan(counted):
        events.clear()
        answer = tandem._scan(f, counted)[:2]
        first_extract = events[:events.index("x")].count("d")
        return answer, events.count("d"), events.index("a"), first_extract

    answer, drops, skipped, first_extract = scan(False)
    assert answer == bitparallel_ltss(f)
    assert (skipped, drops) == (first - 1, stop)
    assert first_extract >= first
    answer, drops, skipped, first_extract = scan(True)
    assert answer == bitparallel_ltss(f)
    assert (skipped, drops) == (1, n - 1)
    # the interleaved scan extracts before the window's first split
    assert first_extract < first


def test_window_is_sound_at_scale():
    # every split outside the window, from its carved start to n - 1, has
    # L(t) < F, the floor the passes carve to, so none can win or tie; no
    # split after the one where the uncounted scan stops beats the best
    # length it saw; and the uncounted scan, the counted scan and the
    # bit-parallel oracle agree on (length, split).  sigma 2, 4 and 20 at
    # n = 2000 are the strings whose every split length
    # test_every_split_length_at_thousands_of_letters checks
    rng = random.Random(83)
    strings = thousands_of_letters()[:3] + [
        uniform(rng, n, "".join(map(chr, range(0x100, 0x100 + sigma))))
        for sigma in (2, 4, 20, 64, 256) for n in (1000, 2000)
        if n == 1000 or sigma > 20]
    strings += large_shapes() + list(benchmark_shapes().values())
    strings.append(recarved_at_sigma_256())
    for f in strings:
        n = len(f)
        lengths = cached_split_lengths(f)
        best = max(lengths)
        # bitparallel_ltss(f) is the earliest longest of split_lengths(f)
        answer = best, lengths.index(best)
        left, right = Counter(), Counter(f)
        bounds = []
        for letter in f:
            bounds.append(sum((left & right).values()))
            left[letter] += 1
            right[letter] -= 1
        bounds.append(0)
        floor = lengths[bounds.index(max(bounds))]
        first, last = window_of(f)
        assert 0 < floor and first <= last
        assert all(lengths[t] < floor for t in itertools.chain(
            range(first), range(last + 1, n + 1))), n
        scanned, stop = uncounted_stop(f)
        assert scanned == answer
        assert answer[1] <= stop <= last
        assert all(lengths[t] <= best for t in range(stop + 1, n + 1)), n
        assert tandem._scan(f, counted=True)[:2] == answer


def test_window_end_closes_in_as_the_best_rises(monkeypatch):
    # window.narrow runs once per new best length lam >= F and only then;
    # it runs anchored passes only where they pay
    calls = []
    real_narrow = tandem._Window.narrow
    real_lengths = tandem._Chain.lengths

    def narrow(self, best, t):
        calls.append([best, self.last, None, 0])
        real_narrow(self, best, t)
        calls[-1][2] = self.last

    def lengths(chain, anchor):
        if calls:
            calls[-1][-1] += 1
        return real_lengths(chain, anchor)

    monkeypatch.setattr(tandem._Window, "narrow", narrow)
    monkeypatch.setattr(tandem._Chain, "lengths", lengths)
    # no letter repeats: F = 0, the best length never rises and the scan
    # steps every split
    assert uncounted_stop("ABCDEFG") == ((0, 0), 6)
    assert calls == []
    # the best length reaches F, 66, at split 101 and never passes it: the
    # one call, with floor F + 1, runs two passes and pulls the end in
    # from n - 1 to the winning split
    f = uniform(random.Random(13), 200, "ACGT")
    floor = tandem._Window(f).floor
    assert bitparallel_ltss(f) == (floor, 101) == (66, 101)
    assert uncounted_stop(f) == ((66, 101), 101)
    assert calls == [[66, 199, 101, 2]]
    assert stop_reference(f) == 101
    # at sigma 256 the best length passes F six times, and the re-carves'
    # passes pull the end in from n - 1 to 1337 on the first call and to
    # 1247, the winning split's neighbourhood, by the last: the ends and
    # pass counts that carve_reference gives from the DP oracle's bounds;
    # test_window_is_sound_at_scale checks the splits left
    calls.clear()
    f = recarved_at_sigma_256()
    floor = tandem._Window(f).floor
    answer, stop = uncounted_stop(f)
    lengths = cached_split_lengths(f)
    assert answer == (max(lengths), lengths.index(max(lengths)))
    assert [best for best, _, _, _ in calls] == list(range(floor,
                                                           answer[0] + 1))
    assert stop == 1247
    assert calls == [[142, 2499, 1337, 10], [143, 1337, 1325, 1],
                     [144, 1325, 1324, 1], [145, 1324, 1320, 1],
                     [146, 1320, 1272, 2], [147, 1272, 1247, 2],
                     [148, 1247, 1247, 0]]
    assert all(before >= after for _, before, after, _ in calls)
    assert sum(passes for _, _, _, passes in calls) > 0


def test_every_split_length_at_thousands_of_letters():
    # a comparator, stepped as _scan steps its own, holds the
    # common-subsequence length of every split, not just the best one; it
    # steps UncountedLevels alone, which
    # test_uncounted_levels_lockstep_with_counted holds to ThresholdLevels
    # key-for-key after every operation
    for f in thousands_of_letters() + large_shapes():
        expected = cached_split_lengths(f)
        comp = Comparator(f, UncountedLevels())
        got = [comp.lcss_length]
        for letter in f:
            comp.drop_front_of_s()
            comp.append_to_p(letter)
            got.append(comp.lcss_length)
        assert got == expected, len(f)


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
    assert len(comp.p_letters) == 5


def scan_replay(f, split):
    """Reference: the scan's interleaved drops and appends up to split,
    extract-mins included."""
    comp = Comparator(f, ThresholdLevels())
    for t in range(1, split + 1):
        comp.drop_front_of_s()
        comp.append_to_p(f[t - 1])
    return comp


def witness_list(comp, limit):
    return list(itertools.islice(comp.witnesses(), limit))


def as_tandem(f, pairs):
    first = [p for p, _ in pairs]
    return "".join(f[p - 1] for p in first), first, [s for _, s in pairs]


def check_replay(f, split, limit):
    comp = replay_split(f, split)
    ref = scan_replay(f, split)
    assert (comp.front, len(comp.p_letters)) == \
        (ref.front, len(ref.p_letters)) == (split, split)
    assert comp.lcss_length == ref.lcss_length
    expected = witness_list(ref, limit)
    assert witness_list(comp, limit) == expected
    # a split with no common letter has the one empty tandem
    tandems = [as_tandem(f, pairs) for pairs in expected]
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
        expected = [as_tandem(f, pairs) for pairs in
                    itertools.islice(
                        scan_replay(f, res.split_index).witnesses(), 300)]
        got = list(itertools.islice(split_tandems(f, res.split_index), 300))
        assert got == expected
        assert got[0] == (res.witness, res.first_occurrence,
                          res.second_occurrence)


def full_walk_count(f):
    """Walk split_tandems in full at compute_ltss's split, and return its
    item count: the count of maximum-length chains of match pairs of
    f[:split] over f[split:] that oracle.count_lcs_chains gives, no
    occurrence pair twice, every item a valid tandem, the first the
    reported witness."""
    res = compute_ltss(f)
    split = res.split_index
    items = [LtssResult(res.length, split, *item)
             for item in split_tandems(f, split)]
    assert len(items) == count_lcs_chains(f[:split], f[split:]), f
    assert len({(tuple(item.first_occurrence), tuple(item.second_occurrence))
                for item in items}) == len(items), f
    assert all(validate_tandem(f, item) for item in items), f
    assert items[0] == res, f
    return len(items)


def test_split_walks_are_complete():
    # a full walk at the winning split lists every maximal tandem there
    # exactly once: on every binary string up to 10 letters, and on
    # near-tandem x + mutate(x) strings of 600 to 2000 letters
    for n in range(11):
        for letters in itertools.product("AB", repeat=n):
            full_walk_count("".join(letters))
    rng = random.Random(97)
    counts = []
    for n in (600, 1000, 2000):
        x = uniform(rng, n // 2, "ACGT")
        counts.append(full_walk_count(x + mutate(rng, x, 0.01, "ACGT")))
    assert counts == [6, 24, 96]


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


def test_empty_cases_enumerate_one_empty_item():
    # with nothing to match, every enumerator yields the one empty answer,
    # once, through the same path as any other answer
    assert [(r, tags[:], values[:]) for r, tags, values in
            tandem.walk_lis([])] == [(0, [], [])]
    ts = ThresholdStructure()
    assert list(ts.all_lis()) == [()]
    ts.append(4)
    ts.extract_min()
    assert list(ts.all_lis()) == [()]
    comp = Comparator("XY", UncountedLevels())
    comp.append_to_p("A")
    assert list(comp.witnesses()) == [[]]
    for f, split in (("AB", 1), ("ABAB", 0), ("ABAB", 4)):
        assert list(replay_split(f, split).witnesses()) == [[]]
        assert list(split_tandems(f, split)) == [("", [], [])]


def test_split_tandems_builds_no_comparator(monkeypatch):
    # the tandems of a split come from one positional build; the scan's
    # comparator is the only one a tandem request constructs
    built = []
    real = string_compare.Comparator.__init__

    def counting(self, s, ts):
        built.append(s)
        real(self, s, ts)

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

        def __init__(self, s, ts):
            built.append(s)
            super().__init__(s, ts)

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
        assert (comp.front, len(comp.p_letters), comp.lcss_length) == \
            (split, split, 0)
    assert list(split_tandems("ABAB", 2)) == [("AB", [1, 2], [3, 4])]
    # only the two direct replay_split calls build a comparator
    assert built == ["ABAB"] * 2


def test_compute_ltss_accepts_str_only(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a rejected input")
    monkeypatch.setattr(tandem, "_scan", no_scan)
    # a list of multi-letter tokens would join into a witness that is not
    # a subsequence of anything; a tuple of ints cannot be joined at all
    for f in (["ab", "cd", "ab", "cd"], (1, 2, 1, 2)):
        with pytest.raises(TypeError, match="expects a str"):
            compute_ltss(f)


def test_split_tandems_accepts_str_only(monkeypatch):
    # a list or a tuple would get as far as the split's positional levels
    # and fail only when joining the witness; no index is built for it
    def no_index(*args, **kwargs):
        raise AssertionError("indexed a rejected input")
    monkeypatch.setattr(tandem, "MatchIndex", no_index)
    for f, name in (([1, 2, 1, 2], "list"), ((1, 2, 1, 2), "tuple")):
        with pytest.raises(TypeError, match="^split_tandems expects a str, "
                                            "got %s$" % name):
            next(split_tandems(f, 2))


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
        # a scan that counts nothing gives the same answer and no stats
        res = compute_ltss(f)
        assert tandem._scan(f, counted=False) == \
            (res.length, res.split_index, None)


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
