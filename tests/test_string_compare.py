"""Comparator tests: the match index goldens, the worked prefix/suffix
session, and randomized interleavings checked against the quadratic DP."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from ltss.dynamic_lis import (ThresholdLevels, ThresholdStructure,
                              positional_levels)
from ltss.oracle import dp_lcss, lcss_length
from ltss.string_compare import Comparator, MatchIndex

S_GOLDEN = "AACGGGTA"


def advance(comp, letters):
    for ch in letters:
        comp.append_to_p(ch)


def test_match_index_golden():
    idx = MatchIndex(S_GOLDEN)
    assert idx.by_letter == {
        "A": [8, 2, 1], "C": [3], "G": [6, 5, 4], "T": [7]}


def test_match_index_live_cursor():
    # each drop pops the dropped position off its own letter's list
    comp = Comparator(S_GOLDEN)
    lists = comp.index.by_letter
    for k in range(1, len(S_GOLDEN) + 1):
        before = {c: list(ps) for c, ps in lists.items()}
        comp.drop_front_of_s()
        dropped = S_GOLDEN[k - 1]
        assert lists[dropped] == before[dropped][:-1]
        assert all(lists[c] == before[c] for c in lists if c != dropped)
        assert lists == {c: [j for j in range(len(S_GOLDEN), k, -1)
                             if S_GOLDEN[j - 1] == c] for c in "ACGT"}


def test_append_to_p_builds_worked_state():
    comp = Comparator(S_GOLDEN)
    advance(comp, "AGCG")
    assert comp.ts.key_lists() == [[8, 2, 1], [6, 5, 4, 3], [6, 5, 4]]
    assert comp.lcss_length == 3
    assert comp.ts.stats.append_calls == 10


def test_append_skips_consumed_positions():
    comp = Comparator(S_GOLDEN)
    comp.drop_front_of_s()
    comp.append_to_p("A")
    assert comp.ts.key_lists() == [[8, 2]]
    assert comp.ts.stats.append_calls == 2


def test_missing_letter_is_a_noop():
    comp = Comparator(S_GOLDEN)
    comp.append_to_p("X")
    assert comp.p_len == 1
    assert comp.lcss_length == 0


def test_drop_front_session_mirrors_worked_example():
    comp = Comparator(S_GOLDEN)
    advance(comp, "AGCG")
    comp.drop_front_of_s()   # position 1 was matched: one extract-min
    assert comp.ts.key_lists() == [[8, 2], [6, 5, 4, 3], [6, 5, 4]]
    comp.append_to_p("A")    # feeds 8 and 2; 2 collapses into its entry
    assert comp.ts.key_lists() == [[8, 2], [6, 5, 4, 3], [6, 5, 4], [8]]
    assert comp.lcss_length == 4
    comp.drop_front_of_s()   # position 2: both stored occurrences go
    assert comp.ts.key_lists() == [[8, 6, 5, 4, 3], [6, 5, 4], [8]]
    assert comp.lcss_length == 3


def test_drop_front_without_match_is_constant_time_noop():
    comp = Comparator("TACGT")
    comp.append_to_p("A")
    assert comp.ts.key_lists() == [[2]]
    comp.drop_front_of_s()   # T at position 1 never fed the structure
    assert comp.ts.key_lists() == [[2]]
    assert comp.ts.stats.extract_min_calls == 0


def test_drop_front_exhausted_error():
    comp = Comparator("AB")
    comp.drop_front_of_s()
    comp.drop_front_of_s()
    with pytest.raises(ValueError):
        comp.drop_front_of_s()


def test_lcss_length_golden():
    comp = Comparator(S_GOLDEN)
    advance(comp, "AGCG")
    assert comp.lcss_length == lcss_length("AGCG", S_GOLDEN) == 3


def test_lcss_empty_prefix():
    assert Comparator(S_GOLDEN).lcss_length == 0


def test_witness_golden_is_valid():
    comp = Comparator(S_GOLDEN)
    advance(comp, "AGCG")
    pairs = comp.witness()
    assert pairs == comp.witness()  # deterministic
    assert len(pairs) == 3
    ps = [i for i, _ in pairs]
    ss = [j for _, j in pairs]
    assert all(a < b for a, b in zip(ps, ps[1:]))
    assert all(a < b for a, b in zip(ss, ss[1:]))
    assert all("AGCG"[i - 1] == S_GOLDEN[j - 1] for i, j in pairs)


def test_witness_single_pair():
    comp = Comparator("A")
    comp.append_to_p("A")
    assert comp.witness() == [(1, 1)]


def test_witness_empty_error():
    comp = Comparator(S_GOLDEN)
    with pytest.raises(ValueError):
        comp.witness()


def test_witnesses_enumerates_distinct_pairings():
    comp = Comparator(S_GOLDEN)
    advance(comp, "AGCG")
    all_pairs = [tuple(w) for w in comp.witnesses()]
    assert len(all_pairs) == len(set(all_pairs))
    assert all(len(w) == 3 for w in all_pairs)


def test_random_interleavings_match_dp():
    rng = random.Random(97)
    for _ in range(120):
        n = rng.randint(1, 24)
        sigma = rng.choice(["AB", "ABC", "ABCD"])
        s = "".join(rng.choice(sigma) for _ in range(n))
        comp = Comparator(s)
        p = []
        front = 0
        for _ in range(rng.randint(1, 2 * n)):
            if front < n and rng.random() < 0.4:
                comp.drop_front_of_s()
                front += 1
            else:
                ch = rng.choice(sigma + "Z")
                comp.append_to_p(ch)
                p.append(ch)
            expected = lcss_length("".join(p), s[front:])
            assert comp.lcss_length == expected
        if comp.lcss_length:
            pairs = comp.witness()
            assert len(pairs) == comp.lcss_length
            ps = [i for i, _ in pairs]
            ss = [j for _, j in pairs]
            assert all(a < b for a, b in zip(ps, ps[1:]))
            assert all(a < b for a, b in zip(ss, ss[1:]))
            assert all(p[i - 1] == s[j - 1] for i, j in pairs)
            assert all(j > front for j in ss)


def test_match_runs_build_the_threshold_levels():
    # MatchIndex.levels feeds each prefix letter's live list as one run;
    # the same matches fed as runs of one under the same tags build the
    # same levels, one per LCS letter, and each level's distinct values
    # are the keys that extend() keeps for the same runs
    rng = random.Random(41)
    for sigma in (1, 2, 4, 20):
        alphabet = "ACDEFGHIKLMNPQRSTVWY"[:sigma]
        for _ in range(60):
            p, s = ("".join(rng.choice(alphabet)
                            for _ in range(rng.randint(0, 40)))
                    for _ in range(2))
            index = MatchIndex(s)
            runs = [(i, index.by_letter.get(letter, ()))
                    for i, letter in enumerate(p, 1)]
            levels = positional_levels(runs)
            assert index.levels(p) == levels
            assert positional_levels((i, (j,)) for i, run in runs
                                     for j in run) == levels
            assert len(levels) == lcss_length(p, s)
            keys = ThresholdLevels()
            for _, run in runs:
                keys.extend(run)
            assert [list(dict.fromkeys(values))
                    for values, _ in levels] == keys.key_lists()


class ComparatorMachine(RuleBasedStateMachine):
    """Interleaved prefix appends (letters of S and an absent letter),
    front drops and enumerations against the quadratic DP.  After every
    step the match lists hold exactly the positions still in the suffix,
    and the witnesses are distinct maximal pairings, listed in the
    enumeration order of a shadow ThresholdStructure fed the same runs
    and extracts: an owner table kept here (one prefix index per shadow
    position) is the reference mapping."""

    @initialize(s=st.text(alphabet="ABC", min_size=1, max_size=12))
    def start(self, s):
        self.s = s
        self.p = ""
        self.front = 0
        self.comp = Comparator(s)
        self.shadow = ThresholdStructure()
        self.owner = [None]   # shadow position -> prefix index

    @rule(letter=st.sampled_from("ABCZ"))
    def append_to_p(self, letter):
        before = self.shadow.position_counter
        self.shadow.extend(list(self.comp.index.by_letter.get(letter, ())))
        self.comp.append_to_p(letter)
        self.p += letter
        fed = self.shadow.position_counter - before
        self.owner += [len(self.p)] * fed

    @rule()
    def drop_front_of_s(self):
        if self.front == len(self.s):
            with pytest.raises(ValueError):
                self.comp.drop_front_of_s()
            return
        extracts = self.comp.ts.stats.extract_min_calls
        self.comp.drop_front_of_s()
        self.front += 1
        if self.comp.ts.stats.extract_min_calls > extracts:
            self.shadow.extract_min()

    @rule(limit=st.integers(1, 50))
    def witnesses(self, limit):
        self._check_witnesses(limit)

    def _check_witnesses(self, limit):
        length = self.comp.lcss_length
        if not length:
            with pytest.raises(ValueError):
                self.comp.witness()
            return
        got = [tuple(w) for w in self.comp.witnesses(limit)]
        assert got == [tuple((self.owner[pos], value) for value, pos in seq)
                       for seq in self.shadow.all_lis(limit)]
        assert 1 <= len(got) <= limit
        assert len(set(got)) == len(got)
        for pairs in got:
            assert len(pairs) == length
            assert all(a[0] < b[0] and a[1] < b[1]
                       for a, b in zip(pairs, pairs[1:]))
            assert all(self.p[i - 1] == self.s[j - 1] for i, j in pairs)
            assert all(j > self.front for _, j in pairs)

    @invariant()
    def matches_oracle(self):
        s, front = self.s, self.front
        assert self.comp.lcss_length == lcss_length(self.p, s[front:])
        assert self.comp.ts.key_lists() == self.shadow.key_lists()
        assert self.comp.index.by_letter == {
            c: [j for j in range(len(s), front, -1) if s[j - 1] == c]
            for c in set(s)}
        self._check_witnesses(5)


ComparatorMachine.TestCase.settings = settings(
    derandomize=True, max_examples=150, stateful_step_count=30, deadline=None)
test_comparator_machine = ComparatorMachine.TestCase
