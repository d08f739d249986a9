"""Checks for the brute-force references themselves: table goldens, hand
cases, and cross-agreement between the independent implementations."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltss.oracle import (bitparallel_ltss, count_lcs_chains, count_lis,
                         dp_lcss, lcss_length, naive_all_lis, naive_lis,
                         naive_ltss, patience_lis, split_lengths,
                         threshold_stacks, validate_tandem)
from ltss.tandem import LtssResult

from helpers import WORKED_STREAM

short_text = st.text(alphabet="AB", max_size=12)


def test_dp_table_golden():
    d = dp_lcss("AGCG", "AACGGGTA")
    assert d[4][3] == 2
    assert d[4][8] == 3
    assert d[0] == [0] * 9
    assert all(row[0] == 0 for row in d)


@settings(max_examples=150)
@given(short_text, short_text)
def test_dp_properties(p, s):
    d = dp_lcss(p, s)
    assert lcss_length(p, s) == lcss_length(s, p)
    for i in range(1, len(p) + 1):
        for j in range(1, len(s) + 1):
            assert d[i][j] in (d[i - 1][j], d[i - 1][j] + 1)
            assert d[i][j] in (d[i][j - 1], d[i][j - 1] + 1)


def test_naive_lis_examples():
    assert naive_lis(WORKED_STREAM) == 3
    assert naive_lis([8, 2, 6, 5, 4, 3, 6, 5, 4, 8, 2]) == 4
    assert naive_lis([]) == 0
    assert naive_lis([3, 3, 3]) == 1
    assert naive_lis([1, 2, 3]) == 3


@settings(max_examples=300)
@given(st.lists(st.integers(1, 30), max_size=25))
def test_naive_and_patience_lis_agree(values):
    assert naive_lis(values) == patience_lis(values)


def test_threshold_stacks_golden():
    assert threshold_stacks(WORKED_STREAM) == [
        [8, 2, 1], [6, 5, 4, 3], [6, 5, 4]]
    assert threshold_stacks([]) == []


def test_naive_all_lis_hand_cases():
    assert naive_all_lis([]) == set()
    assert naive_all_lis([1]) == {(1,)}
    assert naive_all_lis([3, 3, 3]) == {(1,), (2,), (3,)}
    assert naive_all_lis([2, 1]) == {(1,), (2,)}
    assert naive_all_lis([1, 2]) == {(1, 2)}
    assert len(naive_all_lis([8, 2, 6, 5, 4, 3, 6, 5, 4, 8, 2])) == 6


def test_naive_all_lis_guard():
    with pytest.raises(ValueError):
        naive_all_lis([1] * 21)


def lcs_chains_by_search(p, s):
    """The maximum-length chains of match pairs of p and s, counted by a
    depth-first search over every chain that strictly rises in both;
    the empty chain when no letter matches."""
    target = lcss_length(p, s)

    def chains(i, j, depth):
        if depth == target:
            return 1
        return sum(chains(k, m, depth + 1) for k in range(i + 1, len(p))
                   for m in range(j + 1, len(s)) if p[k] == s[m])

    return chains(-1, -1, 0)


def test_count_lcs_chains_hand_cases():
    assert count_lcs_chains("", "") == count_lcs_chains("AB", "CD") == 1
    assert count_lcs_chains("AA", "A") == 2
    assert count_lcs_chains("AB", "BA") == 2
    assert count_lcs_chains("ABAB", "ABAB") == 1
    assert count_lcs_chains("AAB", "AAAB") == 3


@settings(max_examples=300)
@given(st.text(alphabet="ABC", max_size=7), st.text(alphabet="ABC",
                                                    max_size=7))
def test_count_lcs_chains_counts_every_chain(p, s):
    assert count_lcs_chains(p, s) == lcs_chains_by_search(p, s)


@settings(max_examples=300)
@given(st.lists(st.integers(1, 6), max_size=12))
def test_count_lis_counts_every_lis(values):
    # the exhaustive enumerator gives no sequence for an empty list, whose
    # one longest increasing subsequence is the empty one
    assert count_lis(values) == max(1, len(naive_all_lis(values)))


def test_naive_ltss_examples():
    assert naive_ltss("AGCGAACGGGTA") == (4, 5)
    assert naive_ltss("") == (0, 0)
    assert naive_ltss("A") == (0, 0)
    assert naive_ltss("AA") == (1, 1)
    assert naive_ltss("ABAB") == (2, 2)


def test_naive_ltss_guard():
    with pytest.raises(ValueError):
        naive_ltss("A" * 201)


def test_bitparallel_ltss_agrees_with_naive_ltss():
    for n in range(9):
        for letters in itertools.product("AB", repeat=n):
            f = "".join(letters)
            assert bitparallel_ltss(f) == naive_ltss(f), f
    rng = random.Random(13)
    for _ in range(300):
        sigma = rng.choice(["AB", "ACGT", "ABCDEFGHIJ"])
        f = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 60)))
        assert bitparallel_ltss(f) == naive_ltss(f), f


def test_split_lengths_agree_with_dp():
    rng = random.Random(17)
    for _ in range(200):
        sigma = rng.choice(["AB", "ACGT", "ABCDEFGHIJ"])
        f = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 40)))
        assert split_lengths(f) == [lcss_length(f[:t], f[t:])
                                    for t in range(len(f) + 1)], f


def test_validate_tandem_golden():
    f = "AGCGAACGGGTA"
    good = LtssResult(4, 5, "ACGA", [1, 3, 4, 5], [6, 7, 8, 12])
    assert validate_tandem(f, good)
    assert validate_tandem(f, LtssResult(0, 0, "", [], []))


def test_validate_tandem_rejections():
    f = "AGCGAACGGGTA"
    # wrong letter under an occurrence
    assert not validate_tandem(f, LtssResult(4, 5, "ACGA", [1, 2, 4, 5], [6, 7, 8, 12]))
    # second occurrence crosses the split
    assert not validate_tandem(f, LtssResult(4, 5, "ACGA", [1, 3, 4, 5], [5, 7, 8, 12]))
    # first occurrence crosses the split
    assert not validate_tandem(f, LtssResult(4, 5, "ACGA", [1, 3, 4, 6], [7, 8, 10, 12]))
    # not strictly increasing
    assert not validate_tandem(f, LtssResult(4, 5, "ACGA", [1, 3, 3, 5], [6, 7, 8, 12]))
    # length disagrees with the lists
    assert not validate_tandem(f, LtssResult(3, 5, "ACGA", [1, 3, 4, 5], [6, 7, 8, 12]))
    # out of range
    assert not validate_tandem(f, LtssResult(4, 5, "ACGA", [1, 3, 4, 5], [6, 7, 8, 13]))
    assert not validate_tandem(f, LtssResult(1, 13, "A", [1], [5]))
