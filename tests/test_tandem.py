"""End-to-end tandem search tests: the golden example, degenerate inputs,
exhaustive small-alphabet agreement with the cubic oracle, and stats."""

import dataclasses
import itertools
import random

from ltss.oracle import naive_ltss, validate_tandem
from ltss.tandem import compute_ltss, ltss_stats, replay_split

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


def test_replay_split_reaches_scan_state():
    comp = replay_split(GOLDEN, 5)
    assert comp.lcss_length == 4
    assert comp.front == 5
    assert comp.p_len == 5


def test_stats_golden():
    st = ltss_stats(GOLDEN)
    # equal-letter pairs: A x4 -> 6, G x5 -> 10, C x2 -> 1, T x1 -> 0
    assert st.matches == 17
    assert st.lambda_max == 4
    assert st.n == 12
    assert st.extract_mins > 0
    assert all(k >= 2 and v > 0 for k, v in st.transfers.items())
    assert st.tree_ops > 0
    assert st.elapsed >= 0.0


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
