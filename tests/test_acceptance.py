"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line.  Runnable under pytest or standalone:

    python3 tests/test_acceptance.py
"""

import contextlib
import io
import itertools
import math
import os
import random
import tempfile
import time
from bisect import bisect_left

from ltss import cli
from ltss.dynamic_lis import ThresholdStructure
from ltss.oracle import (
    naive_all_lis,
    naive_ltss,
    threshold_stacks,
    validate_tandem,
)
from ltss.tandem import compute_ltss, ltss_stats

GOLDEN = "AGCGAACGGGTA"
WORKED_STREAM = [8, 2, 1, 6, 5, 4, 3, 6, 5, 4]

# threshold-list keys after each step of the worked operation script
BOX_BUILT = [[8, 2, 1], [6, 5, 4, 3], [6, 5, 4]]
BOX_EXTRACTED = [[8, 2], [6, 5, 4, 3], [6, 5, 4]]
BOX_APPENDED = [[8, 2], [6, 5, 4, 3], [6, 5, 4], [8]]
BOX_CASCADED = [[8, 6, 5, 4, 3], [6, 5, 4], [8]]

WORKED_ENUMERATION = [
    ((2, 2), (5, 5), (6, 8), (8, 11)),
    ((2, 2), (4, 6), (6, 8), (8, 11)),
    ((2, 2), (3, 7), (6, 8), (8, 11)),
    ((2, 2), (4, 6), (5, 9), (8, 11)),
    ((2, 2), (3, 7), (5, 9), (8, 11)),
    ((2, 2), (3, 7), (4, 10), (8, 11)),
]


def _report(ok, label):
    # raised, not asserted: python -O strips asserts, and the standalone
    # runner counts a failure only by the AssertionError
    print("%s: %s" % ("PASS" if ok else "FAIL", label))
    if not ok:
        raise AssertionError(label)


def _build(values):
    ts = ThresholdStructure()
    for v in values:
        ts.append(v)
    return ts


def test_criterion_1_golden_tandem():
    res = compute_ltss(GOLDEN)
    ok = (res.length == 4 and res.split_index == 5
          and validate_tandem(GOLDEN, res))
    best = min(_timed_ltss() for _ in range(10))
    ok = ok and best < 1e-3
    _report(ok, "criterion 1: golden tandem has length 4 at split 5, "
                "valid witness, under 1 ms (best %.3f ms)" % (best * 1e3))


def _timed_ltss():
    t0 = time.perf_counter()
    compute_ltss(GOLDEN)
    return time.perf_counter() - t0


def test_criterion_2_threshold_boxes():
    ts = _build(WORKED_STREAM)
    ok = ts.key_lists() == BOX_BUILT and ts.lis_length == 3
    ts.extract_min()
    ok = ok and ts.key_lists() == BOX_EXTRACTED and ts.lis_length == 3
    ts.append(8)
    ts.append(2)
    ok = ok and ts.key_lists() == BOX_APPENDED and ts.lis_length == 4
    ts.extract_min()
    ok = ok and ts.key_lists() == BOX_CASCADED and ts.lis_length == 3
    ts.append(8)
    ok = ok and ts.key_lists() == BOX_CASCADED and ts.lis_length == 3
    _report(ok, "criterion 2: replaying the worked operation script "
                "reproduces all four threshold states key-for-key")


def test_criterion_3_enumeration_golden():
    ts = _build(WORKED_STREAM)
    ts.extract_min()
    ts.append(8)
    ts.append(2)
    got = list(ts.all_lis())
    ok = got == WORKED_ENUMERATION
    _report(ok, "criterion 3: enumeration yields exactly the 6 worked "
                "sequences in order")


def test_criterion_4_tandem_oracle_exhaustive():
    def agree():
        for sigma, max_n in (("AB", 12), ("ABC", 9)):
            for n in range(1, max_n + 1):
                for letters in itertools.product(sigma, repeat=n):
                    f = "".join(letters)
                    res = compute_ltss(f)
                    if ((res.length, res.split_index) != naive_ltss(f)
                            or not validate_tandem(f, res)):
                        return False
        return True

    _report(agree(), "criterion 4: exhaustive tandem agreement with the "
                     "brute-force oracle (binary length <= 12, ternary <= 9)")


def test_criterion_5_dynamic_lis_traces():
    rng = random.Random(42)
    ok = True
    for _ in range(10000):
        length = rng.randint(1, 200)
        ts = ThresholdStructure()
        shadow = []
        tails = []
        for _ in range(length):
            if ts.size and rng.random() < 0.3:
                ts.extract_min()
                low = min(shadow)
                shadow = [v for v in shadow if v != low]
                tails = _patience_tails(shadow)
                keys = ts.key_lists()
                if (keys != _build(shadow).key_lists()
                        or keys != threshold_stacks(shadow)):
                    ok = False
            else:
                v = rng.randint(1, 50)
                ts.append(v)
                shadow.append(v)
                i = bisect_left(tails, v)
                if i == len(tails):
                    tails.append(v)
                else:
                    tails[i] = v
            if ts.lis_length != len(tails):
                ok = False
        if not ok:
            break
    _report(ok, "criterion 5: 10,000 randomized traces match the LIS "
                "oracle after every operation and rebuild after extracts")


def _patience_tails(values):
    tails = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return tails


def test_criterion_6_enumeration_complete():
    rng = random.Random(6)
    ok = True
    for _ in range(1000):
        values = [rng.randint(1, 8) for _ in range(rng.randint(1, 12))]
        ts = _build(values)
        got = {tuple(p for _, p in seq) for seq in ts.all_lis()}
        if got != naive_all_lis(values):
            ok = False
            break
    _report(ok, "criterion 6: enumeration set equals the exhaustive "
                "oracle on 1,000 random lists")


def test_criterion_7_transfer_budget():
    rng = random.Random(7)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 300)
        ts = _build([rng.randint(1, 40) for _ in range(n)])
        lam_max = ts.lis_length
        while ts.size:
            ts.extract_min()
        st = ts.stats
        budget = st.extract_min_calls * lam_max
        if any(moved > budget for moved in st.transfers_out.values()):
            ok = False
            break
    _report(ok, "criterion 7: per-level downward transfers stay within "
                "the extract-count x max-LIS budget on 100 drain runs")


def test_criterion_8_operation_scaling():
    rng = random.Random(8)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    constants = []
    for n in (1000, 2000, 4000):
        f = "".join(rng.choice(alphabet) for _ in range(n))
        st = ltss_stats(f)
        lam = max(st.lambda_max, 2)
        bound = st.matches + st.n * lam * (1 + math.log2(lam))
        constants.append(st.tree_ops / bound)
    ok = all(c > 0 for c in constants)
    ratio = max(constants) / min(constants)
    ok = ok and ratio <= 2.0
    _report(ok, "criterion 8: tree-operation counts track the analytic "
                "budget with a constant stable within 2x "
                "(ratio %.2f)" % ratio)


def test_criterion_9_cli_contract():
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.txt")
        with open(path, "w") as fh:
            fh.write(GOLDEN + "\n")
        for argv in (
            ["ltss", "--length-only", path],
            ["lis", "--length-only", "8", "2", "1", "6", "5", "4", "3",
             "6", "5", "4"],
            ["lcss", "--length-only", "AGCG", "AACGGGTA"],
        ):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))
    ok = outputs == [(0, "4\n"), (0, "3\n"), (0, "3\n")]
    _report(ok, "criterion 9: documented command lines print byte-exact "
                "lengths 4, 3, 3")


ALL = [
    test_criterion_1_golden_tandem,
    test_criterion_2_threshold_boxes,
    test_criterion_3_enumeration_golden,
    test_criterion_4_tandem_oracle_exhaustive,
    test_criterion_5_dynamic_lis_traces,
    test_criterion_6_enumeration_complete,
    test_criterion_7_transfer_budget,
    test_criterion_8_operation_scaling,
    test_criterion_9_cli_contract,
]


def main():
    failures = 0
    for check in ALL:
        try:
            check()
        except AssertionError:
            failures += 1
    print("%d/%d criteria passed" % (len(ALL) - failures, len(ALL)))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
