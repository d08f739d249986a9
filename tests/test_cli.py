"""CLI tests: input parsing, the three documented invocations, output
formats, verify/exit codes, and error handling."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from ltss import cli, oracle, string_compare, tandem
from ltss.dynamic_lis import ThresholdLevels, UncountedLevels

from helpers import reference_print_tandems
from test_tandem import benchmark_shapes

GOLDEN = "AGCGAACGGGTA"


# child interpreters import the same ltss package as this process
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                  os.environ.get("PYTHONPATH")])))


def run_cli(argv, stdin=None, monkeypatch=None):
    # the CLI reads stdin's bytes and decodes them itself
    if stdin is not None:
        data = stdin.encode("utf-8") if isinstance(stdin, str) else stdin
        monkeypatch.setattr("sys.stdin",
                            SimpleNamespace(buffer=io.BytesIO(data)))
    return cli.main(argv)


# ---------------------------------------------------------------- parsing

def test_parse_raw():
    assert cli.parse_input("ABC") == "ABC"
    assert cli.parse_input("ABC\n") == "ABC"
    assert cli.parse_input("ABC\r\n") == "ABC"
    assert cli.parse_input("ABC\r") == "ABC"


@pytest.mark.parametrize("text", ["A B", "AB\nC", "ABC\n\n", " ABC",
                                  "ABC\n\r", "ABC\r\r"])
def test_parse_raw_rejects_whitespace(text):
    with pytest.raises(cli.InputError):
        cli.parse_input(text)


def test_parse_fasta():
    assert cli.parse_input(">seq1 desc\nACGT\nacg\n", fasta=True) == "ACGTACG"
    assert cli.parse_input(">x\nAC\n", fasta=True) == "AC"


@pytest.mark.parametrize("text", [
    "ACGT\n",                    # no header
    "",                          # empty
    ">a\nAC\n>b\nGT\n",          # multi-record
    ">a\nAC GT\n",               # interior whitespace
    ">a\n\n",                    # empty body
])
def test_parse_fasta_rejects(text):
    with pytest.raises(cli.InputError):
        cli.parse_input(text, fasta=True)


# ------------------------------------------------- documented invocations

def test_ltss_length_only(capsys, monkeypatch):
    assert run_cli(["ltss", "--length-only"], GOLDEN + "\n", monkeypatch) == 0
    assert capsys.readouterr().out == "4\n"


def test_lis_length_only(capsys):
    argv = ["lis", "--length-only", "8", "2", "1", "6", "5", "4", "3",
            "6", "5", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "3\n"


def test_lcss_length_only(capsys):
    assert cli.main(["lcss", "--length-only", "AGCG", "AACGGGTA"]) == 0
    assert capsys.readouterr().out == "3\n"


# ------------------------------------------------------------ ltss output

def test_ltss_text_golden(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(GOLDEN + "\n")
    assert cli.main(["ltss", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "length=4",
        "split=5",
        "witness=AGGA",
        "occ1=1,2,4,5",
        "occ2=6,9,10,12",
    ]


def test_ltss_json_roundtrip(capsys, monkeypatch):
    assert run_cli(["ltss", "--format", "json"], GOLDEN, monkeypatch) == 0
    payload = json.loads(capsys.readouterr().out)
    res = SimpleNamespace(
        length=payload["length"],
        split_index=payload["split"],
        witness=payload["witness"],
        first_occurrence=payload["occ1"],
        second_occurrence=payload["occ2"],
    )
    assert oracle.validate_tandem(GOLDEN, res)
    stats = payload["stats"]
    assert stats["matches"] == 17
    assert stats["lambdaMax"] == 4
    assert stats["extractMins"] >= 1
    assert isinstance(stats["transfers"], list)


def test_ltss_enumerate(capsys, monkeypatch):
    code = run_cli(["ltss", "--enumerate", "10"], GOLDEN, monkeypatch)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    tandem_lines = [ln for ln in lines if ln.startswith("tandem=")]
    assert tandem_lines[0] == "tandem=AGGA occ1=1,2,4,5 occ2=6,9,10,12"
    assert len(tandem_lines) == len(set(tandem_lines))
    for ln in tandem_lines:
        fields = dict(part.split("=") for part in ln.split(" "))
        occ1 = [int(x) for x in fields["occ1"].split(",")]
        occ2 = [int(x) for x in fields["occ2"].split(",")]
        res = SimpleNamespace(length=4, split_index=5,
                              witness=fields["tandem"],
                              first_occurrence=occ1, second_occurrence=occ2)
        assert oracle.validate_tandem(GOLDEN, res)


def test_ltss_no_repeat(capsys, monkeypatch):
    assert run_cli(["ltss"], "ABCDEF\n", monkeypatch) == 0
    assert capsys.readouterr().out.splitlines() == [
        "length=0", "split=0", "witness=", "occ1=", "occ2=",
    ]


def test_ltss_stats_text(capsys, monkeypatch):
    assert run_cli(["ltss", "--stats"], GOLDEN, monkeypatch) == 0
    out = capsys.readouterr().out
    assert "matches=17" in out
    assert "lambda_max=4" in out
    assert "time_ms=" in out


GOLDEN_JSON = (
    '{"length": 4, "split": 5, "witness": "AGGA", "occ1": [1, 2, 4, 5], '
    '"occ2": [6, 9, 10, 12], "stats": {"matches": 17, "lambdaMax": 4, '
    '"extractMins": 7, "transfers": [0, 8, 4, 1]}')
GOLDEN_HEAD = ("length=4\nsplit=5\nwitness=AGGA\n"
               "occ1=1,2,4,5\nocc2=6,9,10,12\n")
GOLDEN_TANDEMS = [
    ("AGGA", "1,2,4,5", "6,9,10,12"),
    ("AGGA", "1,2,4,5", "6,8,10,12"),
    ("ACGA", "1,3,4,5", "6,7,10,12"),
    ("AGGA", "1,2,4,5", "6,8,9,12"),
    ("ACGA", "1,3,4,5", "6,7,9,12"),
    ("ACGA", "1,3,4,5", "6,7,8,12"),
]


@pytest.mark.parametrize("argv,expected", [
    (["--format", "json"], GOLDEN_JSON + "}\n"),
    (["--format", "json", "--enumerate", "3"],
     GOLDEN_JSON + ', "tandems": ['
     '{"witness": "AGGA", "occ1": [1, 2, 4, 5], "occ2": [6, 9, 10, 12]}, '
     '{"witness": "AGGA", "occ1": [1, 2, 4, 5], "occ2": [6, 8, 10, 12]}, '
     '{"witness": "ACGA", "occ1": [1, 3, 4, 5], "occ2": [6, 7, 10, 12]}]}\n'),
    (["--enumerate", "10"], GOLDEN_HEAD + "".join(
        "tandem=%s occ1=%s occ2=%s\n" % row for row in GOLDEN_TANDEMS)),
    (["--stats"], GOLDEN_HEAD + "matches=17\nlambda_max=4\nextract_mins=7\n"
                                "transfers=2:8,3:4,4:1\n"),
])
def test_ltss_output_bytes(argv, expected, capsys, monkeypatch):
    assert run_cli(["ltss"] + argv, GOLDEN, monkeypatch) == 0
    out = capsys.readouterr().out
    # the wall time is the one line that may differ between runs
    assert "".join(ln for ln in out.splitlines(keepends=True)
                   if not ln.startswith("time_ms=")) == expected


@pytest.mark.parametrize("argv,built", [
    (["--format", "json"], 1),      # the scan's; tandems need no comparator
    (["--stats"], 1),
    (["--format", "json", "--enumerate", "3"], 1),
    (["--enumerate", "3"], 1),
    (["--length-only"], 1),
])
def test_ltss_scans_once(argv, built, capsys, monkeypatch):
    strings = []

    class Counting(tandem.Comparator):
        __slots__ = ()

        def __init__(self, s):
            strings.append(s)
            super().__init__(s)

    monkeypatch.setattr(tandem, "Comparator", Counting)
    assert run_cli(["ltss"] + argv, GOLDEN, monkeypatch) == 0
    capsys.readouterr()
    assert len(strings) == built
    assert set(strings) == {GOLDEN}


@pytest.mark.parametrize("argv,built", [
    (["--length-only"], 0),         # the scan's length needs no build
    (["--length-only", "--verify"], 1),
    ([], 1),
    (["--format", "json"], 1),
    (["--stats"], 1),
    (["--enumerate", "3"], 1),      # the witness's walk goes on
    (["--format", "json", "--enumerate", "3"], 1),
])
def test_ltss_builds_split_once(argv, built, capsys, monkeypatch):
    builds, walks = [], []
    real_levels = string_compare.MatchIndex.levels
    real_walk = tandem.walk_lis

    def levels(index, p):
        builds.append(p)
        return real_levels(index, p)

    def walk_lis(split_levels):
        walks.append(len(split_levels))
        return real_walk(split_levels)

    monkeypatch.setattr(string_compare.MatchIndex, "levels", levels)
    monkeypatch.setattr(tandem, "walk_lis", walk_lis)
    assert run_cli(["ltss"] + argv, GOLDEN, monkeypatch) == 0
    capsys.readouterr()
    assert builds == [GOLDEN[:5]] * built
    assert walks == [4] * built


@pytest.mark.parametrize("argv,levels", [
    (["--length-only"], UncountedLevels),
    (["--length-only", "--verify"], UncountedLevels),
    ([], UncountedLevels),
    (["--enumerate", "3"], UncountedLevels),
    (["--stats"], ThresholdLevels),
    (["--format", "json"], ThresholdLevels),
    (["--format", "json", "--enumerate", "3"], ThresholdLevels),
])
def test_ltss_counts_only_what_it_prints(argv, levels, capsys, monkeypatch):
    # a mode that prints no counter scans with levels that count nothing;
    # the library entry points always count, for LtssResult.stats
    scanned = []
    real = tandem._scan

    def scan(f, ts):
        scanned.append(type(ts))
        return real(f, ts)

    monkeypatch.setattr(tandem, "_scan", scan)
    assert run_cli(["ltss"] + argv, GOLDEN, monkeypatch) == 0
    capsys.readouterr()
    assert scanned == [levels]
    scanned.clear()
    assert tandem.compute_ltss(GOLDEN).stats.matches == 17
    assert tandem.ltss_stats(GOLDEN).matches == 17
    assert scanned == [ThresholdLevels] * 2


def _perfbench_corpus():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of the whole stdout of `ltss --enumerate 2000` on the first string
# of each shape in the seed-0 enumerate corpus of perfbench (n=400, 2000
# tandems each, 2.1-3.4 MB): witness order, occurrence lists and formatting
ENUMERATE_2000_DIGESTS = {
    ("uniform", "text"):
        "22f8afb5bcd962463a18cb9574f106e2eab58ebdd37b401e38068dd4b7966703",
    ("palindrome", "text"):
        "0f8bf285fa80ea52afaeaa6874f3d4f2ce0918ab46a4d92f85db592c8754d7d7",
    ("periodic", "text"):
        "9954f35f85951e7faab1b2f92175267fda0aaaaf7ba1d0fd7b7c25b642ec160d",
    ("periodic", "json"):
        "22ecb2308695a2fd4e7407c746341e560cfa1a33fe866c76427286280c13e7a5",
}


def test_ltss_enumerate_benchmark_bytes(capsys, monkeypatch):
    shapes = benchmark_shapes()
    corpus = _perfbench_corpus().build("enumerate", 0)
    for (label, fmt), expected in ENUMERATE_2000_DIGESTS.items():
        f = shapes["enumerate-" + label]
        assert f == next(item.text for item in corpus if item.label == label)
        argv = ["ltss", "--format", fmt, "--enumerate", "2000"]
        assert run_cli(argv, f + "\n", monkeypatch) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == expected, label


def _split_tandem_cases():
    rng = random.Random(43)
    for alphabet in ("A", "AC", "ACGT", "ACDEFGHIKLMNPQRSTVWY"):
        for n in [0, 1, 2] + [rng.randint(3, 60) for _ in range(6)] + [150]:
            f = "".join(rng.choice(alphabet) for _ in range(n))
            # a 150-letter string over 2 or 4 letters has millions of
            # optimal tandems; the others have at most thousands
            full = n <= 60 or len(alphabet) in (1, 20)
            yield f, (1, 7, 10**6) if full else (1, 7)


def test_ltss_enumerate_text_and_json_agree(capsys, monkeypatch):
    # text and json continue the walk that gave the witness; the library's
    # split_tandems walks a build of its own
    for f, counts in _split_tandem_cases():
        res = tandem.compute_ltss(f)
        for count in counts:
            tandems = (list(islice(tandem.split_tandems(f, res.split_index),
                                   count)) if res.length else [])
            argv = ["ltss", "--enumerate", str(count)]
            assert run_cli(argv, f + "\n", monkeypatch) == 0
            lines = [ln for ln in capsys.readouterr().out.splitlines()
                     if ln.startswith("tandem=")]
            assert lines == ["tandem=%s occ1=%s occ2=%s"
                             % (w, ",".join(map(str, a)), ",".join(map(str, b)))
                             for w, a, b in tandems], (f, count)
            assert run_cli(argv + ["--format", "json"], f + "\n",
                           monkeypatch) == 0
            payload = json.loads(capsys.readouterr().out)
            if res.length:
                assert payload["tandems"] == [
                    {"witness": w, "occ1": a, "occ2": b}
                    for w, a, b in tandems], (f, count)
            else:
                assert "tandems" not in payload


def peak_bytes(argv):
    """tracemalloc peak of one CLI run with stdout sent to devnull."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_ltss_enumerate_text_memory_flat(tmp_path):
    # text tandem lines stream as the walk yields them, so the peak does
    # not grow with the count
    path = tmp_path / "periodic.txt"
    path.write_text(benchmark_shapes()["enumerate-periodic"] + "\n")

    def peak(count):
        return peak_bytes(["ltss", "--enumerate", str(count), str(path)])

    peak(2000)    # warm-up: first-call allocations such as lazy imports
    assert peak(2000) <= 1.5 * peak(1)


def printed(printer, f, lam, walk):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        printer(f, lam, walk)
    return out.getvalue()


def test_print_tandems_matches_reference_on_split_walks():
    shapes = benchmark_shapes()
    texts = [f for f, _ in _split_tandem_cases()]
    texts += [shapes["enumerate-" + label]
              for label in ("uniform", "palindrome", "periodic")]
    for f in texts:
        lam, split, _ = tandem._scan(f, UncountedLevels())
        if not lam:
            continue
        lines = [printed(printer, f, lam,
                         islice(tandem.split_walk(f, split), 2000))
                 for printer in (cli._print_tandems, reference_print_tandems)]
        assert lines[0] == lines[1], f


def hand_walk(rng, lam, counts, items, positions):
    """A walk of items (r, tags, values) over shared slot lists: the first
    rewrites all lam slots, each later one the first r, r drawn from
    counts, with positions drawn from positions."""
    tags, values = [None] * lam, [None] * lam
    r = lam
    for _ in range(items):
        tags[:r] = rng.choices(positions, k=r)
        values[:r] = rng.choices(positions, k=r)
        yield r, tags, values
        r = rng.choice(counts)


@pytest.mark.parametrize("lam", [1, 2, 3, 60, 150])
def test_print_tandems_matches_reference_on_hand_built_walks(lam):
    # decimals of one to four digits, so the kept text past the r-th comma
    # starts at every width, and a letter outside ASCII
    f = "".join(random.Random(lam).choice("ACGTÄ") for _ in range(1005))
    positions = [1, 9, 10, 99, 100, 999, 1000, 1005]
    counts = sorted({1, 2, lam // 8, lam // 4 - 1, lam // 4 + 1, lam - 1, lam}
                    & set(range(1, lam + 1)))
    for seed in range(20):
        lines = [printed(printer, f, lam, hand_walk(random.Random(seed), lam,
                                                    counts, 150, positions))
                 for printer in (cli._print_tandems, reference_print_tandems)]
        assert lines[0] == lines[1], (lam, seed)


def test_ltss_fasta_file(capsys, tmp_path):
    path = tmp_path / "f.fa"
    path.write_text(">golden\nAGCGAA\nCGGGTA\n")
    assert cli.main(["ltss", "--fasta", "--length-only", str(path)]) == 0
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize("argv,data", [
    (["ltss"], b"ABAB\n"),
    (["ltss", "--fasta"], b">golden\r\nAGCGAA\r\nCGGGTA\r\n"),
], ids=["raw", "fasta"])
def test_byte_order_mark_is_dropped(argv, data, capsys, monkeypatch,
                                    tmp_path):
    # a leading BOM is no letter and no header, from a file or from stdin
    assert run_cli(argv, data, monkeypatch) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + data)
    assert run_cli(argv + [str(path)]) == 0
    assert capsys.readouterr().out == expected
    assert run_cli(argv, path.read_bytes(), monkeypatch) == 0
    assert capsys.readouterr().out == expected


# ------------------------------------------------------------ lcss / lis

def test_lcss_text(capsys):
    assert cli.main(["lcss", "AGCG", "AACGGGTA"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "length=3"
    fields = dict(ln.split("=", 1) for ln in lines)
    p_pos = [int(x) for x in fields["p_positions"].split(",")]
    s_pos = [int(x) for x in fields["s_positions"].split(",")]
    assert len(p_pos) == len(s_pos) == 3
    assert all("AGCG"[i - 1] == "AACGGGTA"[j - 1]
               for i, j in zip(p_pos, s_pos))
    assert fields["witness"] == "".join("AGCG"[i - 1] for i in p_pos)


def test_lcss_json_enumerate(capsys):
    assert cli.main(["lcss", "--format", "json", "--enumerate", "5",
                     "AGCG", "AACGGGTA"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == 3
    assert len(payload["witness"]) == 3
    assert payload["witnesses"]
    for alt in payload["witnesses"]:
        assert all("AGCG"[i - 1] == "AACGGGTA"[j - 1]
                   for i, j in zip(alt["pPositions"], alt["sPositions"]))


LCSS_HEAD = "length=3\nwitness=AGG\np_positions=1,2,4\ns_positions=2,5,6\n"
LCSS_PAIRS = ["1:2,2:5,4:6", "1:1,2:5,4:6", "1:2,2:4,4:6", "1:1,2:4,4:6",
              "1:2,3:3,4:6", "1:1,3:3,4:6", "1:2,2:4,4:5", "1:1,2:4,4:5",
              "1:2,3:3,4:5", "1:1,3:3,4:5"]
LCSS_JSON_S = [[2, 5, 6], [1, 5, 6], [2, 4, 6], [1, 4, 6], [2, 3, 6]]
LCSS_JSON_P = [[1, 2, 4]] * 4 + [[1, 3, 4]]
LIS_SEQS = ["2:2,5:5,6:8", "1:3,5:5,6:8", "2:2,4:6,6:8", "1:3,4:6,6:8",
            "2:2,3:7,6:8", "1:3,3:7,6:8", "2:2,4:6,5:9", "1:3,4:6,5:9",
            "2:2,3:7,5:9", "1:3,3:7,5:9"]


@pytest.mark.parametrize("argv,expected", [
    (["lcss", "--enumerate", "10", "AGCG", "AACGGGTA"],
     LCSS_HEAD + "".join("pairs=%s\n" % row for row in LCSS_PAIRS)),
    (["lcss", "--format", "json", "--enumerate", "5", "AGCG", "AACGGGTA"],
     '{"length": 3, "witness": "AGG", "pPositions": [1, 2, 4], '
     '"sPositions": [2, 5, 6], "witnesses": [%s]}\n' % ", ".join(
         '{"pPositions": %s, "sPositions": %s}' % pair
         for pair in zip(LCSS_JSON_P, LCSS_JSON_S))),
    (["lis", "--enumerate", "10", "8", "2", "1", "6", "5", "4", "3", "6",
      "5", "4"],
     "length=3\n" + "".join("seq=%s\n" % row for row in LIS_SEQS)),
])
def test_lcss_lis_output_bytes(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt,expected", [
    ("text", "length=1\nseq=99999999999999999999999:1\nseq=5:2\n"),
    ("json", '{"length": 1, "sequences": [[[99999999999999999999999, 1]], '
             '[[5, 2]]]}\n'),
])
def test_lis_values_beyond_64_bits(fmt, expected, capsys):
    # lis accepts any int, so enumeration keeps the values as ints
    argv = ["lis", "--format", fmt, "99999999999999999999999", "5",
            "--enumerate", "3"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


# sha256 of the whole stdout of `lis --enumerate 500` on 300 values drawn
# with random.Random(12) from 1..40: length 27, then 500 sequences
@pytest.mark.parametrize("fmt,head,digest", [
    ("text", "length=27\n",
     "2720223440f0c94820678a9bc9970d77401440fa6a545f695adb5997195e028b"),
    ("json", '{"length": 27, ',
     "cec5238bfbc23185dd122610c8cda04807b74c484daf09a3f77e83dc4f3173e4"),
])
def test_lis_enumerate_random_bytes(fmt, head, digest, capsys):
    rng = random.Random(12)
    values = [str(rng.randint(1, 40)) for _ in range(300)]
    argv = ["lis", "--format", fmt, "--enumerate", "500", *values]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(head)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# two 40-letter strings drawn with random.Random(5)
DNA_P = "GGATCACAGTCTACACTGCTCACTCCAACCCCGGCCCCTG"
DNA_S = "AGTCCGAGGAGAGGGTGCTTCAGAGTATGTATACCACTGG"


def dna_pair(n):
    rng = random.Random(5)
    return ["".join(rng.choice("ACGT") for _ in range(n)) for _ in range(2)]


# operands with tens of thousands of optimal solutions: lis has length 2,
# lcss length 35
MANY_SOLUTIONS = {"lis": ["2", "1"] * 200, "lcss": dna_pair(60)}


def test_lcss_enumerate_dna_bytes(capsys):
    # 50 witnesses of length 23, pinned by digest
    assert cli.main(["lcss", "--enumerate", "50", DNA_P, DNA_S]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "length=23\nwitness=GTCCAGAATGCTTCAAGGCCCTG\n"
        "p_positions=1,4,5,7,8,9,13,15,17,18,19,20,24,25,27,28,33,34,35,36,"
        "37,39,40\n")
    assert out.count("\npairs=") == 50
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3409fef108dfad5afcd0ab20066960c5cb333a4315bf964c5a6191f53ecd93f4")


# lcss --stats counts its one build: matches is the number of equal-letter
# (p, s) pairs, lambda_max the length, and nothing ever leaves S
@pytest.mark.parametrize("argv,expected", [
    (["AGCG", "AACGGGTA"],
     LCSS_HEAD + "matches=10\nlambda_max=3\nextract_mins=0\n"),
    (["ABC", "XYZ"],
     "length=0\nwitness=\np_positions=\ns_positions=\n"
     "matches=0\nlambda_max=0\nextract_mins=0\n"),
])
def test_lcss_stats_bytes(argv, expected, capsys):
    assert cli.main(["lcss", "--stats"] + argv) == 0
    assert capsys.readouterr().out == expected


# with --format json the same three counts ride in a stats object, which
# the payload carries only when --stats is given
@pytest.mark.parametrize("argv,expected", [
    (["AGCG", "AACGGGTA"],
     '{"length": 3, "witness": "AGG", "pPositions": [1, 2, 4], '
     '"sPositions": [2, 5, 6], "stats": {"matches": 10, "lambdaMax": 3, '
     '"extractMins": 0}}\n'),
    (["ABC", "XYZ"],
     '{"length": 0, "witness": "", "pPositions": [], "sPositions": [], '
     '"stats": {"matches": 0, "lambdaMax": 0, "extractMins": 0}}\n'),
])
def test_lcss_stats_json_bytes(argv, expected, capsys):
    assert cli.main(["lcss", "--stats", "--format", "json"] + argv) == 0
    assert capsys.readouterr().out == expected


def test_lcss_stats_enumerate_dna_bytes(capsys):
    assert cli.main(["lcss", "--stats", "--enumerate", "50", DNA_P, DNA_S]) == 0
    out = capsys.readouterr().out
    assert out.endswith("matches=367\nlambda_max=23\nextract_mins=0\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "256d6ea6b214d7460faaf96e05283f080ef9484b3da8d468a2a9738409fc025f")


@pytest.mark.parametrize("argv", [
    [], ["--format", "json"], ["--stats"], ["--length-only"],
    ["--verify", "--enumerate", "5"],
])
def test_lcss_builds_no_comparator(argv, capsys, monkeypatch):
    # lcss never drops a letter, so its one positional build answers it
    strings = []
    real = string_compare.Comparator.__init__

    def counting(self, s):
        strings.append(s)
        real(self, s)

    monkeypatch.setattr(string_compare.Comparator, "__init__", counting)
    assert not hasattr(cli, "Comparator")
    assert cli.main(["lcss"] + argv + ["AGCG", "AACGGGTA"]) == 0
    assert strings == []
    # the count does see the comparators that ltss builds
    assert run_cli(["ltss", "--length-only"], GOLDEN, monkeypatch) == 0
    capsys.readouterr()
    assert strings and set(strings) == {GOLDEN}


def test_lcss_empty_result(capsys):
    assert cli.main(["lcss", "ABC", "XYZ"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "length=0"
    assert "witness=" in lines


def test_lis_enumerate_text(capsys):
    argv = ["lis", "--enumerate", "10", "8", "2", "1", "6", "5", "4", "3",
            "6", "5", "4"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "length=3"
    assert lines[1] == "seq=2:2,5:5,6:8"
    seqs = [ln for ln in lines if ln.startswith("seq=")]
    assert len(seqs) == len(set(seqs))


def test_lis_json(capsys):
    assert cli.main(["lis", "--format", "json", "--enumerate", "2",
                     "2", "1", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == 2
    assert payload["sequences"] == [[[2, 1], [3, 3]], [[1, 2], [3, 3]]]


def _lis_lcss_cases():
    rng = random.Random(44)
    for _ in range(40):
        values = [rng.randint(-5, 12) for _ in range(rng.randint(1, 30))]
        yield ["lis", *map(str, values)]
    for _ in range(40):
        yield ["lcss"] + ["".join(rng.choice("ACGT")
                                  for _ in range(rng.randint(0, 25)))
                          for _ in range(2)]


def test_lis_lcss_enumerate_text_and_json_agree(capsys):
    # text writes each line as the walk yields it, json builds its lists
    for command, *operands in _lis_lcss_cases():
        for count in (1, 7, 10**6):
            argv = [command, "--enumerate", str(count), *operands]
            assert cli.main(argv) == 0
            lines = [ln for ln in capsys.readouterr().out.splitlines()
                     if ln.startswith(("seq=", "pairs="))]
            assert cli.main(argv + ["--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            if command == "lis":
                items = ["seq=%s" % ",".join("%d:%d" % tuple(vp) for vp in seq)
                         for seq in payload["sequences"]]
            else:
                items = ["pairs=%s" % ",".join(
                    "%d:%d" % pair for pair in zip(w["pPositions"],
                                                   w["sPositions"]))
                         for w in payload.get("witnesses", [])]
            assert lines == items, argv
            assert bool(items) == bool(payload["length"])
            assert len(items) <= count


# counts whose items, held in a list, would take megabytes
@pytest.mark.parametrize("command,count", [("lis", 40000), ("lcss", 5000)])
def test_lis_lcss_enumerate_text_memory_flat(command, count):
    def peak(n):
        return peak_bytes([command, "--enumerate", str(n),
                           *MANY_SOLUTIONS[command]])

    peak(count)    # warm-up: first-call allocations such as lazy imports
    assert peak(count) <= peak(1) + 2**19


def test_lis_any_integers_match_oracles(capsys):
    # zero and negatives are values like any other: a window selects
    # strictly below the chosen value, with no bound under it
    assert cli.main(["lis", "3", "-1", "0", "2", "-1", "5"]) == 0
    assert cli.main(["lis", "0", "2"]) == 0
    assert capsys.readouterr().out == "length=4\nlength=2\n"
    rng = random.Random(17)
    for _ in range(300):
        values = [rng.randint(-6, 6) for _ in range(rng.randint(1, 12))]
        argv = ["lis", "--verify", "--format", "json", "--enumerate",
                "100000", *map(str, values)]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["length"] == oracle.naive_lis(values)
        seqs = [tuple(p for _, p in seq) for seq in payload["sequences"]]
        assert len(seqs) == len(set(seqs))
        assert set(seqs) == oracle.enumerate_lis_naive(values)
        assert all(v == values[p - 1]
                   for seq in payload["sequences"] for v, p in seq)


# ------------------------------------------------------- verify and errors

def test_verify_passes(capsys, monkeypatch):
    assert run_cli(["ltss", "--verify", "--length-only"],
                   GOLDEN, monkeypatch) == 0
    assert cli.main(["lcss", "--verify", "--length-only",
                     "AGCG", "AACGGGTA"]) == 0
    assert cli.main(["lis", "--verify", "--length-only", "3", "1", "2"]) == 0
    capsys.readouterr()


def test_verify_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "bitparallel_ltss", lambda f: (99, 0))
    code = run_cli(["ltss", "--verify"], GOLDEN, monkeypatch)
    assert code == 3
    assert "verify mismatch" in capsys.readouterr().err


def test_lis_verify_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "patience_lis", lambda values: 99)
    assert cli.main(["lis", "--verify", "3", "1", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify mismatch" in captured.err


def test_verify_long_string(capsys, monkeypatch):
    # past the cubic oracle's guard: --verify checks with the bit-parallel one
    rng = random.Random(8)
    f = "".join(rng.choice("ACGT") for _ in range(1000))
    assert len(f) > oracle.TANDEM_GUARD
    assert run_cli(["ltss", "--verify", "--length-only"], f, monkeypatch) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("broken", [
    lambda ps, ss: (ps[::-1], ss[::-1]),
    lambda ps, ss: (ps[:-1], ss[:-1]),
    lambda ps, ss: (ps + ps[-1:], ss + ss[-1:]),
], ids=["reversed", "one-pair-short", "pair-repeated"])
def test_lcss_verify_checks_whole_witness(broken, capsys, monkeypatch):
    # each broken witness still pairs equal letters only
    real = cli.enumerate_lis

    def enumerate_lis(levels):
        for p_positions, s_positions in real(levels):
            yield broken(p_positions, s_positions)

    monkeypatch.setattr(cli, "enumerate_lis", enumerate_lis)
    assert cli.main(["lcss", "--verify", "AGCG", "AACGGGTA"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify mismatch" in captured.err


def test_verify_guard(capsys, monkeypatch):
    big = "AB" * (oracle.BITPARALLEL_GUARD // 2 + 1)
    code = run_cli(["ltss", "--verify"], big, monkeypatch)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_lcss_verify_guard(capsys, monkeypatch):
    # at the guard --verify runs the oracle; one row past it, it refuses
    # before building any table
    side = math.isqrt(oracle.LCSS_CELL_GUARD) - 1
    past = oracle.LCSS_CELL_GUARD // (side + 1)
    assert (side + 1) ** 2 <= oracle.LCSS_CELL_GUARD < (side + 1) * (past + 1)
    monkeypatch.setattr(oracle, "lcss_length", lambda p, s: 0)
    assert cli.main(["lcss", "--verify", "A" * side, "C" * side]) == 0

    def no_table(p, s):
        raise AssertionError("dp table built past the guard")

    monkeypatch.setattr(oracle, "dp_lcss", no_table)
    monkeypatch.setattr(oracle, "lcss_length", no_table)
    capsys.readouterr()
    assert cli.main(["lcss", "--verify", "A" * side, "C" * past]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


NOT_UTF8 = b"AC\xffGT\n"


@pytest.mark.parametrize("argv,stdin", [
    (["ltss", "/no/such/file"], None),
    (["ltss"], "A B\n"),
    (["ltss", "--enumerate", "0"], "AA\n"),
    (["lis", "--enumerate", "0", "1"], None),
    (["ltss", "--fasta"], "ACGT\n"),
    (["ltss", "not-utf8.txt"], None),
    (["ltss"], NOT_UTF8),
    (["lis", "1", "x"], None),
])
def test_input_errors_exit_2(argv, stdin, capsys, monkeypatch, tmp_path):
    (tmp_path / "not-utf8.txt").write_bytes(NOT_UTF8)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, stdin, monkeypatch) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_lis_rejects_stats(capsys):
    # --stats reports a scan, and lis runs none
    with pytest.raises(SystemExit) as exc:
        cli.main(["lis", "--stats", "3", "1", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stats" in capsys.readouterr().err


# child interpreters under a C locale, whose stdin codec escapes bytes
# that are not ASCII, and under a UTF-8 locale
LOCALES = {
    "C": (["-X", "utf8=0"], {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}),
    "UTF-8": (["-X", "utf8=0"], {"LC_ALL": "C.UTF-8"}),
}


@pytest.mark.parametrize("locale", sorted(LOCALES))
@pytest.mark.parametrize("flags,data,code,out", [
    (["--format", "json"], "ÄÖÄÖ\n".encode("utf-8"), 0,
     '{"length": 2, "split": 2, "witness": "\\u00c4\\u00d6", '
     '"occ1": [1, 2], "occ2": [3, 4], "stats": {"matches": 2, '
     '"lambdaMax": 2, "extractMins": 1, "transfers": [0, 1]}}\n'),
    ([], NOT_UTF8, 2, ""),
    (["--length-only"], b"ABAB\r", 0, "2\n"),
], ids=["utf8", "not-utf8", "lone-cr"])
def test_stdin_reads_as_file_does(flags, data, code, out, locale, tmp_path):
    # the same bytes give the same stdout and exit code from either source
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    options, env = LOCALES[locale]
    env = dict(CHILD_ENV, **env)
    for name in ("PYTHONUTF8", "PYTHONIOENCODING"):
        env.pop(name, None)
    command = [sys.executable, *options, "-m", "ltss", "ltss", *flags]
    for argv, stdin in ((command + [str(path)], b""), (command, data)):
        proc = subprocess.run(argv, input=stdin, capture_output=True,
                              env=env)
        assert (proc.returncode, proc.stdout.decode("ascii")) == (code, out)
        assert proc.stderr.startswith(b"error:") == bool(code)


def run_under(locale, argv):
    """`python -m ltss *argv` in a child interpreter under the locale."""
    options, env = LOCALES[locale]
    env = dict(CHILD_ENV, **env)
    for name in ("PYTHONUTF8", "PYTHONIOENCODING"):
        env.pop(name, None)
    return subprocess.run([sys.executable, *options, "-m", "ltss", *argv],
                          capture_output=True, env=env)


@pytest.mark.parametrize("locale", sorted(LOCALES))
@pytest.mark.parametrize("operands,code,out", [
    (["ÄB".encode("utf-8")] * 2, 0,
     '{"length": 2, "witness": "\\u00c4B", "pPositions": [1, 2], '
     '"sPositions": [1, 2]}\n'),
    ([b"A\xffB", b"AB"], 2, ""),
], ids=["utf8", "not-utf8"])
def test_lcss_command_line_reads_utf8(operands, code, out, locale):
    # the operands' bytes give the same answer under either locale
    proc = run_under(locale, ["lcss", "--format", "json", *operands])
    assert (proc.returncode, proc.stdout.decode("ascii")) == (code, out)
    assert proc.stderr.startswith(b"error:") == bool(code)


@pytest.mark.parametrize("locale", sorted(LOCALES))
@pytest.mark.parametrize("operands,code,out", [
    (["１２".encode("utf-8"), b"3"], 0, "1\n"),
    ([b"3", b"-1", b"0", b"2", b"-1", b"5"], 0, "4\n"),
    ([b"1\xff", b"2"], 2, ""),
    ([b"1", b"x"], 2, ""),
], ids=["utf8", "negative", "not-utf8", "not-int"])
def test_lis_command_line_reads_utf8(operands, code, out, locale):
    # int() reads the values as the OS passed their bytes, decoded as UTF-8
    proc = run_under(locale, ["lis", "--length-only", *operands])
    assert (proc.returncode, proc.stdout.decode("ascii")) == (code, out)
    assert proc.stderr.startswith(b"error:") == bool(code)


def test_lcss_operands_in_process(capsys, monkeypatch):
    # strings given to main() are kept as they are; only the process
    # command line, as the C locale's codec escapes it, is decoded again
    escaped = "ÄB".encode("utf-8").decode("ascii", "surrogateescape")
    assert cli.main(["lcss", "--length-only", escaped, escaped]) == 0
    assert capsys.readouterr().out == "3\n"
    assert cli.main(["lcss", "--length-only", "ÄB", "ÄB"]) == 0
    assert capsys.readouterr().out == "2\n"
    operand = os.fsdecode("ÄB".encode("utf-8"))
    monkeypatch.setattr("sys.argv",
                        ["ltss", "lcss", "--length-only", operand, operand])
    assert cli.main() == 0
    assert capsys.readouterr().out == "2\n"


def test_parser_is_shared_between_calls(capsys, monkeypatch, tmp_path):
    # one process answers a run of different calls as each alone would:
    # no flag or value of one call carries over to the next, and only
    # the first call builds the argument parser
    path = tmp_path / "golden.txt"
    path.write_text(GOLDEN + "\n")
    calls = [
        ["lis", "--enumerate", "2", "3", "-1", "0", "2", "-1", "5"],
        ["ltss", "--stats", str(path)],
        ["ltss", str(path)],
        ["lcss", "--format", "json", "AGCG", "AACGGGTA"],
        ["lcss", "AGCG", "AACGGGTA"],
        ["lis", "1", "x"],
        ["ltss", "--format", "json", "--enumerate", "2", str(path)],
        ["ltss", "--length-only", str(path)],
        ["lis", "3", "1", "2"],
    ]

    def without_time(text):
        return "".join(ln for ln in text.splitlines(keepends=True)
                       if not ln.startswith("time_ms="))

    alone = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "ltss", *argv],
                              capture_output=True, text=True, env=CHILD_ENV)
        alone.append((proc.returncode, without_time(proc.stdout),
                      proc.stderr))
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    together, parsers = [], []
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        together.append((code, without_time(captured.out), captured.err))
        parsers.append(len(built))
    assert together == alone
    assert built.count("ltss") == 1
    assert parsers == [parsers[0]] * len(calls)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ltss", "ltss", "--length-only"],
        input=GOLDEN, capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


def test_input_file_read_as_utf8_under_ascii_locale(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("ÄÖÄÖ\n".encode("utf-8"))
    env = dict(CHILD_ENV, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONIOENCODING="utf-8")
    env.pop("PYTHONUTF8", None)
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "ltss", "ltss", str(path)],
        capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "witness=ÄÖ\n" in proc.stdout.decode("utf-8")


def test_unencodable_output_exits_2(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("ÄÖÄÖ\n".encode("utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "ltss", "ltss", str(path)],
        capture_output=True, text=True,
        env=dict(CHILD_ENV, PYTHONIOENCODING="ascii"))
    assert proc.returncode == 2
    assert proc.stdout == "length=2\nsplit=2\n"
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_unencodable_later_tandem_exits_2(tmp_path):
    # each tandem= line is written as it is built, so the lines before the
    # first one that cannot be encoded are out
    path = tmp_path / "f.txt"
    path.write_bytes("AÄBÄAB\n".encode("utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "ltss", "ltss", "--enumerate", "2", str(path)],
        capture_output=True, text=True,
        env=dict(CHILD_ENV, PYTHONIOENCODING="ascii"))
    assert proc.returncode == 2
    assert proc.stdout == ("length=2\nsplit=3\nwitness=AB\nocc1=1,3\n"
                           "occ2=5,6\ntandem=AB occ1=1,3 occ2=5,6\n")
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_broken_pipe_returns_1(monkeypatch):
    class Pipe:
        def write(self, _):
            raise BrokenPipeError()

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", Pipe())
    assert cli.main(["lcss", "AGCG", "AACGGGTA"]) == 1


@pytest.mark.parametrize("command,head", [("lis", "length=2\n"),
                                          ("lcss", "length=35\n"),
                                          ("ltss", "length=158\n")],
                         ids=["lis", "lcss", "ltss"])
def test_broken_pipe_subprocess_is_quiet(command, head, tmp_path):
    # enough seq=, pairs= or tandem= lines to overflow the pipe buffer
    # after head exits, so the pipe breaks in the middle of the walk
    if command == "ltss":
        path = tmp_path / "periodic.txt"
        path.write_text(benchmark_shapes()["enumerate-periodic"] + "\n")
        operands = [str(path)]
    else:
        operands = MANY_SOLUTIONS[command]
    cmd = ("%s -m ltss %s %s --enumerate 40000 | head -n 1"
           % (sys.executable, command, " ".join(operands)))
    proc = subprocess.run(["bash", "-o", "pipefail", "-c", cmd],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.stdout == head
    assert proc.stderr == ""
    assert proc.returncode == 1
