"""CLI tests: input parsing, the three documented invocations, output
formats, verify/exit codes, and error handling."""

import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ltss import cli, oracle, string_compare, tandem

from test_tandem import benchmark_shapes

GOLDEN = "AGCGAACGGGTA"


# child interpreters import the same ltss package as this process
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                  os.environ.get("PYTHONPATH")])))


def run_cli(argv, stdin=None, monkeypatch=None):
    if isinstance(stdin, bytes):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin),
                                                           encoding="utf-8"))
    elif stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return cli.main(argv)


# ---------------------------------------------------------------- parsing

def test_parse_raw():
    assert cli.parse_input("ABC") == "ABC"
    assert cli.parse_input("ABC\n") == "ABC"
    assert cli.parse_input("ABC\r\n") == "ABC"


@pytest.mark.parametrize("text", ["A B", "AB\nC", "ABC\n\n", " ABC"])
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


def test_ltss_fasta_file(capsys, tmp_path):
    path = tmp_path / "f.fa"
    path.write_text(">golden\nAGCGAA\nCGGGTA\n")
    assert cli.main(["ltss", "--fasta", "--length-only", str(path)]) == 0
    assert capsys.readouterr().out == "4\n"


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
    # lis accepts any positive int, so enumeration keeps the values as ints
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


def test_verify_long_string(capsys, monkeypatch):
    # past the cubic oracle's guard: --verify checks with the bit-parallel one
    rng = random.Random(8)
    f = "".join(rng.choice("ACGT") for _ in range(1000))
    assert len(f) > oracle.TANDEM_GUARD
    assert run_cli(["ltss", "--verify", "--length-only"], f, monkeypatch) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("broken", [
    lambda pairs: pairs[::-1],
    lambda pairs: pairs[:-1],
    lambda pairs: pairs + pairs[-1:],
], ids=["reversed", "one-pair-short", "pair-repeated"])
def test_lcss_verify_checks_whole_witness(broken, capsys, monkeypatch):
    # each broken witness still pairs equal letters only
    real = cli.enumerate_lis

    def enumerate_lis(levels):
        for pairs in real(levels):
            yield broken(pairs)

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


NOT_UTF8 = b"AC\xffGT\n"


@pytest.mark.parametrize("argv,stdin", [
    (["ltss", "/no/such/file"], None),
    (["ltss"], "A B\n"),
    (["ltss", "--enumerate", "0"], "AA\n"),
    (["lis", "0", "2"], None),
    (["ltss", "--fasta"], "ACGT\n"),
    (["ltss", "not-utf8.txt"], None),
    (["ltss"], NOT_UTF8),
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ltss", "ltss", "--length-only"],
        input=GOLDEN, capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


def test_broken_pipe_returns_1(monkeypatch):
    class Pipe:
        def write(self, _):
            raise BrokenPipeError()

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", Pipe())
    assert cli.main(["lcss", "AGCG", "AACGGGTA"]) == 1


def test_broken_pipe_subprocess_is_quiet():
    # enough seq= lines to overflow the pipe buffer after head exits
    values = ["2", "1"] * 200
    cmd = ("%s -m ltss lis %s --enumerate 40000 | head -n 1"
           % (sys.executable, " ".join(values)))
    proc = subprocess.run(["bash", "-o", "pipefail", "-c", cmd],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.stdout == "length=2\n"
    assert proc.stderr == ""
    assert proc.returncode == 1
