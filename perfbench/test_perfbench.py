"""Tests of the benchmark itself: its reference, its checks, its corpus and
its output contract.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

from ltss import cli, oracle  # noqa: E402
from ltss.tandem import compute_ltss, replay_split  # noqa: E402


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_reference_agrees_with_naive_ltss():
    rng = random.Random(11)
    for _ in range(300):
        alphabet = "ACGT"[:rng.randint(1, 4)]
        f = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        assert reference.all_splits_lcs(f) == oracle.naive_ltss(f), f


def test_alignment_count_matches_full_enumeration():
    rng = random.Random(12)
    for _ in range(150):
        alphabet = "ACGT"[:rng.randint(1, 4)]
        f = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 22)))
        res = compute_ltss(f)
        if not res.length:
            continue
        split = res.split_index
        listed = sum(1 for _ in replay_split(f, split).witnesses())
        assert reference.count_alignments(f[:split], f[split:]) == listed, f


def _runner(workload, texts, package, work_dir):
    items = [corpus.Item("uniform", t) for t in texts]
    for index, item in enumerate(items):
        with open(run.input_path(work_dir, index), "wb") as fh:
            fh.write(corpus.file_bytes(workload, index, item))
    return run.Runner(package, workload, items, str(work_dir))


def _refs(runner):
    return [checks.Reference(item.text) for item in runner.items]


def test_corrupted_library_results_are_counted(tmp_path):
    def off_by_one(f):
        res = compute_ltss(f)
        res.length += 1
        return res

    def bad_occurrence(f):
        res = compute_ltss(f)
        res.second_occurrence[0] = res.first_occurrence[0]
        return res

    def raises(f):
        raise RuntimeError("boom")

    texts = ["AGCGAACGGGTA", "ACGTTGCAACGT"]
    for fn in (compute_ltss, off_by_one, bad_occurrence, raises):
        package = SimpleNamespace(tandem=SimpleNamespace(compute_ltss=fn),
                                  oracle=oracle)
        runner = _runner("dna-scan", texts, package, tmp_path)
        for _ in range(2):
            for i in range(len(texts)):
                runner.request(i, "library", False)
        expected = 0 if fn is compute_ltss else 4
        assert len(runner.records) == 4
        assert runner.failed(_refs(runner)) == expected, fn.__name__


def test_corrupted_cli_outputs_are_counted(tmp_path):
    text = "AGCGAACGGGTAAGCTTGCA"

    def duplicate_tandem(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        lines = buf.getvalue().splitlines()
        lines[-1] = lines[-2]      # the last witness repeats the one before
        print("\n".join(lines))
        return rc

    def wrong_length(argv):
        print(compute_ltss(text).length + 1)
        return 0

    def failing_exit(argv):
        cli.main(argv)
        return 2

    for fn, expected in ((cli.main, 0), (duplicate_tandem, 2),
                         (wrong_length, 2), (failing_exit, 2)):
        package = SimpleNamespace(cli=SimpleNamespace(main=fn), oracle=oracle)
        runner = _runner("enumerate", [text], package, tmp_path)
        mode = "length-only" if fn is wrong_length else "enumerate"
        runner.request(0, mode, False)
        runner.request(0, mode, False)
        assert runner.failed(_refs(runner)) == expected, fn.__name__


def test_enumeration_check_wants_min_of_k_and_available():
    f = "ACGTACGTTGCATGCA"
    res = compute_ltss(f)
    ref = checks.Reference(f)
    comp = replay_split(f, res.split_index)
    tandems = []
    for pairs in comp.witnesses():
        occ1 = [p for p, _ in pairs]
        occ2 = [s for _, s in pairs]
        tandems.append(("".join(f[p - 1] for p in occ1), occ1, occ2))
    validate = oracle.validate_tandem
    assert checks.check_tandems(validate, ref, res, tandems, len(tandems) + 5)
    assert checks.check_tandems(validate, ref, res, tandems[:2], 2)
    assert not checks.check_tandems(validate, ref, res, tandems[:2], 3)
    assert not checks.check_tandems(validate, ref, res, tandems[1:], len(tandems))


def test_corpus_digest_is_a_function_of_the_seed():
    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh)
    for workload in corpus.WORKLOADS:
        first = corpus.digest(workload, corpus.build(workload, 0))
        assert first == corpus.digest(workload, corpus.build(workload, 0))
        assert first != corpus.digest(workload, corpus.build(workload, 1))
        assert first == recorded[workload]


def test_corpus_covers_the_degenerate_shapes():
    labels = {w: {item.label for item in corpus.build(w, 3)}
              for w in corpus.WORKLOADS}
    assert {"uniform", "near-tandem", "single-letter"} <= labels["dna-scan"]
    assert {"uniform", "palindrome", "periodic"} <= labels["enumerate"]
    assert "A" * corpus.DNA_SCAN_N in {i.text for i in corpus.build("dna-scan", 3)}


def test_benchmark_json_names_the_workloads_the_harness_runs():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == corpus.WORKLOADS[w["name"]].why


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line_carries_every_declared_metric():
    spec = _benchmark_json()
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run(run.ROOT, "--workload", "protein-cli", "--seed", "4",
                   "--seconds", "0.1", "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(tmp_path, "--workload", "dna-scan", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
