"""tools/ab_pairs.py driven with a stubbed benchmark run, and a smoke run
of tools/scan_sweep.py on a tiny grid."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", TOOLS / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(value, failed=0, correct=True):
    """The last-line JSON of a run.py run that attempted 10 requests."""
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"solve_s.p50": {"value": value, "unit": "s"}}}


@pytest.mark.parametrize("broken,status", [
    (None, 0),
    (run(0.5, failed=2, correct=False), 1),
    (run(0.5, correct=False), 1),
    ("unfinished", 1),
], ids=["clean", "failed-requests", "not-correct", "unfinished"])
def test_exit_status_counts_every_failed_run(broken, status, tmp_path,
                                             monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "solve_s.p50", "better": "lower",
                         "bound": 0.25}]}))
    ab_pairs = load_ab_pairs()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        if broken is not None and len(calls) == 3:
            return None if broken == "unfinished" else broken
        return run(1.0 if len(calls) % 2 else 0.9)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = [str(tmp_path), str(tmp_path), "--workload", "enumerate",
            "--seed", "0", "--pairs", "2", "--seconds", "1"]
    assert ab_pairs.main(argv) == status
    assert calls == [(str(tmp_path), "enumerate", 0, 1.0)] * 4
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1])["workload"] == "enumerate"
    if broken is None:
        # base read 1.0 then 0.9, change 0.9 then 1.0: equal medians
        row = [line.split() for line in out.splitlines()
               if line.startswith("solve_s.p50    change")]
        assert row[0][-4:] == ["1", "of", "2", "unresolved"]


def test_run_that_ends_in_no_json_is_unfinished(tmp_path, monkeypatch,
                                                 capsys):
    # run.py exits 0 in every run, but the third run's last stdout line is
    # not JSON: that run counts as unfinished and the report still prints
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "solve_s.p50", "better": "lower",
                         "bound": 0.25}]}))
    ab_pairs = load_ab_pairs()
    calls = []

    def fake_run(cmd, cwd, capture_output, text):
        calls.append(cwd)
        stdout = ("not json\n" if len(calls) == 3
                  else "progress\n" + json.dumps(run(1.0)) + "\n")
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    argv = [str(tmp_path), str(tmp_path), "--workload", "enumerate",
            "--seed", "0", "--pairs", "2", "--seconds", "1"]
    assert ab_pairs.main(argv) == 1
    assert len(calls) == 4
    captured = capsys.readouterr()
    assert "\nnot json\n" in captured.err
    # pair 2 runs change first, so the third run is change's
    assert "change: failed requests: none; unfinished runs: pair 2" \
        in captured.out
    assert "complete=1" in captured.out
    report = json.loads(captured.out.splitlines()[-1])
    assert report["runs"]["change"][1] is None
    assert report["runs"]["base"] == [run(1.0)] * 2


SPREAD = [0.9, 0.95, 0.97, 0.99, 1.0, 1.0, 1.01, 1.03, 1.05, 1.1]


@pytest.mark.parametrize("base,change,better,expected", [
    # nine of ten pairs won, the median 0.2 better against a 0.05 spread
    (SPREAD, [0.8] * 9 + [1.1], "lower", "gain"),
    (SPREAD, [1.2] * 9 + [0.9], "higher", "gain"),
    # eight of ten pairs won is too few, however large the gain
    (SPREAD, [0.5] * 8 + [1.1] * 2, "lower", "unresolved"),
    # three pairs are too few to claim anything
    (SPREAD[:3], [0.5] * 3, "lower", "unresolved"),
    # every pair won, by less than the base's quartile spread
    (SPREAD, [x - 0.02 for x in SPREAD], "lower", "unresolved"),
    # the median 30% worse, beyond the 25% bound, either way up
    (SPREAD, [1.3] * 10, "lower", "worse"),
    (SPREAD, [0.7] * 10, "higher", "worse"),
    # 20% worse stays inside the bound
    (SPREAD, [1.2] * 10, "lower", "unresolved"),
], ids=["gain", "gain-higher", "eight-of-ten", "three-pairs",
        "within-spread", "worse", "worse-higher", "within-bound"])
def test_verdict_follows_the_pair_rule(base, change, better, expected):
    assert load_ab_pairs().verdict(base, change, better, 0.25) == expected


def load_scan_sweep():
    spec = importlib.util.spec_from_file_location(
        "scan_sweep", TOOLS / "scan_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_sweep_smoke(tmp_path, monkeypatch, capsys):
    # a tiny grid, one round: the checkout against itself agrees on every
    # row, and against a copy whose scan reports the split after the
    # winning one it disagrees and exits 1
    scan_sweep = load_scan_sweep()
    monkeypatch.setattr(scan_sweep, "GRID", [(2, 40), (4, 60)])
    monkeypatch.setattr(scan_sweep, "TARGET_S", 0.001)
    root = TOOLS.parent
    assert scan_sweep.main([str(root), str(root), "--rounds", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["sigma", "n", "first", "stop", "passes",
                               "ratio", "won", "reps", "agree"]
    assert [row.split()[:2] + row.split()[-1:] for row in rows[1:]] == \
        [["2", "40", "yes"], ["4", "60", "yes"]]
    broken = tmp_path / "src" / "ltss"
    shutil.copytree(root / "src" / "ltss", broken,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (broken / "tandem.py").read_text()
    assert source.count("best_split = t\n") == 1
    (broken / "tandem.py").write_text(
        source.replace("best_split = t\n", "best_split = t + 1\n"))
    assert scan_sweep.main([str(root), str(tmp_path), "--rounds", "1"]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert all(" NO " in row for row in rows)
