"""tools/ab_pairs.py driven with a stubbed benchmark run."""

import importlib.util
import json
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
        {"end_to_end": [{"name": "solve_s.p50", "better": "lower"}]}))
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
