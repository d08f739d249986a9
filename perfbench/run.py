#!/usr/bin/env python3
"""ltss benchmark: one seeded workload as a closed loop with one caller.

    python3 perfbench/run.py --workload dna-scan --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ./src.  The
loop issues requests in whole passes over the corpus (the next request
starts when the previous one returns) until the run length is spent; every
answer is checked afterwards, untimed, against the bit-parallel reference
and ltss.oracle.validate_tandem.

Shared machines change speed by tens of percent from one second to the
next, so a fixed pure-Python probe runs just before and just after every
request, and before every set-up.  End-to-end times are wall seconds
rescaled to the reference speed, at which the probe takes PROBE_REF_S; the
readable report also prints them raw.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each request
twice, untraced and traced (alternating which goes first), and reports the
per-layer metrics from the traced copies in raw wall seconds, plus the
tracing overhead.  The last line of stdout is one JSON object; the lines
before it are a readable report.  Spans of a traced run go to
.perfbench_out/ in the checkout.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import zlib
from collections import namedtuple
from time import perf_counter

import checks
import corpus
import reference
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
TAIL_BEYOND = 10

# The probe: counting optimal alignments of two fixed 120-letter strings, a
# pure-Python mix of loops, list indexing and small allocations.  It takes
# about PROBE_REF_S on a 2-vCPU VM with CPython 3.11; that speed is the
# reference the end-to-end times are rescaled to.
_probe_rng = random.Random("probe")
PROBE_P = "".join(_probe_rng.choice(corpus.DNA) for _ in range(120))
PROBE_S = "".join(_probe_rng.choice(corpus.DNA) for _ in range(120))
PROBE_REF_S = 0.005
PROBE_RUNS = 2

# seconds: raw wall seconds of the request; probe_s: mean of the probes run
# just before and just after it
Record = namedtuple("Record", "index mode seconds probe_s traced key")


class SetupError(Exception):
    pass


def probe():
    """Fastest of PROBE_RUNS back-to-back probe runs, in wall seconds.  The
    first run refills the caches the previous request evicted, and the
    collector is paused, so the program's heap and cache footprint leak as
    little as possible into the machine-speed reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(PROBE_RUNS):
            start = perf_counter()
            reference.count_alignments(PROBE_P, PROBE_S)
            took = perf_counter() - start
            best = took if best is None else min(best, took)
        return best
    finally:
        if enabled:
            gc.enable()


def rescaled(seconds, probe_s):
    return seconds * PROBE_REF_S / probe_s


def import_ltss():
    """Fresh import of ltss (and its cli) from the checkout's src/."""
    for name in [m for m in sys.modules if m == "ltss" or m.startswith("ltss.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    try:
        package = importlib.import_module("ltss")
        importlib.import_module("ltss.cli")
        importlib.import_module("ltss.oracle")
    except ImportError as exc:
        raise SetupError("cannot import ltss from %s: %s" % (SRC, exc))
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise SetupError("ltss imported from %s, not from %s"
                         % (package.__file__, SRC))
    return package


def input_path(work_dir, index):
    return os.path.join(work_dir, "input_%d.txt" % index)


def setup(workload, seed, work_dir):
    """Import ltss, build the corpus and write the CLI input files."""
    package = import_ltss()
    items = corpus.build(workload, seed)
    if corpus.WORKLOADS[workload].enumerate_k:
        for index, item in enumerate(items):
            with open(input_path(work_dir, index), "wb") as fh:
                fh.write(corpus.file_bytes(workload, index, item))
    return package, items


def _file_key(path):
    """(crc32, size) of a file, read in chunks."""
    crc = size = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return crc, size


def _timed(fn, arg):
    """(wall seconds, fn(arg) or the exception it raised)."""
    start = perf_counter()
    try:
        out = fn(arg)
    except Exception as exc:
        out = exc
    return perf_counter() - start, out


class Runner:
    """Issues requests and keeps what the checks need.

    CLI stdout goes to a file in work_dir, as when a user redirects it, so
    the harness holds no copy of the output in memory; each distinct
    output file is kept for the checks."""

    def __init__(self, package, workload, items, work_dir):
        self.package = package
        self.spec = corpus.WORKLOADS[workload]
        self.items = items
        self.work_dir = work_dir
        self.records = []
        self.outputs = {}     # output key -> result, exception or (rc, path)

    def argv(self, index, mode):
        argv = ["ltss", input_path(self.work_dir, index)]
        if self.spec.fasta:
            argv.append("--fasta")
        argv += corpus.CLI_FLAGS[mode]
        if mode == "enumerate":
            argv.append(str(self.spec.enumerate_k))
        return argv

    def request(self, index, mode, traced=False):
        """One timed call; an exception is kept as the output."""
        before = probe()
        key = len(self.records)
        if mode == "library":
            seconds, out = _timed(self.package.tandem.compute_ltss,
                                  self.items[index].text)
        else:
            path = os.path.join(self.work_dir, "stdout.txt")
            with open(path, "w") as fh, contextlib.redirect_stdout(fh):
                seconds, out = _timed(self.package.cli.main, self.argv(index, mode))
            if not isinstance(out, Exception):
                # identical bytes get an identical verdict: keep each
                # distinct output file once
                key = (index, mode, out) + _file_key(path)
                if key not in self.outputs:
                    kept = os.path.join(self.work_dir, "stdout_%d.txt" % len(self.outputs))
                    os.replace(path, kept)
                    self.outputs[key] = (out, kept)
        self.outputs.setdefault(key, out)
        probe_s = (before + probe()) / 2
        self.records.append(Record(index, mode, seconds, probe_s, traced, key))

    def _ok(self, ref, mode, out):
        validate = self.package.oracle.validate_tandem
        if isinstance(out, Exception):
            return False
        try:
            if mode == "library":
                return checks.check_result(validate, ref, out)
            rc, path = out
            with open(path) as fh:
                text = fh.read()
            return checks.check_cli(validate, ref, mode, self.spec.enumerate_k,
                                    rc, text)
        except (ValueError, KeyError, TypeError, AttributeError):
            return False     # malformed output

    def failed(self, refs):
        """Requests that raised or whose output fails its check."""
        verdict = {}
        failed = 0
        for r in self.records:
            if r.key not in verdict:
                verdict[r.key] = self._ok(refs[r.index], r.mode, self.outputs[r.key])
            failed += not verdict[r.key]
        return failed


def timed_loop(runner, workload, seconds, recorder=None):
    """Whole passes until the run length is spent; returns wall seconds.

    A further pass starts only while its expected midpoint still falls
    inside the run, so each run measures close to `seconds`.  With a
    recorder, every request runs untraced and traced."""
    start = perf_counter()
    pass_index = 0
    while True:
        pass_start = perf_counter()
        for index, mode in corpus.plan(workload, len(runner.items), pass_index):
            if recorder is None:
                runner.request(index, mode)
                continue
            for traced in ((False, True) if pass_index % 2 == 0 else (True, False)):
                if not traced:
                    runner.request(index, mode)
                    continue
                recorder.request = len(runner.records)
                recorder.install(runner.package)
                try:
                    runner.request(index, mode, traced=True)
                finally:
                    recorder.uninstall()
                recorder.harvest()
        pass_index += 1
        now = perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            return now - start


def tail(values):
    """(value, percentile): the largest sample with at least TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, wall, setups, peak_rss_mb):
    """End-to-end metrics, rescaled; notes carry the raw figures."""
    letters = sum(len(runner.items[r.index].text) for r in runner.records)
    raw = [r.seconds for r in runner.records]
    times = [rescaled(r.seconds, r.probe_s) for r in runner.records]
    tail_value, tail_pct = tail(times)
    raw_setup = [s for s, _ in setups]
    metrics = {
        "solve_s.p50": metric(statistics.median(times), "s"),
        "solve_s.tail": metric(tail_value, "s"),
        "letters_per_s": metric(letters / sum(times), "1/s"),
        "setup_s": metric(statistics.median(rescaled(s, p) for s, p in setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    speed = PROBE_REF_S / statistics.median(r.probe_s for r in runner.records)
    notes = [
        "solve_s.tail is p%.1f of %d samples (%d above it)"
        % (tail_pct, len(times), sum(t > tail_value for t in times)),
        "raw wall: solve_s.p50 %.6f s, solve_s.tail %.6f s, letters_per_s "
        "%.6g over %.2f s of loop, setup_s %.6f s; machine speed %.3f of "
        "the reference (median probe)"
        % (statistics.median(raw), tail(raw)[0], letters / wall, wall,
           statistics.median(raw_setup), speed),
    ]
    return metrics, notes


def _scan_seconds(recorder, runner, baseline_s):
    """Total seconds of the scan (compute spans minus their replay and
    enumeration children), and of the baseline on the same strings."""
    skip = {i for i, name in enumerate(recorder.names) if name in ("replay", "enumerate")}
    child = {}
    for name_id, start, end, parent, _ in recorder.spans:
        if parent >= 0 and name_id in skip:
            child[parent] = child.get(parent, 0.0) + end - start
    scan_s = base_s = 0.0
    calls = 0
    for i, (name_id, start, end, _, request) in enumerate(recorder.spans):
        if recorder.names[name_id] == "compute":
            scan_s += end - start - child.get(i, 0.0)
            base_s += baseline_s[runner.records[request].index]
            calls += 1
    return scan_s, base_s, calls


def per_layer(runner, recorder, refs, baseline_s):
    """Per-layer metrics of the traced copies, per traced request."""
    traced = [r for r in runner.records if r.traced]
    untraced = [r for r in runner.records if not r.traced]
    n = len(traced)
    rows = recorder.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    # scan comparators are those built directly under compute or
    # stats_scan; a replay builds its own, created under the replay span
    scans = [c for c in recorder.counters if c["creator"] in ("compute", "stats_scan")]
    drops = sum(c["drops"] for c in scans)

    def per_scan(field):
        return sum(c[field] for c in scans) / len(scans) if scans else 0

    def mode_p50(mode):
        times = [r.seconds for r in untraced if r.mode == mode]
        return statistics.median(times) if times else 0.0

    scan_s, base_s, scan_calls = _scan_seconds(recorder, runner, baseline_s)
    enum = row("enumerate")
    traced_p50 = statistics.median(r.seconds for r in traced)
    overhead = traced_p50 / statistics.median(r.seconds for r in untraced)
    m = {
        "index.build_s": (row("index")["s"] / n, "s"),
        "index.calls": (row("index")["calls"] / n, "count"),
        "comparator.append_s": (row("comparator.append")["self_s"] / n, "s"),
        "comparator.append_calls": (row("comparator.append")["calls"] / n, "count"),
        "comparator.drop_s": (row("comparator.drop")["self_s"] / n, "s"),
        "comparator.drop_calls": (row("comparator.drop")["calls"] / n, "count"),
        "ts.matches": (per_scan("matches"), "count"),
        "ts.extract_mins": (per_scan("extract_mins"), "count"),
        "ts.extract_hit_ratio": (
            sum(c["extract_mins"] for c in scans) / drops if drops else 0.0, "ratio"),
        "ts.entries_moved": (per_scan("entries_moved"), "count"),
        "ts.tree_ops": (per_scan("tree_ops"), "count"),
        "ts.lambda_max": (sum(refs[r.index].best[0] for r in traced) / n, "count"),
        "scan.s": (scan_s / scan_calls if scan_calls else 0.0, "s"),
        "replay.s": (row("replay")["s"] / n, "s"),
        "replay.self_s": (row("replay")["self_s"] / n, "s"),
        "replay.calls": (row("replay")["calls"] / n, "count"),
        "enumerate.s": (enum["s"] / n, "s"),
        "enumerate.witnesses": (recorder.yielded / n, "count"),
        "enumerate.us_per_witness": (
            1e6 * enum["s"] / recorder.yielded if recorder.yielded else 0.0, "us"),
        "stats_scan.s": (row("stats_scan")["s"] / n, "s"),
        "stats_scan.calls": (row("stats_scan")["calls"] / n, "count"),
        "compute.self_s": (row("compute")["self_s"] / n, "s"),
        "cli.self_s": (row("cli")["self_s"] / n, "s"),
    }
    for mode in corpus.CLI_MODES:
        m["cli.mode.%s.s" % mode] = (mode_p50(mode), "s")
    m["baseline.bitlcs_s"] = (statistics.mean(baseline_s.values()), "s")
    m["baseline.speed_ratio"] = (scan_s / base_s if base_s else 0.0, "ratio")
    m["trace.solve_s.p50"] = (traced_p50, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    metrics = {name: metric(value, unit) for name, (value, unit) in m.items()}

    layer_self = {name: r["self_s"] / n for name, r in rows.items()}
    solve_mean = statistics.mean(r.seconds for r in traced)
    notes = ["self seconds per traced request: " + ", ".join(
        "%s=%.5f" % kv for kv in sorted(layer_self.items()))]
    for label, names in (("drop+append+replay+compute",
                          ("comparator.drop", "comparator.append", "replay", "compute")),
                         ("all spans", tuple(layer_self))):
        total = sum(layer_self.get(name, 0.0) for name in names)
        notes.append("self seconds of %s %.5f vs traced solve_s mean %.5f: "
                     "gap %.2f%%, tracing overhead %.2f%%"
                     % (label, total, solve_mean,
                        100.0 * (solve_mean - total) / solve_mean,
                        100.0 * (overhead - 1)))
    return metrics, notes


def run(workload, seed, seconds, trace):
    spec = corpus.WORKLOADS[workload]
    work_dir = os.path.join(WORK_DIR, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    probe()     # warm the probe once before any reading counts
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            probe_s = probe()
            start = perf_counter()
            package, items = setup(workload, seed, work_dir)
            setups.append((perf_counter() - start, probe_s))
        runner = Runner(package, workload, items, work_dir)
        recorder = tracing.Recorder() if trace else None
        wall = timed_loop(runner, workload, seconds, recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        refs = [checks.Reference(item.text) for item in items]
        baseline_s = {}
        for index, ref in enumerate(refs):
            start = perf_counter()
            ref.best
            baseline_s[index] = perf_counter() - start
        failed = runner.failed(refs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    attempted = len(runner.records)

    if trace:
        metrics, notes = per_layer(runner, recorder, refs, baseline_s)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json.gz" % (workload, seed))
        recorder.write(trace_path)
        notes.append("spans: %d written to %s"
                     % (len(recorder.spans), os.path.relpath(trace_path, ROOT)))
    else:
        metrics, notes = end_to_end(runner, wall, setups, peak_rss_mb)

    print("workload=%s seed=%d trace=%d corpus=sha256:%s strings=%d"
          % (workload, seed, trace, corpus.digest(workload, items), len(items)))
    print("why: %s" % spec.why)
    for name, value in metrics.items():
        print("%-26s %14.6g %s" % (name, value["value"], value["unit"]))
    print("%-26s %14.6g ratio (%d of %d requests failed)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    for note in notes:
        print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
