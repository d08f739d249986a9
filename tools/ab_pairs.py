#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark between two checkouts.

    python3 tools/ab_pairs.py BASE CHANGE --workload enumerate --seed 0 \\
        --pairs 10 --seconds 30

BASE and CHANGE are the roots of two checkouts of this repository, such as
a `git archive` of the parent commit and the working tree.  Each pair runs
`perfbench/run.py --trace 0` once in each checkout, one after the other;
the side that goes first alternates from pair to pair, so a drift in
machine speed does not favour one side.  For every end-to-end metric of
CHANGE's BENCHMARK.json the report gives, per side, the median and the
quartiles over the pairs, the number of pairs CHANGE won in the metric's
better direction, and a verdict: "gain" when, over at least ten pairs,
CHANGE won at least nine tenths of them and its median beats BASE's by
more than BASE's quartile spread (q3 - q1), "worse" when its median is worse than BASE's
by more than the metric's bound, a fraction of BASE's median, and
"unresolved" otherwise.  It also reports every run that failed a
request or did not finish.  The last line of stdout is one JSON object
with every run's metrics.  The exit status is 1 if any run failed a
request, reported "correct": false or did not finish, else 0; a run whose
last stdout line is not JSON counts as one that did not finish.  Nothing is
written into either checkout beyond what run.py itself writes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("base", "change")


def run_once(checkout, workload, seed, seconds):
    """The last-line JSON of one run.py run, or None if it did not finish
    or its last stdout line is not JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stderr.write("run.py failed in %s (exit %d):\n%s"
                         % (checkout, proc.returncode, proc.stderr))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write("run.py in %s ended in a line that is not JSON:\n%s\n"
                         % (checkout, lines[-1]))
        return None


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_metrics(checkout):
    """(name, better, bound) of each end-to-end metric the checkout
    declares."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def wins(base, change, better):
    """Pairs in which change beats base in the better direction; a tie
    counts for neither."""
    return sum((c < b) if better == "lower" else (c > b)
               for b, c in zip(base, change))


def verdict(base, change, better, bound):
    """"gain", "worse" or "unresolved" for one metric's paired values (see
    the module docstring)."""
    q1, base_median, q3 = quartiles(base)
    gain = base_median - quartiles(change)[1]
    if better != "lower":
        gain = -gain
    if (len(base) >= 10 and 10 * wins(base, change, better) >= 9 * len(base)
            and gain > q3 - q1):
        return "gain"
    if -gain > bound * abs(base_median):
        return "worse"
    return "unresolved"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("change", help="root of the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    checkouts = {"base": os.path.abspath(args.base),
                 "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics(checkouts["change"])

    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], args.workload,
                                       args.seed, args.seconds))
        print("pair %d (%s first): %s" % (pair + 1, order[0], ", ".join(
            "%s %s" % (side, "-" if runs[side][-1] is None else "%.6g" %
                       runs[side][-1]["metrics"][metrics[0][0]]["value"])
            for side in SIDES)), flush=True)

    complete = [i for i in range(args.pairs)
                if all(runs[side][i] is not None for side in SIDES)]
    print("workload=%s seed=%d pairs=%d seconds=%g complete=%d"
          % (args.workload, args.seed, args.pairs, args.seconds, len(complete)))
    if complete:
        print("%-14s %-6s %12s %12s %12s %10s  %s"
              % ("metric", "side", "q1", "median", "q3", "change won",
                 "verdict"))
    for name, better, bound in metrics:
        if not complete:
            break
        values = {side: [runs[side][i]["metrics"][name]["value"]
                         for i in complete] for side in SIDES}
        q1, q2, q3 = quartiles(values["base"])
        print("%-14s %-6s %12.6g %12.6g %12.6g" % (name, "base", q1, q2, q3))
        q1, q2, q3 = quartiles(values["change"])
        print("%-14s %-6s %12.6g %12.6g %12.6g %10s  %s"
              % (name, "change", q1, q2, q3, "%d of %d" % (
                  wins(values["base"], values["change"], better),
                  len(complete)), verdict(values["base"], values["change"],
                                          better, bound)))
    status = 0
    for side in SIDES:
        failed = [(i + 1, r["failed"], r["attempted"])
                  for i, r in enumerate(runs[side])
                  if r is not None and (r["failed"] or not r["correct"])]
        missing = [i + 1 for i, r in enumerate(runs[side]) if r is None]
        print("%s: failed requests: %s; unfinished runs: %s" % (
            side, ", ".join("pair %d, %d of %d" % f for f in failed) or "none",
            ", ".join("pair %d" % i for i in missing) or "none"))
        if failed or missing:
            status = 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "runs": runs}))
    return status


if __name__ == "__main__":
    sys.exit(main())
