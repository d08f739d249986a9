#!/usr/bin/env python3
"""Run every workload and print its metrics by name and unit.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace]

Each workload runs in its own process (so peak_rss_mb is that workload's),
untraced for the end-to-end metrics and, with --trace, once more traced for
the per-layer metrics.  Exits 1 when any request failed its check.
"""

import argparse
import json
import os
import subprocess
import sys

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload traced")
    args = parser.parse_args(argv)
    failed = 0
    for workload in corpus.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                return 2
            print("\n".join(lines[:-1]))
            print()
            failed += json.loads(lines[-1])["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
