#!/usr/bin/env python3
"""Alternating uncounted-scan timings of two checkouts over a σ×n grid.

    python3 tools/scan_sweep.py BASE CHANGE --rounds 7

BASE and CHANGE are the roots of two checkouts of this repository, such as
a `git archive` of the parent commit and the working tree.  Both
`ltss.tandem` modules are imported side by side into this process.  For
each grid row, one uniform string of n letters over σ letters, seeded by
σ and n, every round times `_scan(f, counted=False)` once in each
checkout, in process time, and the side that goes first alternates from
round to round.  A timing repeats the scan until it spans about 50 ms,
the same count on both sides.  Per row it prints the splits CHANGE's scan
steps, as fractions of n: its first split, as CHANGE's `_Window` gives
it, and the split where the scan stopped, counted as the drops its
comparator made.  Next come the anchored bit-vector passes that scan ran,
the floor's pass included, counted by wrapping `tandem._Chain.lengths`,
which runs every one.  Then the median over the rounds of CHANGE's time
over BASE's, the rounds CHANGE won, and whether both sides gave the same
(length, split).  The exit status is 1 if any row disagrees, else 0.
Nothing is written into either checkout beyond the bytecode caches that
importing it leaves.
"""

import argparse
import importlib
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

GRID = ([(sigma, n) for n in (600, 2000) for sigma in (2, 4, 8, 20, 64, 256)]
        + [(4, 4000), (20, 4000)])
TARGET_S = 0.05


def load_tandem(checkout, name):
    """The checkout's ltss.tandem, imported as the package `name`."""
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        del sys.modules[key]
    init = Path(checkout) / "src" / "ltss" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".tandem")


def timed(tandem, f, repeats):
    start = time.process_time()
    for _ in range(repeats):
        tandem._scan(f, counted=False)
    return time.process_time() - start


def scan_work(tandem, f):
    """The split where the checkout's uncounted scan of f stops, as a scan
    drops one suffix letter per split it reaches, and the anchored passes
    it runs, counted by wrapping `_Chain.lengths`, which runs each one."""
    real, real_lengths = tandem.Comparator, tandem._Chain.lengths
    drops = passes = 0

    class Counting(real):
        def drop_front_of_s(self):
            nonlocal drops
            drops += 1
            real.drop_front_of_s(self)

    def lengths(chain, anchor):
        nonlocal passes
        passes += 1
        return real_lengths(chain, anchor)

    tandem.Comparator, tandem._Chain.lengths = Counting, lengths
    try:
        tandem._scan(f, counted=False)
    finally:
        tandem.Comparator, tandem._Chain.lengths = real, real_lengths
    return drops, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("change", help="root of the checkout under test")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    sides = {"base": load_tandem(args.base, "_sweep_base"),
             "change": load_tandem(args.change, "_sweep_change")}
    print("%5s %5s %6s %6s %6s %7s %6s %6s  %s" % (
        "sigma", "n", "first", "stop", "passes", "ratio", "won", "reps",
        "agree"))
    status = 0
    for sigma, n in GRID:
        rng = random.Random("%d/%d" % (sigma, n))
        alphabet = [chr(0x100 + i) for i in range(sigma)]
        f = "".join(rng.choice(alphabet) for _ in range(n))
        answers = {side: tandem._scan(f, counted=False)[:2]
                   for side, tandem in sides.items()}
        agree = answers["base"] == answers["change"]
        status |= not agree
        first = sides["change"]._Window(f).first
        stop, passes = scan_work(sides["change"], f)
        repeats = max(1, round(TARGET_S / max(
            timed(sides["base"], f, 1), 1e-6)))
        ratios = []
        for r in range(args.rounds):
            order = ("base", "change") if r % 2 == 0 else ("change", "base")
            took = {side: timed(sides[side], f, repeats) for side in order}
            ratios.append(took["change"] / max(took["base"], 1e-9))
        print("%5d %5d %6.3f %6.3f %6d %7.3f %6s %6d  %s" % (
            sigma, n, first / n, stop / n, passes, statistics.median(ratios),
            "%d/%d" % (sum(x < 1 for x in ratios), len(ratios)), repeats,
            "yes" if agree else "NO %s %s" % (answers["base"],
                                               answers["change"])),
            flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
