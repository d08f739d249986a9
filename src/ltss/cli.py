"""Command-line front end.

Subcommands: `ltss` (tandem search on one string, from a file, stdin or
FASTA), `lcss P S` (common subsequence of two strings) and `lis N...`
(longest increasing subsequence of any integers).  Every input is
decoded from its bytes as strict UTF-8 whatever the locale: a file or
stdin, which drops a leading byte-order mark, and the `lcss` strings and
`lis` values of the process command line, as the OS passed them.
Strings given to main() in a list are taken as they are.
An `ltss` request scans once, counting the scan's work only under
`--stats` or `--format json`, the modes that print counters;
`--length-only` prints the scan's length, and every other request walks
one build of the winning split, witness first, then the `--enumerate`
tandems.  Each text tandem= line is written as soon as it is built, from
the previous line's text wherever few levels changed.  main() builds its
parser once.
Exit codes: 0 on success, 1 on a broken output pipe, 2 on input errors
and on output that stdout's encoding cannot carry, 3 when --verify
disagrees with the oracle.
"""

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain, islice
from operator import itemgetter

from . import oracle, tandem
from .dynamic_lis import (ThresholdLevels, UncountedLevels, enumerate_lis,
                          positional_levels)
from .string_compare import MatchIndex


class InputError(Exception):
    pass


def parse_input(text, fasta=False):
    """Extract the subject string from raw text or single-record FASTA.
    Raw text drops one trailing `\n`, `\r\n` or `\r`; FASTA lines may end
    in any of the three."""
    if fasta:
        lines = text.splitlines()
        if not lines or not lines[0].startswith(">"):
            raise InputError("FASTA input must start with a '>' header line")
        body = []
        for line in lines[1:]:
            if line.startswith(">"):
                raise InputError("multi-record FASTA is not supported")
            line = line.strip()
            if any(ch.isspace() for ch in line):
                raise InputError("whitespace inside FASTA sequence line")
            body.append(line)
        seq = "".join(body).upper()
        if not seq:
            raise InputError("empty FASTA body")
        return seq
    text = text.removesuffix("\n").removesuffix("\r")
    if any(ch.isspace() for ch in text):
        raise InputError("raw input must be a single string without whitespace")
    return text


def _read_source(path):
    try:
        if path is None or path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc))


def _operand_text(arg):
    # the interpreter decoded the command line with the locale's codec,
    # which escapes what it cannot read; fsencode restores the OS's bytes
    try:
        return os.fsencode(arg).decode("utf-8")
    except UnicodeError as exc:
        raise InputError("command-line string is not UTF-8: %s" % exc)


def _stats_payload(st):
    max_level = max(st.transfers) if st.transfers else 0
    return {
        "matches": st.matches,
        "lambdaMax": st.lambda_max,
        "extractMins": st.extract_mins,
        "transfers": [st.transfers.get(k, 0) for k in range(1, max_level + 1)],
    }


def _print_stats_text(st):
    print("matches=%d" % st.matches)
    print("lambda_max=%d" % st.lambda_max)
    print("extract_mins=%d" % st.extract_mins)
    print("transfers=%s" % ",".join(
        "%d:%d" % (k, st.transfers[k]) for k in sorted(st.transfers)))
    print("time_ms=%.3f" % (st.elapsed * 1000.0))


def _csv(values):
    return ",".join(map(str, values))


def _print_tandems(f, lam, walk):
    """Print a tandem= line for each item of a walk over f's split levels
    of length lam as the walk yields it.  Consecutive tandems share every
    level from the walk's rewrite count r up, so each line converts only
    the r rewritten levels' letters and decimals into token lists.  A line
    with r well under a quarter of lam takes the previous line's text past
    its r-th letter and past each occurrence's r-th comma, and joins only
    the r new tokens in front; any other line joins every token."""
    padded = " " + f     # 1-based positions
    decimal = list(map(str, range(len(f) + 1)))
    word, first, second = ([None] * lam for _ in range(3))
    write = sys.stdout.write
    # keeping a tail costs about what joining 30 tokens does, plus 4 per
    # new token, so it pays while 4r + 30 < lam, that is while r < keep;
    # the first item, r = lam, joins every token
    keep = (lam - 27) // 4
    for r, tags, values in walk:
        if r == 1:
            # an itemgetter of one index returns its item bare
            t = tags[0]
            word[0], first[0] = padded[t], decimal[t]
            second[0] = decimal[values[0]]
        else:
            at = itemgetter(*tags[:r])
            word[:r], first[:r] = at(padded), at(decimal)
            second[:r] = itemgetter(*values[:r])(decimal)
        if r < keep:
            letters = "".join(word[:r]) + letters[r:]
            occ1 = "%s,%s" % (",".join(first[:r]), occ1.split(",", r)[r])
            occ2 = "%s,%s" % (",".join(second[:r]), occ2.split(",", r)[r])
        else:
            letters = "".join(word)
            occ1, occ2 = ",".join(first), ",".join(second)
        write("tandem=%s occ1=%s occ2=%s\n" % (letters, occ1, occ2))


def cmd_ltss(args):
    f = parse_input(_read_source(args.path), fasta=args.fasta)
    if args.verify and len(f) > oracle.BITPARALLEL_GUARD:
        raise InputError("--verify supports strings up to %d letters"
                         % oracle.BITPARALLEL_GUARD)
    counted = args.stats or args.format == "json"
    scan = tandem._scan(f, ThresholdLevels() if counted else UncountedLevels())
    if args.length_only and not args.verify:
        print(scan[0])
        return 0
    res, walk = tandem.solve(f, scan)
    if args.verify:
        ref = oracle.bitparallel_ltss(f)
        ok = (ref == (res.length, res.split_index)
              and oracle.validate_tandem(f, res))
        if not ok:
            print("verify mismatch: got length=%d split=%d, oracle length=%d split=%d"
                  % (res.length, res.split_index, ref[0], ref[1]),
                  file=sys.stderr)
            return 3
    if args.length_only:
        print(res.length)
        return 0
    show_tandems = args.enumerate and res.length
    if args.format == "json":
        payload = {
            "length": res.length,
            "split": res.split_index,
            "witness": res.witness,
            "occ1": res.first_occurrence,
            "occ2": res.second_occurrence,
            "stats": _stats_payload(res.stats),
        }
        if show_tandems:
            payload["tandems"] = [
                {"witness": w, "occ1": a, "occ2": b} for w, a, b in
                tandem.walk_tandems(f, islice(walk, args.enumerate))]
        print(json.dumps(payload))
        return 0
    print("length=%d" % res.length)
    print("split=%d" % res.split_index)
    print("witness=%s" % res.witness)
    print("occ1=%s" % _csv(res.first_occurrence))
    print("occ2=%s" % _csv(res.second_occurrence))
    if show_tandems:
        _print_tandems(f, res.length, islice(walk, args.enumerate))
    if args.stats:
        _print_stats_text(res.stats)
    return 0


def cmd_lcss(args):
    cells = (len(args.p) + 1) * (len(args.s) + 1)
    if args.verify and cells > oracle.LCSS_CELL_GUARD:
        raise InputError("--verify supports lcss tables up to %d cells"
                         % oracle.LCSS_CELL_GUARD)
    levels = MatchIndex(args.s).levels(args.p)
    length = len(levels)
    # one enumeration per request; its first item is the reported witness
    found = islice(enumerate_lis(levels), args.enumerate or 1)
    p_positions, s_positions = next(found) if length else ([], [])
    if args.verify:
        ref = oracle.lcss_length(args.p, args.s)
        pairs = list(zip(p_positions, s_positions))
        # the witness must be a common subsequence of the claimed length:
        # one pair per letter, both coordinates strictly increasing
        ok = (ref == length == len(p_positions) == len(s_positions)
              and all(i < i2 and j < j2
                      for (i, j), (i2, j2) in zip(pairs, pairs[1:]))
              and all(0 < i <= len(args.p) and 0 < j <= len(args.s)
                      and args.p[i - 1] == args.s[j - 1] for i, j in pairs))
        if not ok:
            print("verify mismatch: got length=%d pairs=%s, oracle length=%d"
                  % (length, ",".join("%d:%d" % pr for pr in pairs), ref),
                  file=sys.stderr)
            return 3
    if args.length_only:
        print(length)
        return 0
    witness = "".join(args.p[i - 1] for i in p_positions)
    alternatives = (chain([(p_positions, s_positions)], found)
                    if args.enumerate and length else ())
    # counts of the one build: every equal-letter pair; nothing leaves S
    stats = {"matches": sum(len(tags) for _, tags in levels),
             "lambdaMax": length, "extractMins": 0} if args.stats else None
    if args.format == "json":
        payload = {
            "length": length,
            "witness": witness,
            "pPositions": p_positions,
            "sPositions": s_positions,
        }
        if stats:
            payload["stats"] = stats
        if alternatives:
            payload["witnesses"] = [{"pPositions": a, "sPositions": b}
                                    for a, b in alternatives]
        print(json.dumps(payload))
        return 0
    print("length=%d" % length)
    print("witness=%s" % witness)
    print("p_positions=%s" % _csv(p_positions))
    print("s_positions=%s" % _csv(s_positions))
    for a, b in alternatives:
        print("pairs=%s" % ",".join("%d:%d" % pair for pair in zip(a, b)))
    if stats:
        print("matches=%(matches)d\nlambda_max=%(lambdaMax)d\n"
              "extract_mins=%(extractMins)d" % stats)
    return 0


def cmd_lis(args):
    try:
        numbers = list(map(int, args.values))
    except ValueError as exc:
        raise InputError(str(exc))
    levels = positional_levels(enumerate(zip(numbers), 1))
    length = len(levels)
    if args.verify:
        ref = oracle.patience_lis(numbers)
        if ref != length:
            print("verify mismatch: got length=%d, oracle length=%d"
                  % (length, ref), file=sys.stderr)
            return 3
    if args.length_only:
        print(length)
        return 0
    sequences = islice(enumerate_lis(levels), args.enumerate or 0)
    if args.format == "json":
        payload = {"length": length}
        if args.enumerate:
            payload["sequences"] = [[[v, p] for v, p in zip(values, tags)]
                                    for tags, values in sequences]
        print(json.dumps(payload))
        return 0
    print("length=%d" % length)
    for tags, values in sequences:
        print("seq=%s" % ",".join("%d:%d" % vp for vp in zip(values, tags)))
    return 0


@cache
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--length-only", action="store_true",
                        help="print just the length")
    common.add_argument("--verify", action="store_true",
                        help="cross-check the answer against a brute-force oracle")
    common.add_argument("--enumerate", type=int, metavar="N",
                        help="enumerate up to N optimal solutions")
    scanned = argparse.ArgumentParser(add_help=False)
    scanned.add_argument("--stats", action="store_true",
                         help="print scan instrumentation")

    parser = argparse.ArgumentParser(
        prog="ltss",
        description="Longest tandem scattered subsequence and friends.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ltss = sub.add_parser("ltss", parents=[common, scanned],
                            help="tandem search on one string")
    p_ltss.add_argument("path", nargs="?",
                        help="input file (default: stdin, '-' accepted)")
    p_ltss.add_argument("--fasta", action="store_true",
                        help="treat input as single-record FASTA")
    p_ltss.set_defaults(func=cmd_ltss)

    p_lcss = sub.add_parser("lcss", parents=[common, scanned],
                            help="common subsequence of two strings")
    p_lcss.add_argument("p")
    p_lcss.add_argument("s")
    p_lcss.set_defaults(func=cmd_lcss)

    p_lis = sub.add_parser("lis", parents=[common],
                           help="longest increasing subsequence of numbers")
    p_lis.add_argument("values", nargs="+")
    p_lis.set_defaults(func=cmd_lis)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.enumerate is not None and args.enumerate < 1:
            raise InputError("--enumerate expects a positive count")
        if argv is None and args.command == "lcss":
            args.p, args.s = map(_operand_text, (args.p, args.s))
        elif argv is None and args.command == "lis":
            args.values = list(map(_operand_text, args.values))
        return args.func(args)
    except (InputError, UnicodeEncodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); park stdout on devnull
        # so the interpreter's exit flush cannot trip over it again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
