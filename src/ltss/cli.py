"""Command-line front end.

Subcommands: `ltss` (tandem search on one string, from a file, stdin or
FASTA), `lcss P S` (common subsequence of two strings) and `lis N...`
(longest increasing subsequence of a number list).  Exit codes: 0 on
success, 1 on a broken output pipe, 2 on input errors, 3 when --verify
disagrees with the oracle.
"""

import argparse
import json
import os
import sys
from itertools import islice

from . import oracle
from .dynamic_lis import enumerate_lis, positional_levels
from .string_compare import MatchIndex
from .tandem import compute_ltss, split_tandems


class InputError(Exception):
    pass


def parse_input(text, fasta=False):
    """Extract the subject string from raw text or single-record FASTA."""
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
    if text.endswith("\r\n"):
        text = text[:-2]
    elif text.endswith("\n"):
        text = text[:-1]
    if any(ch.isspace() for ch in text):
        raise InputError("raw input must be a single string without whitespace")
    return text


def _read_source(path):
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc))


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


def _csv(values, to_str=str):
    return ",".join(map(to_str, values))


def cmd_ltss(args):
    f = parse_input(_read_source(args.path), fasta=args.fasta)
    if args.verify and len(f) > oracle.BITPARALLEL_GUARD:
        raise InputError("--verify supports strings up to %d letters"
                         % oracle.BITPARALLEL_GUARD)
    res = compute_ltss(f)
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
    tandems = []
    if args.enumerate and res.length:
        tandems = list(islice(split_tandems(f, res.split_index), args.enumerate))
    if args.format == "json":
        payload = {
            "length": res.length,
            "split": res.split_index,
            "witness": res.witness,
            "occ1": res.first_occurrence,
            "occ2": res.second_occurrence,
            "stats": _stats_payload(res.stats),
        }
        if tandems:
            payload["tandems"] = [
                {"witness": w, "occ1": a, "occ2": b} for w, a, b in tandems]
        print(json.dumps(payload))
        return 0
    print("length=%d" % res.length)
    print("split=%d" % res.split_index)
    print("witness=%s" % res.witness)
    print("occ1=%s" % _csv(res.first_occurrence))
    print("occ2=%s" % _csv(res.second_occurrence))
    if tandems:
        # one decimal string per position, shared by every tandem line
        decimal = list(map(str, range(len(f) + 1))).__getitem__
        for w, a, b in tandems:
            print("tandem=%s occ1=%s occ2=%s"
                  % (w, _csv(a, decimal), _csv(b, decimal)))
    if args.stats:
        _print_stats_text(res.stats)
    return 0


def cmd_lcss(args):
    levels = MatchIndex(args.s).levels(args.p)
    length = len(levels)
    # one enumeration per request; its first item is the reported witness
    found = islice(enumerate_lis(levels), args.enumerate or 1)
    pairs = next(found) if length else []
    if args.verify:
        ref = oracle.lcss_length(args.p, args.s)
        # the witness must be a common subsequence of the claimed length:
        # one pair per letter, both coordinates strictly increasing
        ok = (ref == length == len(pairs)
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
    witness = "".join(args.p[i - 1] for i, _ in pairs)
    alternatives = [pairs] + list(found) if args.enumerate and length else []
    # counts of the one build: every equal-letter pair; nothing leaves S
    stats = {"matches": sum(len(tags) for _, tags in levels),
             "lambdaMax": length, "extractMins": 0} if args.stats else None
    if args.format == "json":
        payload = {
            "length": length,
            "witness": witness,
            "pPositions": [i for i, _ in pairs],
            "sPositions": [j for _, j in pairs],
        }
        if stats:
            payload["stats"] = stats
        if alternatives:
            payload["witnesses"] = [
                {"pPositions": [i for i, _ in alt],
                 "sPositions": [j for _, j in alt]} for alt in alternatives]
        print(json.dumps(payload))
        return 0
    print("length=%d" % length)
    print("witness=%s" % witness)
    print("p_positions=%s" % _csv(i for i, _ in pairs))
    print("s_positions=%s" % _csv(j for _, j in pairs))
    for alt in alternatives:
        print("pairs=%s" % ",".join("%d:%d" % pair for pair in alt))
    if stats:
        print("matches=%(matches)d\nlambda_max=%(lambdaMax)d\n"
              "extract_mins=%(extractMins)d" % stats)
    return 0


def cmd_lis(args):
    if any(v < 1 for v in args.values):
        raise InputError("lis values must be positive integers")
    levels = positional_levels(enumerate(zip(args.values), 1))
    length = len(levels)
    if args.verify:
        ref = oracle.patience_lis(args.values)
        if ref != length:
            print("verify mismatch: got length=%d, oracle length=%d"
                  % (length, ref), file=sys.stderr)
            return 3
    if args.length_only:
        print(length)
        return 0
    sequences = []
    if args.enumerate:
        sequences = list(islice(enumerate_lis(levels), args.enumerate))
    if args.format == "json":
        payload = {"length": length}
        if sequences:
            payload["sequences"] = [[[v, p] for p, v in seq] for seq in sequences]
        print(json.dumps(payload))
        return 0
    print("length=%d" % length)
    for seq in sequences:
        print("seq=%s" % ",".join("%d:%d" % (v, p) for p, v in seq))
    return 0


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
    p_lis.add_argument("values", nargs="+", type=int)
    p_lis.set_defaults(func=cmd_lis)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.enumerate is not None and args.enumerate < 1:
            raise InputError("--enumerate expects a positive count")
        return args.func(args)
    except InputError as exc:
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
