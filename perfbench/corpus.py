"""Seeded corpora and request plans for the three benchmark workloads.

Everything here is a pure function of (workload, seed): the same pair gives
the same strings, the same files and the same request order.  Sizes are
chosen so that one run of the configured length completes enough requests
for a tail percentile with at least ten samples beyond it.
"""

import hashlib
import random
from dataclasses import dataclass

DNA = "ACGT"
AMINO = "ACDEFGHIKLMNPQRSTVWY"

CLI_MODES = ("length-only", "text", "json", "stats", "enumerate")
CLI_FLAGS = {
    "length-only": ["--length-only"],
    "text": [],
    "json": ["--format", "json"],
    "stats": ["--stats"],
    "enumerate": ["--enumerate"],
}


@dataclass(frozen=True)
class Item:
    label: str      # shape of the string: uniform, near-tandem, palindrome ...
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fasta: bool         # CLI input files are single-record FASTA
    enumerate_k: int    # count passed to --enumerate (0: not a CLI workload)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "dna-scan",
            "library compute_ltss on sigma=4 strings: the scan-heavy regime "
            "where extract cascades, appends and the witness replay dominate",
            fasta=False, enumerate_k=0),
        Workload(
            "protein-cli",
            "CLI on sigma=20 FASTA, rotating length-only/text/json/stats/"
            "enumerate: low match density, and json/stats pay a second scan",
            fasta=True, enumerate_k=5),
        Workload(
            "enumerate",
            "CLI --enumerate 2000 on strings with many optimal witnesses: the "
            "read side of the threshold structure plus two replays",
            fasta=False, enumerate_k=2000),
    )
}

# Several strings of each shape, so that a per-seed median averages over
# strings rather than hanging on one of them.
DNA_SCAN_N = 600
DNA_SCAN_UNIFORM = 10
PROTEIN_N = 800
PROTEIN_FILES = 2 * len(CLI_MODES)
ENUMERATE_N = 400
ENUMERATE_PER_SHAPE = 3


def _uniform(rng, n, alphabet):
    return "".join(rng.choice(alphabet) for _ in range(n))


def _mutate(rng, text, rate, alphabet):
    """Substitute each letter with probability rate by a different one."""
    out = []
    for ch in text:
        if rng.random() < rate:
            ch = rng.choice(alphabet.replace(ch, ""))
        out.append(ch)
    return "".join(out)


def build(workload, seed):
    """The workload's corpus for seed, as a list of Items."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "dna-scan":
        n = DNA_SCAN_N
        uniform = [Item("uniform", _uniform(rng, n, DNA))
                   for _ in range(DNA_SCAN_UNIFORM)]
        x = _uniform(rng, n // 2, DNA)
        near = Item("near-tandem", x + _mutate(rng, x, 0.05, DNA))
        # one letter repeated: every position matches every later one, the
        # append worst case with r = n^2/4 matches at the middle split
        run = Item("single-letter", "A" * n)
        half = DNA_SCAN_UNIFORM // 2
        return uniform[:half] + [near] + uniform[half:] + [run]
    if workload == "protein-cli":
        return [Item("uniform", _uniform(rng, PROTEIN_N, AMINO))
                for _ in range(PROTEIN_FILES)]
    if workload == "enumerate":
        n = ENUMERATE_N
        items = []
        for _ in range(ENUMERATE_PER_SHAPE):
            items.append(Item("uniform", _uniform(rng, n, DNA)))
            x = _uniform(rng, n // 2, DNA)
            items.append(Item("palindrome", x + x[::-1]))
            # 15% substitutions: at 5% some seeds leave fewer than K optimal
            # witnesses, and the work per request then depends on the seed
            items.append(Item("periodic", _mutate(rng, DNA * (n // 4), 0.15, DNA)))
        return items
    raise ValueError("unknown workload: %s" % workload)


def plan(workload, n_items, pass_index):
    """(item index, mode) requests of one pass over the corpus.

    protein-cli gives every file one mode per pass and shifts the pairing
    each pass, so every pass holds each mode equally often.
    """
    if workload == "dna-scan":
        return [(i, "library") for i in range(n_items)]
    if workload == "protein-cli":
        return [(i, CLI_MODES[(i + pass_index) % len(CLI_MODES)])
                for i in range(n_items)]
    return [(i, "enumerate") for i in range(n_items)]


def file_bytes(workload, index, item):
    """Exact bytes of the input file the CLI reads for item."""
    if WORKLOADS[workload].fasta:
        lines = [">%s_%d %s" % (workload, index, item.label)]
        lines += [item.text[i:i + 60] for i in range(0, len(item.text), 60)]
        return ("\n".join(lines) + "\n").encode("ascii")
    return (item.text + "\n").encode("ascii")


def digest(workload, items):
    """sha256 over everything the program receives for this corpus."""
    h = hashlib.sha256(workload.encode("ascii"))
    for index, item in enumerate(items):
        h.update(b"\0")
        h.update(file_bytes(workload, index, item))
    return h.hexdigest()
