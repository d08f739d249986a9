"""Output checks behind the benchmark's fail count.

Every request's answer is compared with the bit-parallel reference's
(length, split) and, wherever the output carries occurrences, run through
ltss.oracle.validate_tandem.  Enumerations must list min(K, available)
distinct valid witnesses, the first equal to the reported one.
"""

import json
from functools import cached_property
from types import SimpleNamespace

import reference


class Reference:
    """Expected answers for one corpus string, computed once, lazily."""

    def __init__(self, text):
        self.text = text

    @cached_property
    def best(self):
        """(length, split) of the bit-parallel reference."""
        return reference.all_splits_lcs(self.text)

    @cached_property
    def available(self):
        """Optimal witnesses at the reference split."""
        split = self.best[1]
        return reference.count_alignments(self.text[:split], self.text[split:])


def _csv(value):
    return [int(v) for v in value.split(",")] if value else []


def _result(length, split, witness, occ1, occ2):
    return SimpleNamespace(length=length, split_index=split, witness=witness,
                           first_occurrence=occ1, second_occurrence=occ2)


def _parse_text(text):
    """Result, tandem list and stats fields of the `ltss` text format."""
    fields = {}
    tandems = []
    for line in text.splitlines():
        if line.startswith("tandem="):
            w, o1, o2 = line.split(" ")
            tandems.append((w[len("tandem="):], _csv(o1[len("occ1="):]),
                            _csv(o2[len("occ2="):])))
        else:
            key, _, value = line.partition("=")
            fields[key] = value
    res = _result(int(fields["length"]), int(fields["split"]),
                  fields["witness"], _csv(fields["occ1"]), _csv(fields["occ2"]))
    return res, tandems, fields


def _parse_json(text):
    payload = json.loads(text)
    res = _result(payload["length"], payload["split"], payload["witness"],
                  payload["occ1"], payload["occ2"])
    tandems = [(t["witness"], t["occ1"], t["occ2"])
               for t in payload.get("tandems", ())]
    return res, tandems, payload["stats"]


def check_result(validate, ref, res):
    """Reported (length, split) equals the reference and the occurrences
    embed the witness twice on either side of the split."""
    return ((res.length, res.split_index) == ref.best
            and validate(ref.text, res))


def check_tandems(validate, ref, res, tandems, k):
    """min(k, available) distinct valid witnesses, the first the reported."""
    if len(tandems) != min(k, ref.available if res.length else 0):
        return False
    if tandems and tandems[0] != (res.witness, res.first_occurrence,
                                  res.second_occurrence):
        return False
    seen = set()
    for w, occ1, occ2 in tandems:
        key = (tuple(occ1), tuple(occ2))
        if key in seen:
            return False
        seen.add(key)
        if not validate(ref.text, _result(res.length, res.split_index, w,
                                          occ1, occ2)):
            return False
    return True


def check_cli(validate, ref, mode, k, rc, text):
    """Verdict on one `ltss ltss` invocation's exit code and stdout."""
    if rc != 0:
        return False
    if mode == "length-only":
        return text == "%d\n" % ref.best[0]
    if mode == "json":
        res, tandems, stats = _parse_json(text)
        lam = stats["lambdaMax"]
    else:
        res, tandems, fields = _parse_text(text)
        lam = int(fields["lambda_max"]) if mode == "stats" else res.length
    if lam != res.length or not check_result(validate, ref, res):
        return False
    if mode == "enumerate":
        return check_tandems(validate, ref, res, tandems, k)
    return not tandems
