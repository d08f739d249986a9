"""Array-backed ordered key lists with cheap operations near the minimum end.

Entries sit in strictly decreasing key order, so the minimum lives at the
tail of the backing array.  Every hot operation of the threshold structure
(tail insert, remove-min, suffix split, concatenate) touches only the tail
region, which a Python list serves in amortized O(1) per entry, and
predecessor searches gallop from the tail so that locating a suffix of
length t costs O(log t) comparisons.  This plays the role of a min-finger
balanced tree without paying interpreter overhead per node.
"""

import math

INF = math.inf


class StructureError(Exception):
    """Caller bug: operation applied to a list state that forbids it."""


class OpCounter:
    """Tally of elementary substrate steps: comparisons plus structural
    edits.  One counter may be shared by many lists."""

    __slots__ = ("steps",)

    def __init__(self):
        self.steps = 0


class LisEntry:
    """One key together with the strictly increasing list of global
    positions at which it was inserted.  Duplicate inserts of a key grow
    the position list instead of creating new entries."""

    __slots__ = ("value", "positions")

    def __init__(self, value, position):
        self.value = value
        self.positions = [position]

    def __repr__(self):
        return "%r@%s" % (self.value, ",".join(map(str, self.positions)))


class Handle:
    """Opaque reference to one entry, as handed out by predecessor()."""

    __slots__ = ("index", "entry")

    def __init__(self, index, entry):
        self.index = index
        self.entry = entry


class OrderedList:
    """Sequence of LisEntry in strictly decreasing key order."""

    __slots__ = ("entries", "ops")

    def __init__(self, ops=None):
        self.entries = []
        self.ops = ops if ops is not None else OpCounter()

    def __repr__(self):
        return "OrderedList[%s]" % ", ".join(repr(e) for e in self.entries)

    @property
    def size(self):
        return len(self.entries)

    def keys(self):
        return [e.value for e in self.entries]

    def min(self):
        """Smallest key, or +inf when the list is empty."""
        if not self.entries:
            return INF
        return self.entries[-1].value

    def tail_entry(self):
        if not self.entries:
            raise StructureError("tail of empty list")
        return self.entries[-1]

    def insert(self, value, position):
        """Add (value, position) at the tail; value must not exceed the
        current minimum and position must exceed every position already
        stored anywhere.  An equal key collapses into the tail entry."""
        entries = self.entries
        self.ops.steps += 1
        if not entries or value < entries[-1].value:
            entries.append(LisEntry(value, position))
        elif value == entries[-1].value:
            entries[-1].positions.append(position)
        else:
            raise StructureError(
                "insert above the minimum: %r > %r" % (value, entries[-1].value))

    def remove_min(self):
        """Delete the minimum entry outright, all stored positions with it."""
        if not self.entries:
            raise StructureError("remove_min on empty list")
        self.ops.steps += 1
        self.entries.pop()

    def predecessor(self, bound):
        """Handle to the entry with the largest key <= bound, else None."""
        i = self._first_leq(bound)
        if i < 0:
            return None
        return Handle(i, self.entries[i])

    def _first_leq(self, bound):
        # Exponential search from the tail: qualifying entries form a
        # suffix, and callers almost always want a short one.
        entries = self.entries
        n = len(entries)
        ops = self.ops
        ops.steps += 1
        if n == 0 or entries[-1].value > bound:
            return -1
        step = 1
        while step < n and entries[n - 1 - step].value <= bound:
            ops.steps += 1
            step <<= 1
        lo = max(0, n - step)          # entries left of lo are known > bound
        hi = n - 1 - (step >> 1)       # known <= bound
        while lo < hi:
            ops.steps += 1
            mid = (lo + hi) >> 1
            if entries[mid].value <= bound:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def split_at(self, handle):
        """Detach handle's entry plus everything smaller into a new list;
        keep the strictly larger prefix here."""
        entries = self.entries
        i = handle.index
        if not 0 <= i < len(entries) or entries[i] is not handle.entry:
            raise StructureError("stale handle")
        detached = OrderedList(self.ops)
        detached.entries = entries[i:]
        del entries[i:]
        self.ops.steps += 1
        return detached

    def concatenate(self, detached):
        """Absorb a detached list whose keys are all <= ours; an equal
        boundary key merges its positions into our tail entry, and every
        detached position of that key must follow ours.  The detached
        list is consumed."""
        other = detached.entries
        if not other:
            return
        entries = self.entries
        self.ops.steps += 1
        if entries:
            tail = entries[-1]
            head = other[0]
            if tail.value < head.value:
                raise StructureError(
                    "concatenate order violation: %r < %r" % (tail.value, head.value))
            if tail.value == head.value:
                if tail.positions[-1] >= head.positions[0]:
                    raise StructureError(
                        "concatenate interleaves positions of key %r" % tail.value)
                self.ops.steps += 1
                tail.positions.extend(head.positions)
                other = other[1:]
        entries.extend(other)
        detached.entries = []

    def iter_pairs(self, handle=None):
        """Yield (key, position) pairs from handle onward (whole list when
        handle is None) in increasing global position order."""
        entries = self.entries
        i = handle.index if handle is not None else 0
        while i < len(entries):
            entry = entries[i]
            value = entry.value
            for p in entry.positions:
                yield value, p
            i += 1
