"""Span recorder for the traced run.

`Recorder.install` swaps wrappers in for the layer boundaries below; each
call records (name, start, end, parent span, request id) in memory.
Generator boundaries (witness enumeration) record one span per item pulled,
so time spent by the consumer between items is not charged to them.
Comparators are remembered with the span that created them, so their
ts.stats counters can be split between the scan and the replay.  A target
missing from the package is skipped: it then simply reports zero calls.
"""

import gzip
import json
from time import perf_counter

# (module, class or None, attribute, span name, is a generator)
TARGETS = (
    ("string_compare", "MatchIndex", "__init__", "index", False),
    ("string_compare", "Comparator", "__init__", "comparator.init", False),
    ("string_compare", "Comparator", "append_to_p", "comparator.append", False),
    ("string_compare", "Comparator", "drop_front_of_s", "comparator.drop", False),
    ("string_compare", "Comparator", "witnesses", "enumerate", True),
    ("tandem", None, "compute_ltss", "compute", False),
    ("tandem", None, "replay_split", "replay", False),
    ("tandem", None, "ltss_stats", "stats_scan", False),
    ("cli", None, "compute_ltss", "compute", False),
    ("cli", None, "replay_split", "replay", False),
    ("cli", None, "ltss_stats", "stats_scan", False),
    ("cli", None, "main", "cli", False),
)


class Recorder:

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []          # (name id, start, end, parent index, request)
        self.stack = []
        self.request = -1
        self.yielded = 0         # items pulled through generator boundaries
        self.created = []        # (creating span index, comparator)
        self.counters = []       # ts.stats of each comparator, by creator
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        return index, parent

    def _close(self, index, name_id, start, parent):
        end = perf_counter()
        self.stack.pop()
        self.spans[index] = (name_id, start, end, parent, self.request)

    def span_name(self, index):
        return self.names[self.spans[index][0]] if index >= 0 else None

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        rec = self

        def traced(*args, **kwargs):
            index, parent = rec._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(index, name_id, start, parent)
        return traced

    def _wrap_init(self, fn, name):
        traced = self._wrap(fn, name)
        rec = self

        def traced_init(obj, *args, **kwargs):
            creator = rec.stack[-1] if rec.stack else -1
            traced(obj, *args, **kwargs)
            rec.created.append((creator, obj))
        return traced_init

    def _wrap_generator(self, fn, name):
        name_id = self._name_id(name)
        rec = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index, parent = rec._open()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec._close(index, name_id, start, parent)
                rec.yielded += 1
                yield item
        return traced

    def install(self, package):
        """Replace every present target of the ltss package by a wrapper."""
        for module_name, cls_name, attr, name, generator in TARGETS:
            owner = getattr(package, module_name, None)
            if owner is not None and cls_name is not None:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            if generator:
                wrapped = self._wrap_generator(fn, name)
            elif name == "comparator.init":
                wrapped = self._wrap_init(fn, name)
            else:
                wrapped = self._wrap(fn, name)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def harvest(self):
        """Read the counters of the comparators built since the last
        harvest, then drop them so their structures can be freed."""
        for creator, comp in self.created:
            st = comp.ts.stats
            self.counters.append({
                "creator": self.span_name(creator),
                "matches": st.append_calls,
                "extract_mins": st.extract_min_calls,
                "entries_moved": sum(st.transfers_out.values()),
                "tree_ops": st.tree_ops(),
                "drops": comp.front,
            })
        self.created = []

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds (the
        duration minus the part its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write(self, path):
        """All spans, gzip-compressed JSON, written once."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)
