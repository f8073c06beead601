"""In-memory span and counter recorder that wraps functions from outside.

A span is one call of a wrapped function: its name, start and end times,
the index of the enclosing span (its parent) and the id of the timed
operation it belongs to. Spans stay in a list until the caller writes
them out. Counters are plain name -> number sums taken at the same call
boundaries. ``restore`` puts every wrapped attribute back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "name start end parent op tag")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op = None          # id of the timed operation in progress
        self._stack = []        # indices of open spans
        self._patches = []      # (owner, attribute, original)

    def begin(self, name, tag=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self.op, tag))
        self._stack.append(len(self.spans) - 1)

    def end(self):
        i = self._stack.pop()
        self.spans[i] = self.spans[i]._replace(end=self.clock())

    def wrap(self, owner, attr, name, tag=None, count=None, timed=True):
        """Replace ``owner.attr`` by a recording wrapper.

        ``tag(args, kwargs)`` labels the span; ``count(args, kwargs, result)``
        adds counters after the call. With ``timed=False`` the
        wrapper only counts calls and records no span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if not timed:
                result = original(*args, **kwargs)
            else:
                self.begin(name, tag(args, kwargs) if tag else None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end()
            if count:
                count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Each span's duration minus the union of its children's intervals."""
        children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted((self.spans[j] for j in children[i]),
                            key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def totals(self, ops=None):
        """Duration and self time summed per span name, and duration per
        (name, tag), over spans whose operation id is in ``ops`` (all spans
        when ``ops`` is None)."""
        total, self_total = Counter(), Counter()
        by_tag = Counter()
        for s, st in zip(self.spans, self.self_times()):
            if ops is not None and s.op not in ops:
                continue
            total[s.name] += s.end - s.start
            self_total[s.name] += st
            if s.tag is not None:
                by_tag[(s.name, s.tag)] += s.end - s.start
        return total, self_total, by_tag

    def dump(self, path):
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w") as f:
            f.write("index\tname\ttag\tstart\tend\tparent\top\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i}\t{s.name}\t{s.tag or ''}\t{s.start:.9f}\t"
                        f"{s.end:.9f}\t{'' if s.parent is None else s.parent}"
                        f"\t{'' if s.op is None else s.op}\n")
