"""Outside-in tracing of tamkit's layers.

The tracer wraps functions and methods of tamkit's modules from here,
leaving the package's sources untouched. A name imported into several
modules (``extract`` lives in ``features`` and is imported by ``svm``,
``declist`` and ``maxent``) is replaced in every module that holds it, so
no call escapes its span. Spans live in memory as parallel arrays (name,
parent span, start, end) and are written out when the pass ends; counts
read from arguments and return values (support vectors, GIS iterations)
are kept beside them.

Inner-loop primitives are left unwrapped on purpose: ``svm.kernel``,
``knn.similarity``, ``FeatureVector.dot``, ``suffix_ngrams`` and
``tokenize`` run millions of times per run, and a span around each would
cost more than the work it measures. Their time is the self time of the
span that calls them.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.encodings: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, after=None):
        """``name`` is a span name or a function of the call's arguments
        returning one; ``after(tracer, args, result)`` records counts."""
        static = None if callable(name) else self._name_id(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(static if static is not None
                           else self._name_id(name(*args, **kwargs)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def function(self, module: str, attr: str, name, after=None):
        """Wrap ``module.attr`` in every tamkit module that binds it."""
        original = getattr(sys.modules[module], attr)
        traced = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "tamkit" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def method(self, cls, attr: str, name, after=None):
        """Wrap a method (plain or classmethod) on its class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, after))
        else:
            replacement = self._wrap(original, name, after)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self):
        """Put every original back and check that none is left wrapped."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
            if vars(owner)[key] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{key}")

    # -- reading the spans -------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, summed duration, summed self time). A span's
        self time is its duration minus the durations of its direct
        children."""
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=dur - child, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path):
        """Spans as tab-separated rows: id, parent, name, start, end
        (seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t"
                         f"{self.names[self.name_of[sid]]}\t"
                         f"{self.start[sid] - t0:.7f}\t{self.end[sid] - t0:.7f}\n")
