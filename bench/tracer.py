"""Outside-in span tracer for the cavitydft benchmark.

The tracer wraps module-level functions at the module where their callers
look them up (``cavitydft.scf.apply_hamiltonian`` is the binding that
``HamiltonianContext.apply`` resolves on every call), so no file of the
package changes.  Every call becomes one span: a name, a start, an end, the
index of the enclosing span, and a work count.  Spans stay in flat arrays in
memory until :meth:`Tracer.write` saves them; self time is a span's duration
minus the durations of its direct children.

Modules are taken from ``sys.modules`` because ``cavitydft/__init__.py``
re-exports functions whose names shadow their modules: attribute access
``cavitydft.propagate`` gives the function, not the module.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class Tracer:
    """Records spans around wrapped functions until :meth:`restore`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.count = array("q")
        self._stack = [-1]
        self._patched = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, module_name: str, attr: str, span_name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``count``, when given, maps the call's arguments to the span's work
        count (the default count is one call).
        """
        module = sys.modules[module_name]
        original = getattr(module, attr)
        name_id = self._intern(span_name)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, counts, stack = self.parent, self.count, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            counts.append(count(*args, **kwargs) if count is not None else 1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def summary(self) -> dict:
        """Per span name: call count, work count, and total and self seconds.

        ``durations`` holds the individual span lengths, for percentiles.
        """
        ids = np.array(self.name_id, dtype=np.int64)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        counts = np.array(self.count, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = ids == name_id
            out[name] = {"calls": int(np.count_nonzero(mask)),
                         "count": int(counts[mask].sum()),
                         "total_s": float(dur[mask].sum()),
                         "self_s": float(self_time[mask].sum()),
                         "durations": dur[mask]}
        return out

    def write(self, path) -> None:
        """Save every span (name, start, end, parent index, count) as .npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int64),
            count=np.array(self.count, dtype=np.int64))
