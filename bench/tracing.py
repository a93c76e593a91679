"""Spans around the calls into each polycm layer, recorded from the outside.

The benchmark replaces the functions one polycm module takes from the layer
below (for example ``polycm.cm_engine.polygamma``) with wrappers that record
a span per call: name, start, end and the enclosing span.  Spans stay in
memory until the run ends; self times are derived from them afterwards.
Nothing inside ``polycm`` changes, so a span's time includes the wrapper cost
of its children; end-to-end figures come only from untraced runs.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


def span_name(fn) -> str:
    """'cm_engine.f_derivative' for polycm.cm_engine.f_derivative, whatever
    module the function is bound in."""
    return f"{fn.__module__.removeprefix('polycm.')}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._seen: set = set()
        self.distinct: dict[str, int] = {}
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str | None = None, keyed: bool = False):
        """fn with a span around each call.  keyed: also count calls whose
        arguments (argument, order and budget) were not seen before."""
        name = name or span_name(fn)
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, seen, distinct = self._stack, self._seen, self.distinct
        distinct.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if keyed:
                key = (nid, args, tuple(kwargs.items()))
                if key not in seen:
                    seen.add(key)
                    distinct[name] += 1
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, keyed: bool = False) -> None:
        """Replace owner.attr (a module global, a class attribute or a dict
        entry) by its traced version until restore()."""
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = self.wrap(orig, keyed=keyed)
        else:
            orig = getattr(owner, attr)
            setattr(owner, attr, self.wrap(orig, keyed=keyed))
        self._undo.append((owner, attr, orig))

    def forget(self) -> None:
        """Start counting distinct arguments afresh, as after clearing the
        program's caches."""
        self._seen.clear()

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) inside a span of the given name."""
        return self.wrap(fn, name=name)(*args, **kwargs)

    # -- derived figures -----------------------------------------------------

    def arrays(self):
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds (total minus the
        time covered by its direct child spans)."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_t, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def children_of(self, parents: tuple[str, ...], children: tuple[str, ...]) -> int:
        """Number of spans named in children whose direct parent is named in parents."""
        name, parent, _, _ = self.arrays()
        pid = [self._ids[p] for p in parents if p in self._ids]
        cid = [self._ids[c] for c in children if c in self._ids]
        if not pid or not cid:
            return 0
        has_parent = parent >= 0
        parent_name = np.full(len(name), -1, dtype=np.int32)
        parent_name[has_parent] = name[parent[has_parent]]
        return int(np.count_nonzero(np.isin(name, cid) & np.isin(parent_name, pid)))

    def save(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start - t0,
            end=end - t0,
        )
