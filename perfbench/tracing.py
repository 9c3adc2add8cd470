"""Outside-in span tracing: wrap public functions, keep spans in memory.

The benchmark times the calls *into* each layer from its own code, so
the program under test carries no tracing code.  :class:`SpanTracer`
swaps a module or class attribute for a timing wrapper; every call
site that looks the attribute up at call time (``L.linear_fwd(...)``,
``self.model.forward_mixed(...)``, ``type(c).append_batch(...)``) then
reaches the wrapper.  Spans are four parallel arrays (name id, parent
index, start, end) so a few hundred thousand of them stay cheap; they
are written to disk only when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the children of a span
never overlap and the subtraction is exact.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

__all__ = ["SpanTracer"]


class SpanTracer:
    """Records ``(name, parent, start, end)`` spans around wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, nbytes=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``nbytes(args, result)``, when given, returns the bytes the call
        touched, computed from its operand sizes; they accumulate per
        span name in :attr:`bytes`.
        """
        nid = self._id(name)
        stack, clock = self._stack, self.clock
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if nbytes is not None:
                self.bytes[name] = self.bytes.get(name, 0.0) + nbytes(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, nbytes=None) -> None:
        """Replace ``owner.attr`` (module function, method or
        classmethod) by a traced wrapper until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, nbytes))
        else:
            replacement = self.wrap(name, original, nbytes)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> np.ndarray:
        """Wall durations of every span called ``name``."""
        if name not in self._ids:
            return np.zeros(0)
        sel = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[sel]

    def summary(self) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over every recorded span."""
        n = len(self.start)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {name: (float(self_s[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write the raw spans (``names``, ``name_id``, ``parent``,
        ``start``, ``end``) as one ``.npz`` file."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
