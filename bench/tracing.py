"""Spans and counters recorded around the calls into iphfit's modules.

Nothing here edits the package: a :class:`Tracer` replaces functions and
methods by timing wrappers in every ``iphfit`` module that holds a
reference to them, and :meth:`Tracer.restore` puts the originals back.

A span is (name, start, end, parent).  Spans live in flat arrays in memory
and are written out once, when the run ends.  A layer's self time is the
total duration of its spans minus the part covered by their child spans.
Work the benchmark does for itself inside a traced pass (output checks and
the draw-counting replay) runs under spans named ``bench.*``; these are
children like any other, so they never count toward a layer's self time,
and their total is reported apart from the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- spans ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _call(self, name_id: int, func, args, kwargs):
        idx = self._open(name_id)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(idx)

    def call(self, name: str, func, *args, **kwargs):
        """``func(*args, **kwargs)`` inside one ``name`` span."""
        return self._call(self._id(name), func, args, kwargs)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def self_times(self) -> dict[str, float]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        par = np.frombuffer(self.parent, dtype=np.int32)
        own = np.bincount(ids, weights=dur, minlength=len(self.names))
        has_parent = par >= 0
        covered = np.bincount(
            ids[par[has_parent]], weights=dur[has_parent], minlength=len(self.names)
        )
        return {name: float(own[i] - covered[i]) for i, name in enumerate(self.names)}

    def spans_of(self, name: str):
        """(index, parent index, duration) arrays of the spans called ``name``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        idx = np.nonzero(ids == self._ids.get(name, -1))[0]
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return idx, np.frombuffer(self.parent, dtype=np.int32)[idx], dur[idx]

    def total_time(self, name: str) -> float:
        return float(self.spans_of(name)[2].sum())

    def count(self, name: str) -> int:
        return len(self.spans_of(name)[0])

    def write(self, path) -> None:
        """Write every span (compressed arrays) and the counters."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counters=np.array(json.dumps(dict(self.counters))),
        )

    # -- wrappers -------------------------------------------------------

    def timed(self, name: str, func):
        """Wrapper that records one ``name`` span per call of ``func``."""
        nid = self._id(name)
        call = self._call

        def wrapper(*args, **kwargs):
            return call(nid, func, args, kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def patch_function(self, module, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` by ``make_wrapper(original)`` in every
        loaded iphfit module that holds a reference to the original."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iphfit" or mod_name.startswith("iphfit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(original))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
