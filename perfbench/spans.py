"""In-memory spans around every public function of the program's layers.

``Tracer.install`` replaces each public function of the listed modules,
and each public method of the listed classes, with a wrapper that
records a span.  A function is replaced in every module namespace that
binds it, so ``expand`` is traced when ``roles`` and ``sharing`` call
their own imported name as well as when ``prf.expand`` is called.

While the program runs, a span costs two pairs in a flat event log:
(name id, open time) and (CLOSE, close time).  ``finish`` turns the log
into spans with name, start, end, parent and round; ``write`` stores
them as one JSON file.  The program runs on one thread, so spans nest
and a span's children never overlap: self time is a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NO_ROUND = -1
NO_PARENT = -1
CLOSE = -1
ROUND_SPAN = "harness.run_round"


class _CountingEncryptor:
    """Forwards to a cipher context and counts the keystream bytes drawn."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def update(self, data):
        self._tracer.count("prf.keystream_bytes", len(data))
        return self._inner.update(data)

    # Counted too, so the ratio stays right if prf moves to encrypting
    # into a preallocated buffer.
    def update_into(self, data, buf):
        self._tracer.count("prf.keystream_bytes", len(data))
        return self._inner.update_into(data, buf)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Spans and per-round counts of one traced run.

    Each ``ROUND_SPAN`` span starts a new round, numbered from 0; a span
    belongs to the round of the round span it runs in.  Counts are filed
    under ``current_round``, which the caller sets to the same number.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._events = array("q")
        self.counts: Dict[Tuple[int, str], int] = defaultdict(int)
        self.current_round = NO_ROUND
        self._restore: List[Callable[[], None]] = []
        # Span columns, filled by finish().
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.round = array("i")

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> None:
        self._events.append(self._name_id(name))
        self._events.append(time.perf_counter_ns())

    def close(self) -> None:
        self._events.append(CLOSE)
        self._events.append(time.perf_counter_ns())

    def count(self, key: str, amount: int) -> None:
        self.counts[(self.current_round, key)] += amount

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        # open() and close() inlined with every lookup bound once: this
        # runs around thousands of calls per round.
        nid = self._name_id(name)
        append = self._events.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            append(nid)
            append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                append(CLOSE)
                append(clock())
            if note is not None:
                note(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, modules: Sequence[ModuleType],
                classes: Dict[type, str],
                notes: Dict[str, Callable],
                skip: Sequence[str] = ()) -> None:
        """Wrap public functions of ``modules`` and methods of ``classes``.

        ``classes`` maps a class to the span prefix of its methods;
        ``notes`` maps a span name to a hook called with the arguments
        and result, to record counts; ``skip`` names spans left unwrapped.
        """
        wrapped: Dict[int, Callable] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name not in skip:
                    wrapped[id(obj)] = self.wrap(name, obj, notes.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        for cls, prefix in classes.items():
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = f"{prefix}.{attr}"
                if name not in skip:
                    self._patch(cls, attr, self.wrap(name, obj, notes.get(name)))

    def count_keystream(self, prf_module: ModuleType) -> None:
        """Count the bytes ``prf`` feeds its AES-CTR encryptors."""
        inner = prf_module._keystream
        tracer = self

        @functools.wraps(inner)
        def keystream(*args, **kwargs):
            return _CountingEncryptor(inner(*args, **kwargs), tracer)

        self._patch(prf_module, "_keystream", keystream)

    def _patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis ------------------------------------------------------------

    def finish(self) -> None:
        """Turn the event log into span columns."""
        round_id = self._name_ids.get(ROUND_SPAN)
        rounds_seen = 0
        stack: List[int] = []
        events = self._events
        for i in range(0, len(events), 2):
            code, t = events[i], events[i + 1]
            if code == CLOSE:
                self.end[stack.pop()] = t
                continue
            parent = stack[-1] if stack else NO_PARENT
            if code == round_id:
                rnd = rounds_seen
                rounds_seen += 1
            else:
                rnd = self.round[parent] if parent != NO_PARENT else NO_ROUND
            stack.append(len(self.start))
            self.name.append(code)
            self.start.append(t)
            self.end.append(t)
            self.parent.append(parent)
            self.round.append(rnd)
        self._events = array("q")

    def self_ns(self) -> List[int]:
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for idx, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                out[parent] -= own[idx]
        return out

    def per_round(self) -> Dict[int, Dict[str, float]]:
        """Per round: ``<span>.calls``, ``<span>.self_ns``, ``<span>.incl_ns``
        and every recorded count, summed over the round."""
        rounds: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self_ns = self.self_ns()
        for idx, rnd in enumerate(self.round):
            if rnd == NO_ROUND:
                continue
            name = self.names[self.name[idx]]
            acc = rounds[rnd]
            acc[name + ".calls"] += 1
            acc[name + ".self_ns"] += self_ns[idx]
            acc[name + ".incl_ns"] += self.end[idx] - self.start[idx]
        for (rnd, key), value in self.counts.items():
            if rnd != NO_ROUND:
                rounds[rnd][key] += value
        return rounds

    def durations_ns(self, name: str) -> List[int]:
        """Duration of every in-round span called ``name``."""
        nid = self._name_ids.get(name)
        return [self.end[i] - self.start[i] for i, n in enumerate(self.name)
                if n == nid and self.round[i] != NO_ROUND]

    def outermost_incl_ns(self, prefix: str) -> Dict[int, int]:
        """Per round, time inside spans named ``prefix.*`` not nested in another."""
        ids = {i for i, n in enumerate(self.names) if n.startswith(prefix + ".")}
        out: Dict[int, int] = defaultdict(int)
        for idx, nid in enumerate(self.name):
            rnd = self.round[idx]
            if nid in ids and rnd != NO_ROUND and not self._has_ancestor(idx, ids):
                out[rnd] += self.end[idx] - self.start[idx]
        return out

    def _has_ancestor(self, idx: int, ids) -> bool:
        parent = self.parent[idx]
        while parent != NO_PARENT:
            if self.name[parent] in ids:
                return True
            parent = self.parent[parent]
        return False

    def summary(self, rounds: Dict[int, Dict[str, float]]
                ) -> List[Tuple[str, float, float, float]]:
        """(span, calls, self ms, inclusive ms), each the median over
        ``rounds`` of its per-round sum; heaviest self time first."""
        rows = []
        for name in self.names:
            def med(key):
                return statistics.median(r.get(f"{name}.{key}", 0.0)
                                         for r in rounds.values())
            if rounds and any(f"{name}.calls" in r for r in rounds.values()):
                rows.append((name, med("calls"), med("self_ns") / 1e6,
                             med("incl_ns") / 1e6))
        rows.sort(key=lambda row: -row[2])
        return rows

    def write(self, path, meta: dict) -> None:
        t0 = min(self.start, default=0)
        doc = dict(meta)
        doc["clock"] = "perf_counter_ns, relative to the first span"
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "parent": self.parent.tolist(),
            "round": self.round.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
