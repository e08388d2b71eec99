"""Timing and spans around the benchmark's calls into otl.

Every call the benchmark makes into otl goes through ``Recorder.call``,
inside an ``Recorder.op`` that counts one attempted operation.  The same
code path runs traced and untraced: tracing only decides whether a span
(name, start, end, parent, op id, failed, bytes) is kept in memory.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# span tuple fields
NAME, START, END, PARENT, OP, FAILED, SIZE = range(7)


class Reference:
    """A fixed stdlib workload shaped like otl's hot paths, in three parts
    of about equal time: frozenset keys looked up in a table of 60k entries
    (cache pressure), recursion and small objects (interpreter dispatch),
    and set unions, subset tests, sorting and string joins.  Its time tracks
    the host's speed, which on shared hardware can swing by 2x within
    seconds; no one part tracked otl's reads, its DSL loads and its CLI
    calls all as well as the three together."""

    def __init__(self):
        self.table = {frozenset((i, i * 7 % 1009, i * 13 % 2003)): i for i in range(60000)}
        self.keys = list(self.table)
        rng = random.Random(2)
        self.sets = [frozenset(rng.sample(range(200), 8)) for _ in range(2000)]
        self.names = [f"concept_{i}" for i in range(2000)]

    def seconds(self) -> float:
        """One timed sample, with the collector off so that the size of the
        caller's heap (otl's model) does not change it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._lookups()
            _fib(21)
            _objects(7000)
            for _ in range(8):
                self._sets()
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _lookups(self) -> int:
        rng = random.Random(1)
        probe = frozenset((1, 2, 3, 4))
        acc = 0
        for _ in range(6000):
            key = self.keys[rng.randrange(60000)]
            acc += self.table[key] + (key < probe)
        return acc

    def _sets(self) -> str:
        found: dict[str, frozenset] = {}
        subs = []
        for i in range(500):
            union = self.sets[i] | self.sets[i + 1]
            found[self.names[i]] = union
            if self.sets[i] <= union:
                subs.append(self.names[i])
        ordered = sorted(found, key=lambda name: len(found[name]))
        return " ".join(f"{name}={len(found[name])}" for name in ordered) + " ".join(subs)


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def _objects(n: int) -> int:
    acc = 0
    for i in range(n):
        pair = _Pair(i, i * 3)
        fields = {"x": i, "pair": pair}
        acc += pair.a + pair.b + len(fields)
    return acc


class CallFailed(Exception):
    """An otl call raised; the op stops there and counts as failed."""


@dataclass
class Op:
    id: int
    span: int | None
    ok: bool = True
    seconds: float = 0.0
    last: int | None = field(default=None, repr=False)


class Recorder:
    def __init__(self, tracing: bool = False, reference_every: float | None = None, reference_repeat: int = 1):
        self.tracing = tracing
        self.spans: list[list] = []
        # with reference_every set, the reference workload is timed (the
        # median of reference_repeat runs) before an op whenever that many
        # seconds have passed since it last ran
        self.reference_every = reference_every
        self.reference_repeat = reference_repeat
        self.reference = Reference() if reference_every is not None else None
        self.references: list[float] = []
        self._reference_times: list[float] = []
        self._last_reference = float("-inf")
        # every op: (name, start, end, seconds in otl, ok)
        self.log: list[tuple[str, float, float, float, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        # ops on inputs that otl is known to fail on; counted apart, so the
        # workload's own operations show no failures
        self.known_attempted = 0
        self.known_failed = 0
        self._ids = itertools.count(1)
        self._op: Op | None = None

    @contextmanager
    def op(self, name: str, known_defect: bool = False):
        """One attempted operation; its calls share its op id and span.  With
        ``known_defect`` an exception counts in known_failed, not failed; a
        wrong answer still counts in wrong."""
        if self.reference_every is not None:
            if perf_counter() - self._last_reference >= self.reference_every:
                self.sample_reference()
        start = perf_counter()
        span = None
        if self.tracing:
            span = len(self.spans)
            self.spans.append([name, start, start, None, 0, False, 0])
        op = Op(next(self._ids), span)
        if span is not None:
            self.spans[span][OP] = op.id
        self._op = op
        try:
            yield op
        except CallFailed:
            op.ok = False
            if op.last is not None:
                self.spans[op.last][FAILED] = True
        finally:
            self._op = None
            self.log.append((name, start, perf_counter(), op.seconds, op.ok))
            if known_defect:
                self.known_attempted += 1
                self.known_failed += not op.ok
            else:
                self.attempted += 1
                self.failed += not op.ok
            if span is not None:
                self.spans[span][END] = perf_counter()
                self.spans[span][FAILED] = not op.ok

    def sample_reference(self) -> None:
        seconds = statistics.median(self.reference.seconds() for _ in range(self.reference_repeat))
        self._last_reference = perf_counter()
        self.references.append(seconds)
        self._reference_times.append(self._last_reference)

    def scale(self, start: float, end: float, target: float) -> float:
        """``target`` over the reference time around [start, end]: the mean
        of the last sample before ``start`` and the first after ``end``."""
        times = self._reference_times
        near = [bisect_right(times, start) - 1, bisect_left(times, end)]
        return target / statistics.fmean(self.references[i] for i in near if 0 <= i < len(times))

    def call(self, name: str, fn, *args, size: int = 0):
        """Time ``fn(*args)``; raise CallFailed if it raises."""
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # any exception from otl is a failed operation
            self.timed(name, start, perf_counter(), size=size)
            raise CallFailed(name) from None
        self.timed(name, start, perf_counter(), size=size)
        return result

    def timed(self, name: str, start: float, end: float, size: int = 0) -> None:
        """Account one call, timed here or in a child process on the same
        monotonic clock."""
        op = self._op
        op.seconds += end - start
        if self.tracing:
            op.last = len(self.spans)
            self.spans.append([name, start, end, op.span, op.id, False, size])

    def size(self, nbytes: int) -> None:
        """Record the byte size of the last call's output on its span."""
        if self.tracing:
            self.spans[self._op.last][SIZE] = nbytes

    def expect(self, op: Op, ok: bool) -> None:
        """Record whether an answer matched; a wrong answer fails the op
        and the call that produced it."""
        if not ok:
            op.ok = False
            self.wrong += 1
            if op.last is not None:
                self.spans[op.last][FAILED] = True

    def write(self, path: Path, env: dict) -> None:
        """Write the spans, with calls, busy time and failures per span name."""
        keys = ("name", "start", "end", "parent", "op", "failed", "bytes")
        summary: dict[str, dict] = {}
        for s in leaf_spans(self.spans):
            entry = summary.setdefault(s[NAME], {"calls": 0, "busy_ms": 0.0, "failures": 0})
            entry["calls"] += 1
            entry["busy_ms"] += (s[END] - s[START]) * 1e3
            entry["failures"] += bool(s[FAILED])
        doc = {"env": env, "summary": summary, "spans": [dict(zip(keys, s)) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def leaf_spans(spans: list[list]) -> list[list]:
    return [s for s in spans if s[PARENT] is not None]


def durations(spans: list[list], name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def median(spans: list[list], name: str, scale: float) -> float:
    values = durations(spans, name)
    if not values:
        raise KeyError(f"no span named {name}")
    return statistics.median(values) * scale


def module_totals(spans: list[list], modules: tuple[str, ...]) -> dict[str, dict]:
    """Calls, busy time and failures per otl module, from leaf spans."""
    totals = {mod: {"calls": 0, "busy_ms": 0.0, "failures": 0} for mod in modules}
    for s in leaf_spans(spans):
        mod = totals.get(s[NAME].split(".", 1)[0])
        if mod is not None:
            mod["calls"] += 1
            mod["busy_ms"] += (s[END] - s[START]) * 1e3
            mod["failures"] += bool(s[FAILED])
    return totals
