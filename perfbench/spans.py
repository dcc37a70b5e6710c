"""In-memory spans for the traced benchmark run, recorded from outside.

A span is ``(name, start, end, parent)`` on the monotonic clock, where
``parent`` is the index of the enclosing span (``-1`` for a root).
Spans are kept in memory while the run executes and written out once at
the end as Chrome trace-event JSON (``chrome://tracing`` / Perfetto
open it).

The benchmark never edits the program under test: :meth:`SpanRecorder.
instrument` replaces a public method on its class with a timing wrapper
and returns the function that puts the original back.  A wrapper that
runs in a forked worker process (the per-fold training pool) records
into that worker's own copy of the recorder, which writes its spans to
``worker_dir`` when the worker exits.

The layer of a span is the part of its name before the first dot.  The
structural spans ``run``, ``setup`` and ``explore`` belong to no layer:
their self time is the time no layer claims.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: spans that group the run's phases; their self time is unattributed
STRUCTURAL = frozenset({"run", "setup", "explore"})


@dataclass
class Span:
    """One timed call; ``parent`` indexes the enclosing span or is -1."""

    name: str
    start: float
    end: float
    parent: int = -1
    #: work units the call handled (configs evaluated, bytes saved...)
    count: float = 0.0
    pid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> Optional[str]:
        """The layer this span's self time is charged to (None: no layer)."""
        return None if self.name in STRUCTURAL else self.name.split(".")[0]


class SpanRecorder:
    """Collect spans of one process; forked workers keep their own."""

    def __init__(self, worker_dir: Optional[Path] = None):
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: List[Span] = []
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------
    def _local(self) -> "SpanRecorder":
        """This recorder, reset on first use inside a forked worker."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._stack = []
            if self.worker_dir is not None:
                # multiprocessing runs its finalizers when a worker
                # process returns from its target, before os._exit
                from multiprocessing.util import Finalize

                Finalize(self, self._dump_worker, exitpriority=10)
        return self

    def begin(self, name: str, start: Optional[float] = None) -> int:
        rec = self._local()
        parent = rec._stack[-1] if rec._stack else -1
        now = time.monotonic() if start is None else start
        rec.spans.append(Span(name, now, now, parent, pid=rec.pid))
        index = len(rec.spans) - 1
        rec._stack.append(index)
        return index

    def end(self, index: int, count: float = 0.0) -> None:
        rec = self._local()
        span = rec.spans[index]
        span.end = time.monotonic()
        span.count = count
        rec._stack.pop()

    def add(self, name: str, start: float, end: float) -> int:
        """Record an already finished span under the current one."""
        index = self.begin(name, start)
        self._stack.pop()
        self.spans[index].end = end
        return index

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def instrument(
        self,
        owner: type,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, object], float]] = None,
    ) -> Callable[[], None]:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``count(args, result)`` gives the span's work count.  Returns a
        function that restores the original attribute.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = recorder.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                recorder.end(
                    index, count(args, result) if count is not None else 0.0
                )

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    # -- worker spans ----------------------------------------------------
    def _dump_worker(self) -> None:
        # a pid can come back in a later pool; the clock keeps names apart
        path = self.worker_dir / f"worker-{self.pid}-{time.monotonic_ns()}.json"
        with open(path, "w") as handle:
            json.dump([_span_row(span) for span in self.spans], handle)

    def worker_spans(self) -> List[Span]:
        """Spans the forked workers wrote out (empty without workers)."""
        if self.worker_dir is None:
            return []
        spans: List[Span] = []
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            with open(path) as handle:
                spans.extend(Span(**row) for row in json.load(handle))
        return spans


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.index = self.recorder.begin(self.name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.end(self.index)


def _span_row(span: Span) -> Dict[str, object]:
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "parent": span.parent,
        "count": span.count,
        "pid": span.pid,
    }


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so a self time is never negative.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        )
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def layer_self_times(spans: Sequence[Span]) -> Dict[Optional[str], float]:
    """Self time summed per layer; key ``None`` is the unattributed time."""
    totals: Dict[Optional[str], float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def totals_by_name(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed duration and summed work count."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "count": 0.0})
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["count"] += span.count
    return out


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """The spans as Chrome trace-event JSON (complete ``X`` events)."""
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.layer or "unattributed",
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": span.pid,
            "tid": span.pid,
            "args": {"parent": span.parent, "count": span.count},
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
