"""In-memory span recorder for the traced run.

A span has a name, a start and end (``time.perf_counter`` seconds), the id
of the span that was open on the same thread when it began (its parent),
and an optional request id.  Work a layer hands to another thread (a
prefetch producer, a decode worker, a dispatcher) therefore shows up as a
span with no parent: from outside the program, the causing span is not
visible there.

Spans are kept in a list and summarised when the run ends; nothing is
written while the workload is timed.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[Any] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counters and per-key records from any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.records: Dict[str, Dict[Any, Any]] = defaultdict(dict)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request: Any) -> Iterator[None]:
        """Spans begun on this thread inside the block carry ``request``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request
        try:
            yield
        finally:
            self._local.request = previous

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1].id if stack else None,
            request=getattr(self._local, "request", None),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def inside(self, name: str) -> bool:
        """Whether a ``name`` span is open on the calling thread."""
        return any(span.name == name for span in self._stack())

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def record(self, kind: str, key: Any, value: Any) -> None:
        """Remember ``value`` under ``key`` (last write wins) for ``kind``."""
        with self._lock:
            self.records[kind][key] = value

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[Span, Any, tuple, dict], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` run inside a ``name`` span; ``after`` sees each successful call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- summaries -----------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        """Every finished span called ``name``."""
        return [span for span in self.spans if span.name == name]

    def total_s(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other (they can run on other threads only when
    a caller passes the parent explicitly), so coverage is the union of the
    children's intervals clipped to the parent's.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        ]
        result[span.id] = span.duration - covered_length(clipped)
    return result

