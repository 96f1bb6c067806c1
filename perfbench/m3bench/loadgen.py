"""The load generator: open-loop Poisson phases and a closed loop of bursts.

Open loop: due times are precomputed from the seed (see
:func:`m3bench.inputs.poisson_schedule`); the sending thread waits for each
due time and submits, whatever happened to earlier requests.  Latency is
timed from the due time, so a stall in the generator or the system is
charged to every request it delayed, and how late each send left is kept
as a validity check (``late``).

Closed loop of bursts: the sender submits a fixed window of requests back
to back, waits for every one of them, and starts the next burst.

``submit(row)`` returns a ``concurrent.futures.Future`` of a response with
``predictions``, ``model_key``, ``queue_wait_ms``, ``compute_ms`` and
``batch_rows``.  Completion times are taken in the future's callback, on
the thread that resolved it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from m3bench import stats
from m3bench.tracing import Tracer

#: How long the generator waits for stragglers after a phase's last send.
DRAIN_TIMEOUT_S = 10.0


@dataclass
class Request:
    """One request and what came back for it."""

    row: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.done > 0.0 and self.error is None

    @property
    def latency_ms(self) -> float:
        """From the due time to completion."""
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class Phase:
    """The requests of one phase, in send order."""

    name: str
    requests: List[Request] = field(default_factory=list)
    #: Seconds from the first send to the last completion (summed over the
    #: rounds of a merged phase).
    elapsed_s: float = 0.0

    @property
    def sent(self) -> int:
        return sum(1 for request in self.requests if request.sent > 0.0)

    @property
    def completed(self) -> List[Request]:
        return [request for request in self.requests if request.ok]

    @property
    def failed(self) -> int:
        return len(self.requests) - len(self.completed)

    def latencies_ms(self) -> List[float]:
        return [request.latency_ms for request in self.completed]

    def late_ms(self) -> List[float]:
        return [request.late_ms for request in self.requests if request.sent > 0.0]

    def throughput(self) -> float:
        """Completed requests per second between first send and last completion."""
        return stats.ratio(len(self.completed), self.elapsed_s)


def merge(name: str, rounds: Sequence[Phase]) -> Phase:
    """The rounds of one phase, pooled into a single phase."""
    return Phase(
        name,
        [request for phase in rounds for request in phase.requests],
        sum(phase.elapsed_s for phase in rounds),
    )


def _track(request: Request, future: "Future[Any]", finished: Optional[threading.Semaphore]) -> None:
    def on_done(done: "Future[Any]") -> None:
        request.done = time.perf_counter()
        try:
            request.response = done.result()
        except Exception as error:  # noqa: BLE001 — every failure counts as a failed request
            request.error = error
        if finished is not None:
            finished.release()

    future.add_done_callback(on_done)


def _drain(phase: Phase, began: float) -> None:
    """Wait (bounded) for the phase's outstanding responses; mark stragglers failed."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for request in phase.requests:
        while request.sent > 0.0 and request.done == 0.0 and request.error is None:
            if time.perf_counter() > deadline:
                request.error = TimeoutError("no response before the phase drain timeout")
                break
            time.sleep(0.001)
    finished = [request.done for request in phase.requests if request.done > 0.0]
    phase.elapsed_s = (max(finished) if finished else time.perf_counter()) - began


def _send(tracer: Optional[Tracer], request_id: str, submit: Callable[[], Any]) -> Any:
    """``submit()``, with the spans it opens on this thread tagged ``request_id``."""
    if tracer is None:
        return submit()
    with tracer.request(request_id):
        return submit()


def open_loop(
    name: str,
    submit: Callable[[int], "Future[Any]"],
    due_s: Sequence[float],
    rows: Sequence[int],
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Send request ``i`` (pool row ``rows[i]``) at ``due_s[i]`` after the start."""
    phase = Phase(name)
    start = time.perf_counter()
    phase.requests = [Request(row=int(row), due=start + float(due)) for due, row in zip(due_s, rows)]
    for index, request in enumerate(phase.requests):
        wait = request.due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        request.sent = time.perf_counter()
        try:
            future = _send(tracer, f"{name}-{index}", lambda: submit(request.row))
        except Exception as error:  # noqa: BLE001 — a refused submit is a failed request
            request.error = error
            continue
        _track(request, future, None)
    _drain(phase, start)
    return phase


def burst_loop(
    name: str,
    submit: Callable[[int], "Future[Any]"],
    window: int,
    duration_s: float,
    rows: Sequence[int],
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Send ``window`` requests back to back, await them all; repeat for ``duration_s``."""
    phase = Phase(name)
    finished = threading.Semaphore(0)
    start = time.perf_counter()
    stop = start + duration_s
    index = 0
    while time.perf_counter() < stop:
        for _ in range(window):
            now = time.perf_counter()
            request = Request(row=int(rows[index % len(rows)]), due=now, sent=now)
            index += 1
            phase.requests.append(request)
            try:
                future = _send(tracer, f"{name}-{index - 1}", lambda: submit(request.row))
            except Exception as error:  # noqa: BLE001 — a refused submit is a failed request
                request.error = error
                finished.release()
                continue
            _track(request, future, finished)
        for _ in range(window):
            if not finished.acquire(timeout=DRAIN_TIMEOUT_S):
                _drain(phase, start)
                return phase
    _drain(phase, start)
    return phase


def serve_layer_metrics(phases: Sequence[Phase], wire_phase: Phase) -> dict:
    """``serve.*`` from every response's own accounting, ``net.wire_*`` from one phase.

    Wire time is what the client saw from send to completion minus what the
    server says the request spent queued and computing.  All requests are
    single rows, so a batch of ``batch_rows`` rows served exactly that many
    requests, and the number of batches is the sum of ``1 / batch_rows``.
    """
    responses = [request.response for phase in phases for request in phase.completed]
    wire = [
        (request.done - request.sent) * 1e3
        - request.response.queue_wait_ms
        - request.response.compute_ms
        for request in wire_phase.completed
    ]
    batch_rows = [response.batch_rows for response in responses]
    return {
        "serve.compute_p50_ms": stats.median([r.compute_ms for r in responses]),
        "serve.queue_wait_p50_ms": stats.median([r.queue_wait_ms for r in responses]),
        "serve.queue_wait_p99_ms": stats.percentile([r.queue_wait_ms for r in responses], 99.0),
        "serve.batch_rows_mean": float(np.mean(batch_rows)) if batch_rows else 0.0,
        "serve.batches": float(round(sum(1.0 / rows for rows in batch_rows if rows > 0))),
        "net.wire_p50_ms": stats.median(wire),
        "net.wire_p99_ms": stats.percentile(wire, 99.0),
    }


def loadgen_metrics(open_phases: Sequence[Phase], other_phases: Sequence[Phase] = ()) -> dict:
    """How honest the generator was: lateness over open-loop phases, counts per phase."""
    late = [value for phase in open_phases for value in phase.late_ms()]
    metrics = {
        "loadgen.late_p50_ms": stats.median(late),
        "loadgen.late_p99_ms": stats.percentile(late, 99.0),
        "loadgen.sent": float(sum(phase.sent for phase in open_phases)),
        "loadgen.completed": float(sum(len(phase.completed) for phase in open_phases)),
    }
    for phase in open_phases:
        metrics[f"loadgen.{phase.name}.late_p99_ms"] = stats.percentile(phase.late_ms(), 99.0)
    for phase in list(open_phases) + list(other_phases):
        metrics[f"loadgen.{phase.name}.sent"] = float(phase.sent)
        metrics[f"loadgen.{phase.name}.completed"] = float(len(phase.completed))
    return metrics
