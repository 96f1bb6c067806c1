"""``live_update``: appends, a live ``Trainer`` and requests, all at once.

An appendable zlib v2 ``shard://`` dataset (64 features, ten digit
classes) stays under the program's 32 MiB decoded-block cache for the whole
run.  One writer thread appends ``BATCH_ROWS`` rows every ``APPEND_EVERY_S``
through ``Dataset.append`` (which fsyncs its manifests), crossing a
tail-shard rollover every ``APPENDS_PER_SHARD`` appends.  A
``Trainer`` thread tails the dataset and publishes each delta-trained
``GaussianNaiveBayes`` into the registry of an in-process ``ModelServer``;
the main thread sends single-row requests to that server, open loop, at
``REQUEST_RATE``.

The end-to-end metrics are the write path's: ``Dataset.append`` latency and
throughput, and the update lag from an append's commit to the publish of a
version that includes it.  Request latency is reported with the details and
the ``serve.*`` layer metrics.  The request rate is a twentieth of
``serve_wire``'s low rate, because the requests and the writer contend for
the interpreter lock: at 180 req/s append latency moved by 1.8x between
identical runs, and at 60 req/s the median append still spread by 23%
across ten seeds, against 12% at 20 req/s.
"""

from __future__ import annotations

import copy
import shutil
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from m3bench import inputs, loadgen, stats
from m3bench.tracing import Tracer
from m3bench.workload import Outcome, Workload

COLS = 64
CLASSES = 10
BATCH_ROWS = 256
#: A v2 append rewrites the whole tail shard, so append latency climbs with
#: the tail's fill (about 9 ms for the first batch of a shard to 50 ms for
#: the last).  With an even number of appends per shard the run's median
#: fell in the gap between the two middle fills and jumped by 25% between
#: identical runs; with an odd number it falls on the middle fill, and the
#: p95 on the last.
APPENDS_PER_SHARD = 9
SHARD_ROWS = APPENDS_PER_SHARD * BATCH_ROWS
BASE_ROWS = 2 * SHARD_ROWS
BLOCK_ROWS = 512
APPEND_EVERY_S = 0.125
POLL_S = 0.01
REQUEST_RATE = 20.0
CATCH_UP_TIMEOUT_S = 20.0
#: Tail of append latency and update lag: a 25-second run makes 200 appends,
#: ten of them beyond the p95.
TAIL_PERCENTILE = 95.0


def _rows_per_s(append_ms: List[float]) -> float:
    """Appended rows per second of append time, per tail-shard cycle, median over cycles.

    A cycle is ``APPENDS_PER_SHARD`` consecutive appends: one at each fill of
    the tail shard, so every cycle does the same work.
    """
    cycles = [
        append_ms[start : start + APPENDS_PER_SHARD]
        for start in range(0, len(append_ms) - APPENDS_PER_SHARD + 1, APPENDS_PER_SHARD)
    ]
    return stats.median(
        [stats.ratio(BATCH_ROWS * len(cycle), sum(cycle) / 1e3) for cycle in cycles or [append_ms]]
    )


@dataclass
class Append:
    generation: int
    started: float
    committed: float


class ServeResponse:
    """A ``ServeResult`` in the loadgen's response shape (milliseconds)."""

    def __init__(self, result: Any) -> None:
        self.predictions = result.predictions
        self.model_key = result.model_key
        self.version = result.model_version
        self.queue_wait_ms = result.queue_wait_s * 1e3
        self.compute_ms = result.compute_s * 1e3
        self.batch_rows = result.batch_rows


class LiveUpdate(Workload):
    name = "live_update"
    rates = {
        "request_rps": REQUEST_RATE,
        "append_every_s": APPEND_EVERY_S,
        "append_rows": BATCH_ROWS,
        "trainer_poll_s": POLL_S,
    }
    extra_layer_metrics = ("trainer.updates", "trainer.rows_per_update_mean")

    def __init__(self, workdir: Path, seed: int, seconds: float, in_process: bool) -> None:
        super().__init__(workdir, seed, seconds, in_process)
        self.directory = workdir / "live"
        self.spec = f"shard://{self.directory}"
        self.session: Any = None
        self.serving: Any = None
        self.trainer: Any = None
        self.writer: Any = None
        self.next_batch = 0
        self.measures = 0

    def _stop(self) -> None:
        for closer in (self.trainer, self.serving, self.writer, self.session):
            if closer is not None:
                closer.close()
        self.trainer = self.serving = self.writer = self.session = None

    def setup(self) -> float:
        from repro import Session
        from repro.ml import GaussianNaiveBayes
        from repro.serve import ModelRegistry, Trainer

        self._stop()
        shutil.rmtree(self.directory, ignore_errors=True)
        began = time.perf_counter()
        # Every batch the writer will append is built here, before timing.
        batches = int(self.seconds / APPEND_EVERY_S) + 1
        base, self.batches = inputs.live_inputs(
            self.seed, BASE_ROWS, batches, BATCH_ROWS, COLS, CLASSES
        )
        self.session = Session()
        self.session.create(
            self.spec, base.X, base.y, shard_rows=SHARD_ROWS, codec="zlib", block_rows=BLOCK_ROWS
        )
        seed_model = self.session.fit(GaussianNaiveBayes(), self.spec, engine="streaming").model
        self.registry = ModelRegistry()
        self.serving = self.session.serve(seed_model, registry=self.registry)
        self.writer = self.session.open(self.spec)
        self.trainer = Trainer(
            self.spec,
            copy.deepcopy(seed_model),
            registry=self.registry,
            poll_s=POLL_S,
            classes=np.arange(CLASSES),
        )
        self.trainer.mark_trained(BASE_ROWS, self.writer.generation)
        elapsed = time.perf_counter() - began
        self.base = base
        self.versions = {1: seed_model}
        self.rows = BASE_ROWS
        self.next_batch = 0
        return elapsed

    def _write(self, count: int, start: float, appends: List[Append], errors: List[str]) -> None:
        for k in range(count):
            due = start + k * APPEND_EVERY_S
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            batch = self.batches[self.next_batch]
            began = time.perf_counter()
            try:
                generation = self.writer.append(batch.X, batch.y)
            except Exception as error:  # noqa: BLE001 — a failed append is counted, the run goes on
                errors.append(f"append {self.next_batch} failed: {error!r}")
                continue
            finally:
                self.next_batch += 1
            committed = time.perf_counter()
            self.rows += batch.X.shape[0]
            appends.append(Append(generation, began, committed))

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        self.measures += 1
        tag = 100 + self.measures
        appends: List[Append] = []
        updates: List[tuple] = []
        errors: List[str] = []

        def on_update(update: Any) -> None:
            updates.append((time.perf_counter(), update.generation, update.version.version,
                            update.version.model, update.rows))

        count = int(seconds / APPEND_EVERY_S)
        due = inputs.poisson_schedule(self.seed, tag, REQUEST_RATE, seconds)
        rows = inputs.request_order(self.seed, tag, len(due), BASE_ROWS)
        self.trainer.start(on_update=on_update)
        try:
            start = time.perf_counter()
            writer = threading.Thread(
                target=self._write, args=(count, start, appends, errors), name="bench-writer"
            )
            writer.start()
            try:
                low = loadgen.open_loop("low", self._submit, due, rows, tracer)
            finally:
                writer.join()
            last = appends[-1].generation if appends else None
            deadline = time.perf_counter() + CATCH_UP_TIMEOUT_S
            while last is not None and time.perf_counter() < deadline:
                if updates and updates[-1][1] >= last:
                    break
                time.sleep(0.005)
        finally:
            self.trainer.stop()
        return self._outcome(low, appends, updates, errors, count)

    def _submit(self, row: int) -> Any:
        future = self.serving.submit(self.base.X[row])
        # Resolve to the loadgen's response shape on the resolving thread.
        shaped: "Future[Any]" = Future()

        def relay(done: Any) -> None:
            try:
                shaped.set_result(ServeResponse(done.result()))
            except Exception as error:  # noqa: BLE001 — relayed to the loadgen as a failure
                shaped.set_exception(error)

        future.add_done_callback(relay)
        return shaped

    def _outcome(self, low: loadgen.Phase, appends: List[Append], updates: List[tuple],
                 errors: List[str], count: int) -> Outcome:
        violations = list(errors)
        published = [version for _, _, version, _, _ in updates]
        if any(b <= a for a, b in zip(published, published[1:])):
            violations.append(f"published versions went backwards: {published}")
        for _, _, version, model, _ in updates:
            self.versions[version] = model
        # Served responses: in dispatch order, versions never go backwards,
        # and each equals its version's in-core prediction.
        served = [request.response.version for request in low.completed]
        if any(b < a for a, b in zip(served, served[1:])):
            violations.append("served model versions went backwards")
        by_version: Dict[int, List[loadgen.Request]] = {}
        for request in low.completed:
            by_version.setdefault(request.response.version, []).append(request)
        for version, requests in by_version.items():
            model = self.versions.get(version)
            rows = np.array([request.row for request in requests])
            expected = None if model is None else model.predict(self.base.X[rows])
            for index, request in enumerate(requests):
                if expected is None or not np.array_equal(
                    request.response.predictions, expected[index : index + 1]
                ):
                    request.error = AssertionError("response differs from in-core predict")
                    violations.append(f"response for row {request.row} differs from "
                                      f"in-core predict of version {version}")
        lags = []
        lagging = 0
        for append in appends:
            seen = next((at for at, generation, *_ in updates if generation >= append.generation), None)
            if seen is None:
                lagging += 1
            else:
                lags.append((seen - append.committed) * 1e3)
        if lagging:
            violations.append(f"{lagging} appends never reached a published version")
        append_ms = [(append.committed - append.started) * 1e3 for append in appends]
        low_ms = low.latencies_ms()
        attempted = len(low.requests) + count
        failed = low.failed + (count - len(appends)) + lagging
        layer = loadgen.serve_layer_metrics([low], wire_phase=low)
        layer.update(loadgen.loadgen_metrics([low]))
        layer.update({
            "trainer.updates": float(len(updates)),
            "trainer.rows_per_update_mean": float(np.mean([u[4] for u in updates])) if updates else 0.0,
        })
        detail = {
            "append_p50_ms": stats.median(append_ms),
            "append_p90_ms": stats.percentile(append_ms, 90.0),
            "update_lag_p50_ms": stats.median(lags),
            "update_lag_p90_ms": stats.percentile(lags, 90.0),
            "request_p50_ms": stats.median(low_ms),
            "request_p90_ms": stats.percentile(low_ms, 90.0),
            "request_p99_ms": stats.percentile(low_ms, 99.0),
            "late_p99_ms": stats.percentile(low.late_ms(), 99.0),
            "appends": len(appends),
            "updates": len(updates),
            "rows": self.rows,
        }
        return Outcome(
            e2e={
                "rows_per_s": _rows_per_s(append_ms),
                "op_ms": stats.median(append_ms),
                "op_tail_ms": stats.percentile(append_ms, TAIL_PERCENTILE),
                "busy_ms": stats.median(lags),
                "busy_tail_ms": stats.percentile(lags, TAIL_PERCENTILE),
            },
            attempted=attempted,
            failed=min(attempted, failed),
            violations=violations,
            detail=detail,
            layer=layer,
        )

    def close(self) -> None:
        self._stop()
