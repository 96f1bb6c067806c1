"""Spans around the program's public calls, one group per layer.

Only the traced run installs these.  Each wrapper times a public function
of one module from outside and counts what it can see in the arguments and
the result; no module of the program is edited.  :func:`instrument`
returns an :class:`~contextlib.ExitStack` whose ``close`` removes every
wrapper again.

Layer names are the program's module names: ``sharded``, ``decode``
(the v2 block reader), ``chunks``, ``engines``, ``ml``, ``serve``,
``net``, ``trainer`` and ``session``.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from typing import Any, Callable, Dict
from unittest import mock

from m3bench.host import thread_bytes_written
from m3bench.stats import ratio
from m3bench.tracing import Tracer, self_times


def _traced_stream_type(tracer: Tracer, cache: Dict[type, type], cls: type) -> type:
    """A subclass of a chunk stream type whose ``__next__`` is a span.

    ``blocks()`` and ``for chunk in stream`` both go through
    ``type(stream).__next__``, so swapping an instance's class catches every
    chunk the consumer waits for, whichever executor produced it.
    """
    traced = cache.get(cls)
    if traced is None:

        def __next__(self: Any) -> Any:
            span = tracer.begin("chunks.next")
            try:
                chunk = cls.__next__(self)
            finally:
                tracer.end(span)
            tracer.add("chunks.delivered")
            return chunk

        traced = cache[cls] = type(cls.__name__, (cls,), {"__next__": __next__})
    return traced


def _blocks_covered(stream: Any, matrix: Any) -> int:
    """v2 blocks a stream's plan touches (0 for raw matrices)."""
    from repro.api.chunks import compressed_backing

    backing = compressed_backing(matrix)
    bounds = list(stream.plan.bounds)
    if backing is None or not bounds:
        return 0
    manifest = backing.manifest
    block_rows = manifest.block_rows
    lo, hi = bounds[0][0], bounds[-1][1]
    covered = 0
    for shard in manifest.shards:
        first = max(lo, shard.start_row) - shard.start_row
        last = min(hi, shard.start_row + shard.rows) - shard.start_row
        if last > first:
            covered += (last - 1) // block_rows - first // block_rows + 1
    return covered


def instrument(tracer: Tracer) -> ExitStack:
    """Wrap every layer's public calls with ``tracer`` spans."""
    from repro.api import engines, session, sharded
    from repro.api.chunks import ChunkBufferPool
    from repro.api.dataset import Dataset
    from repro.data.formats_v2 import BlockedMatrixReader
    from repro.ml import GaussianNaiveBayes, KMeans, LogisticRegression
    from repro.ml.linear_model.objectives import LogisticRegressionObjective
    from repro.net import protocol
    from repro.serve import trainer
    from repro.serve.server import ModelServer

    patches = ExitStack()

    def replace(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(current value)`` until ``patches`` closes."""
        patches.enter_context(mock.patch.object(owner, attr, make(getattr(owner, attr))))

    def wrap(owner: Any, attr: str, name: str, after: Any = None) -> None:
        replace(owner, attr, lambda fn: tracer.wrap(name, fn, after))

    # -- sharded: row gathers, coded fetches, appends ----------------------
    def count_gather(_span: Any, result: Any, _args: tuple, _kwargs: dict) -> None:
        tracer.add("sharded.gather_calls")
        tracer.add("sharded.gather_bytes", getattr(result, "nbytes", 0))

    wrap(sharded.ShardedMatrix, "__getitem__", "sharded.gather", count_gather)
    wrap(sharded.ShardedMatrix, "gather_into", "sharded.gather", count_gather)
    wrap(sharded.CompressedShardedMatrix, "gather_into", "sharded.gather", count_gather)
    wrap(sharded.CompressedShardedMatrix, "fetch_compressed", "sharded.fetch_compressed")

    def count_fetch(_span: Any, payload: Any, _args: tuple, _kwargs: dict) -> None:
        tracer.add("sharded.fetch_compressed_bytes", payload.compressed_bytes)

    wrap(BlockedMatrixReader, "fetch_block", "sharded.fetch_block", count_fetch)

    def traced_append(fn: Any) -> Any:
        def append(self: Any, X: Any, y: Any = None) -> int:
            written = thread_bytes_written()
            span = tracer.begin("sharded.append")
            try:
                return fn(self, X, y)
            finally:
                tracer.end(span)
                tracer.add("sharded.append_bytes_written", thread_bytes_written() - written)
                tracer.add("sharded.append_bytes_given", X.nbytes + (0 if y is None else y.nbytes))

        return append

    replace(Dataset, "append", traced_append)
    wrap(sharded.ShardAppender, "append", "sharded.appender_append")
    wrap(os, "fsync", "sharded.fsync")

    # -- decode: one span per block decoded, keyed by block ---------------
    def traced_decode(fn: Any) -> Any:
        def decode_block_into(self: Any, fetched: Any, lo: int, hi: int, out: Any,
                              out_offset: int = 0) -> None:
            span = tracer.begin("decode.block")
            try:
                return fn(self, fetched, lo, hi, out, out_offset)
            finally:
                tracer.end(span)
                # The appender re-reads a v2 tail to rewrite it; only decodes
                # done for a scan count towards read amplification.
                if not tracer.inside("sharded.append"):
                    tracer.add("decode.scan_blocks")
                header = self.header
                block = header.blocks[fetched.index]
                raw = block.rows * header.cols * header.storage_dtype.itemsize
                # A v2 tail shard is rewritten whole on each append, so the
                # file's row count is part of which block this is.
                key = (str(self.path), header.rows, fetched.index)
                tracer.record("decode.block", key, (raw, fetched.compressed_bytes))

        return decode_block_into

    replace(BlockedMatrixReader, "decode_block_into", traced_decode)

    # -- chunks: buffer leases and every chunk a consumer waits for --------
    wrap(ChunkBufferPool, "lease", "chunks.lease")
    stream_types: Dict[type, type] = {}

    def traced_open(fn: Any) -> Any:
        def open_chunk_stream(matrix: Any, *args: Any, **kwargs: Any) -> Any:
            stream = fn(matrix, *args, **kwargs)
            tracer.add("decode.blocks_covered", _blocks_covered(stream, matrix))
            stream.__class__ = _traced_stream_type(tracer, stream_types, type(stream))
            return stream

        return open_chunk_stream

    replace(engines, "open_chunk_stream", traced_open)
    replace(trainer, "open_chunk_stream", traced_open)

    # -- engines -------------------------------------------------------------
    wrap(engines.StreamingEngine, "fit", "engines.streaming_fit")
    wrap(engines.StreamingEngine, "predict", "engines.streaming_predict")
    wrap(engines.LocalEngine, "fit", "engines.local_fit")

    # -- ml: the estimators the workloads train and serve ---------------------
    for estimator in (LogisticRegression, GaussianNaiveBayes):
        wrap(estimator, "partial_fit", "ml.partial_fit")
        wrap(estimator, "predict_chunk", "ml.predict_chunk")
    wrap(KMeans, "predict_chunk", "ml.predict_chunk")
    wrap(LogisticRegressionObjective, "value_and_gradient", "ml.objective")

    # -- serve, net, trainer, session ------------------------------------------
    wrap(ModelServer, "submit", "serve.submit")
    for name in ("parse_request_line", "parse_request"):
        wrap(protocol, name, "net.decode")
    for name in ("encode_request", "response_record", "encode_record"):
        wrap(protocol, name, "net.encode")

    def count_poll(span: Any, update: Any, _args: tuple, _kwargs: dict) -> None:
        if update is not None:
            tracer.add("trainer.train_s", span.duration)

    wrap(trainer.Trainer, "poll_once", "trainer.poll", count_poll)
    wrap(session.Session, "open", "session.open")
    return patches


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers derivable from the spans and counters alone."""
    counters = tracer.counters
    blocks = tracer.records.get("decode.block", {})
    engine_spans = [span for span in tracer.spans if span.name.startswith("engines.")]
    own = self_times(tracer.spans) if engine_spans else {}
    engine_total = sum(span.duration for span in engine_spans)
    engine_self = sum(own[span.id] for span in engine_spans)
    decoded = len(tracer.named("decode.block"))
    return {
        "decode.s": tracer.total_s("decode.block"),
        "decode.blocks_decoded": float(decoded),
        "decode.read_amplification": ratio(
            counters["decode.scan_blocks"], counters["decode.blocks_covered"]
        ),
        "decode.codec_ratio": ratio(
            sum(raw for raw, _ in blocks.values()),
            sum(coded for _, coded in blocks.values()),
        ),
        "chunks.delivered": counters["chunks.delivered"],
        "chunks.consumer_wait_s": tracer.total_s("chunks.next"),
        "chunks.lease_wait_s": tracer.total_s("chunks.lease"),
        "engines.self_s": engine_self,
        "engines.overhead_frac": ratio(engine_self, engine_total),
        "sharded.gather_calls": counters["sharded.gather_calls"],
        "sharded.gather_bytes": counters["sharded.gather_bytes"],
        "sharded.gather_s": _outermost_s(tracer, "sharded.gather"),
        "sharded.fetch_compressed_bytes": counters["sharded.fetch_compressed_bytes"],
        "ml.objective_evals": float(len(tracer.named("ml.objective"))),
        "ml.objective_s": tracer.total_s("ml.objective"),
        "ml.partial_fit_calls": float(len(tracer.named("ml.partial_fit"))),
        "ml.partial_fit_s": tracer.total_s("ml.partial_fit"),
        "ml.predict_chunk_s": tracer.total_s("ml.predict_chunk"),
        "net.decode_s": tracer.total_s("net.decode"),
        "net.encode_s": tracer.total_s("net.encode"),
        "sharded.append_calls": float(len(tracer.named("sharded.append"))),
        "sharded.append_s": tracer.total_s("sharded.append"),
        "sharded.append_write_amplification": ratio(
            counters["sharded.append_bytes_written"], counters["sharded.append_bytes_given"]
        ),
        "sharded.fsync_s": tracer.total_s("sharded.fsync"),
        "trainer.polls": float(len(tracer.named("trainer.poll"))),
        "trainer.train_s": counters["trainer.train_s"],
        "session.open_s": tracer.total_s("session.open"),
    }


def _outermost_s(tracer: Tracer, name: str) -> float:
    """Total time in ``name`` spans not nested inside another ``name`` span."""
    spans = tracer.named(name)
    by_id = {span.id: span for span in spans}
    return sum(
        span.duration
        for span in spans
        if span.parent is None or by_id.get(span.parent) is None
    )
