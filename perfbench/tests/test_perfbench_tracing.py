"""Span bookkeeping: parents, self time, and wrappers that are put back."""

import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from m3bench.layers import instrument  # noqa: E402
from m3bench.tracing import Span, Tracer, covered_length, self_times  # noqa: E402


def test_covered_length_merges_overlaps_and_skips_empty_intervals():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (5.0, 5.0)]) == pytest.approx(3.0)
    assert covered_length([(2.0, 3.0), (0.0, 10.0)]) == pytest.approx(10.0)


def test_self_time_of_a_synthetic_nested_tree():
    # root [0, 10]
    #   a [1, 4]          -> grandchild g [2, 3]
    #   b [3, 6]          (overlaps a)
    #   c [8, 12]         (runs past root: only [8, 10] counts against root)
    # other [20, 21]      (unrelated root)
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "g", 2.0, 3.0, parent=2),
        Span(4, "b", 3.0, 6.0, parent=1),
        Span(5, "c", 8.0, 12.0, parent=1),
        Span(6, "other", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(4.0)
    assert own[6] == pytest.approx(1.0)


def test_tracer_links_parents_on_one_thread_only():
    tracer = Tracer()
    outer = tracer.begin("outer")
    with tracer.request(42):
        inner = tracer.begin("inner")
    assert tracer.inside("outer") and tracer.inside("inner")
    elsewhere = []

    def other_thread():
        elsewhere.append(tracer.end(tracer.begin("worker")))

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end(inner)
    tracer.end(outer)
    assert inner.parent == outer.id and inner.request == 42
    assert outer.parent is None
    assert elsewhere[0].parent is None  # the causing span is on another thread
    assert not tracer.inside("outer")
    assert [span.name for span in tracer.spans] == ["worker", "inner", "outer"]
    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(outer.duration - inner.duration)


def test_spans_opened_while_sending_a_request_carry_its_id():
    tracer = Tracer()
    with tracer.request("low-7"):
        outer = tracer.begin("serve.submit")
        inner = tracer.end(tracer.begin("net.encode"))
        tracer.end(outer)
    after = tracer.end(tracer.begin("net.decode"))
    assert outer.request == inner.request == "low-7"
    assert after.request is None


def test_wrap_records_a_span_and_counts_through_after():
    tracer = Tracer()
    seen = []
    traced = tracer.wrap("double", lambda x: 2 * x,
                         after=lambda span, result, args, kwargs: seen.append((span.name, result, args)))
    assert traced(21) == 42
    assert seen == [("double", 42, (21,))]
    assert len(tracer.named("double")) == 1


def test_instrument_wraps_public_calls_and_puts_them_back():
    from repro.api import engines, sharded
    from repro.serve.server import ModelServer

    targets = [
        (sharded.ShardedMatrix, "gather_into"),
        (sharded.CompressedShardedMatrix, "gather_into"),
        (engines, "open_chunk_stream"),
        (ModelServer, "submit"),
    ]
    own = [(owner, attr, vars(owner).get(attr)) for owner, attr in targets]
    with instrument(Tracer()):
        assert all(getattr(owner, attr) is not before for owner, attr, before in own)
    assert all(vars(owner).get(attr) is before for owner, attr, before in own)
