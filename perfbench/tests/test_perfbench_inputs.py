"""Seeded inputs: one seed, one set of bytes."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from m3bench import inputs  # noqa: E402


def _scan_bytes(seed: int) -> bytes:
    data = inputs.scan_inputs(seed, rows=512, cols=784)
    return data.X.tobytes() + data.y.tobytes()


def _serve_bytes(seed: int) -> bytes:
    data = inputs.serve_inputs(seed, rows=300, cols=64, classes=30)
    return data.X.tobytes() + data.y.tobytes()


def _live_bytes(seed: int) -> bytes:
    base, batches = inputs.live_inputs(seed, base_rows=256, batches=5, batch_rows=32,
                                       cols=64, classes=10)
    parts = [base.X, base.y] + [a for batch in batches for a in (batch.X, batch.y)]
    return b"".join(part.tobytes() for part in parts)


def _schedule_bytes(seed: int) -> bytes:
    due = inputs.poisson_schedule(seed, phase=11, rate=180.0, duration_s=5.0)
    rows = inputs.request_order(seed, phase=11, count=due.shape[0], pool=6000)
    return due.tobytes() + rows.tobytes()


GENERATORS = (_scan_bytes, _serve_bytes, _live_bytes, _schedule_bytes)


def test_same_seed_gives_byte_identical_inputs():
    for generate in GENERATORS:
        assert generate(7) == generate(7), generate.__name__


def test_different_seed_gives_different_inputs():
    for generate in GENERATORS:
        assert generate(7) != generate(8), generate.__name__


def test_features_are_small_digit_like_integers():
    data = inputs.scan_inputs(3, rows=256, cols=784)
    assert data.X.dtype == np.float64
    assert np.array_equal(data.X, np.round(data.X))
    assert data.X.min() == 0 and data.X.max() <= inputs.MAX_INTENSITY
    assert (data.X == 0).mean() > 0.5  # sparse, like pen strokes on a blank page
    assert set(np.unique(data.y)) == {0, 1}


def test_poisson_schedule_has_the_requested_rate():
    due = inputs.poisson_schedule(1, phase=1, rate=900.0, duration_s=10.0)
    assert np.all(np.diff(due) > 0) and due[-1] < 10.0
    assert abs(due.shape[0] / 10.0 - 900.0) < 60.0
