"""Seeded inputs for every workload.

The program under test only ever receives the arrays built here.  Every
generator takes a ``numpy.random.Generator`` derived from the run's
``--seed`` and one fixed stream tag, so the same seed gives byte-identical
inputs and each workload (and each open-loop phase) draws from its own
stream.

Features are small-integer, digit-like values: each class has a sparse
prototype of intensities in ``[0, 16]`` (the range of the 8x8 UCI digits),
and a row is its class prototype plus integer noise, clipped back into range.
They are stored as float64, the program's logical dtype, so a v2 shard
compresses them the way it would compress real pixel data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_INTENSITY = 16
#: Share of scan labels flipped, so the two labels overlap (see :func:`scan_inputs`).
SCAN_LABEL_NOISE = 0.2

# Stream tags: one per consumer of randomness, so adding a draw to one
# workload never shifts another workload's inputs.
STREAM_SCAN = 1
STREAM_SERVE = 2
STREAM_LIVE = 3
STREAM_SCHEDULE = 4


def rng_for(seed: int, stream: int, *extra: int) -> np.random.Generator:
    """The generator for ``stream`` (plus optional sub-stream ids) of ``seed``."""
    return np.random.default_rng([int(seed), int(stream), *map(int, extra)])


def digit_prototypes(rng: np.random.Generator, classes: int, cols: int) -> np.ndarray:
    """Sparse per-class intensity templates, about 30% of pixels lit."""
    lit = rng.random((classes, cols)) < 0.3
    return np.where(lit, rng.integers(4, MAX_INTENSITY + 1, size=(classes, cols)), 0)


def digit_rows(
    rng: np.random.Generator, prototypes: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """One noisy row per label: prototype + integer noise, clipped to range."""
    noise = rng.integers(-3, 4, size=(labels.shape[0], prototypes.shape[1]))
    rows = np.clip(prototypes[labels] + noise, 0, MAX_INTENSITY)
    # Faint pixels go dark, as in a thresholded scan: keeps rows sparse.
    rows[rows < 3] = 0
    return rows.astype(np.float64)


@dataclass(frozen=True)
class Labelled:
    """A design matrix with its labels."""

    X: np.ndarray
    y: np.ndarray


def digits(
    rng: np.random.Generator, rows: int, cols: int, classes: int
) -> Labelled:
    """``rows`` digit-like rows over ``classes`` classes."""
    prototypes = digit_prototypes(rng, classes, cols)
    labels = rng.integers(0, classes, size=rows).astype(np.int64)
    return Labelled(digit_rows(rng, prototypes, labels), labels)


def scan_inputs(seed: int, rows: int, cols: int) -> Labelled:
    """The scan workloads' dataset: ten digit classes, binary label ``digit >= 5``.

    A share ``SCAN_LABEL_NOISE`` of the labels is flipped.  Without it the
    prototypes separate the two labels outright: L-BFGS drove the loss to
    1e-250 in one step and stopped after two objective passes, whose time
    then hung on how many logits underflowed (20% apart between seeds).
    With it every fit makes its three iterations over moderate logits.
    """
    rng = rng_for(seed, STREAM_SCAN)
    data = digits(rng, rows, cols, classes=10)
    labels = (data.y >= 5).astype(np.int64)
    flip = rng.random(rows) < SCAN_LABEL_NOISE
    return Labelled(data.X, np.where(flip, 1 - labels, labels))


def serve_inputs(seed: int, rows: int, cols: int, classes: int) -> Labelled:
    """Training rows for the served model; requests are drawn from the same rows."""
    return digits(rng_for(seed, STREAM_SERVE), rows, cols, classes)


def live_inputs(
    seed: int, base_rows: int, batches: int, batch_rows: int, cols: int, classes: int
) -> tuple[Labelled, list[Labelled]]:
    """The appendable dataset's initial rows and every batch the writer appends."""
    rng = rng_for(seed, STREAM_LIVE)
    prototypes = digit_prototypes(rng, classes, cols)

    def draw(n: int) -> Labelled:
        labels = rng.integers(0, classes, size=n).astype(np.int64)
        return Labelled(digit_rows(rng, prototypes, labels), labels)

    base = draw(base_rows)
    return base, [draw(batch_rows) for _ in range(batches)]


def poisson_schedule(seed: int, phase: int, rate: float, duration_s: float) -> np.ndarray:
    """Due times (seconds from phase start) of an open-loop Poisson stream.

    Precomputed before the phase starts, so the generator never decides
    anything while timing: it only waits for each due time and sends.
    """
    rng = rng_for(seed, STREAM_SCHEDULE, phase)
    expected = int(rate * duration_s)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected**0.5) + 16)
    due = np.cumsum(gaps)
    return due[due < duration_s]


def request_order(seed: int, phase: int, count: int, pool: int) -> np.ndarray:
    """Which pool row each request of a phase sends."""
    return rng_for(seed, STREAM_SCHEDULE, phase, 1).integers(0, pool, size=count)
