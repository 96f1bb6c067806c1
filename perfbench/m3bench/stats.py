"""Summary statistics shared by every workload."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: The share of a run's rounds whose figures :func:`calm` reports.
CALM_SHARE = 0.25


def calm(per_round: Sequence[float], higher_is_better: bool = False) -> float:
    """The figure the run's calmest quarter of rounds reach.

    A shared host's slow spells only ever make a round slower, and how much
    of a run they cover differs from run to run; the best rounds show the
    program's own speed.  So a timing is the 25th percentile of its
    per-round figures and a rate the 75th.  A slower program makes every
    round slower, the calm ones too.
    """
    return percentile(per_round, 100.0 * ((1.0 - CALM_SHARE) if higher_is_better else CALM_SHARE))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
