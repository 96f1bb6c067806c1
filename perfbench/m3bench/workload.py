"""What every workload provides, and what one timed pass returns."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from m3bench.tracing import Tracer


#: End-to-end metrics each workload measures; the runner adds ``setup_s``,
#: ``peak_rss_mb`` and ``ok_frac``.
E2E_KEYS = ("rows_per_s", "op_ms", "op_tail_ms", "busy_ms", "busy_tail_ms")


@dataclass
class Outcome:
    """One timed pass of a workload.

    ``e2e`` holds the end-to-end metrics other than ``setup_s``,
    ``peak_rss_mb`` and ``ok_frac``.  ``violations`` lists every failed
    correctness gate; ``detail`` keeps the named per-phase figures and the
    program's own reported numbers, printed alongside the result; ``layer``
    holds per-layer numbers the workload measures itself (from responses and
    its own callbacks rather than from spans).
    """

    e2e: Dict[str, float]
    attempted: int
    failed: int
    violations: List[str] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    #: Set by workloads that measure peak memory per job; otherwise the
    #: runner reads the peak of the whole timed phase.
    peak_rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if tuple(self.e2e) != E2E_KEYS:
            raise ValueError(f"end-to-end keys {tuple(self.e2e)} are not {E2E_KEYS}")


class Workload:
    """Base class: set up (timed, repeatable), prepare references, measure."""

    name = ""
    #: Fixed request rates, recorded with each result.
    rates: Dict[str, float] = {}
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 5
    #: Per-layer metrics the workload measures itself, beyond the spans'
    #: (:func:`m3bench.layers.layer_metrics`) and the load generator's.
    extra_layer_metrics: tuple = ()

    def __init__(self, workdir: Path, seed: int, seconds: float, in_process: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        #: Total measuring time of the run (a traced run measures twice, half each).
        self.seconds = seconds
        self.in_process = in_process

    def setup(self) -> float:
        """Build inputs and stand the program up; return the seconds it took.

        Called several times; each call replaces what the previous one built.
        """
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: reference results for the correctness gates, warm-up."""

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError

    def program_pid(self) -> Optional[int]:
        """The process running the program under test (``None``: this one)."""
        return None

    def close(self) -> None:
        """Stop every thread and process the workload started."""


def run_until(deadline: float, job: Callable[[], Any]) -> List[Any]:
    """Run ``job`` repeatedly until ``deadline`` (``perf_counter``), at least once."""
    results = []
    while not results or time.perf_counter() < deadline:
        results.append(job())
    return results
