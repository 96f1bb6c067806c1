"""One benchmark run: set up, measure, check, and build the result line."""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict

from m3bench import stats
from m3bench.host import host_facts, peak_rss_mb, reset_peak_rss
from m3bench.layers import instrument, layer_metrics
from m3bench.live import LiveUpdate
from m3bench.scans import ScanRaw, ScanV2
from m3bench.serving import ServeWire
from m3bench.tracing import Tracer
from m3bench.workload import Outcome, Workload

WORKLOADS = {cls.name: cls for cls in (ScanRaw, ScanV2, ServeWire, LiveUpdate)}
#: A run that is still going after this long is stopped, children first.
WATCHDOG_S = 170.0


def load_spec(path: Path) -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names and units every result must carry."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _metrics(values: Dict[str, float], declared: list) -> Dict[str, Dict[str, Any]]:
    """``values`` as ``{name: {value, unit}}`` in declared order; names must match exactly."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(values) != set(units):
        raise ValueError(
            f"metrics {sorted(set(values) ^ set(units))} are not both emitted and declared in BENCHMARK.json"
        )
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def end_to_end_values(outcome: Outcome, setup_s: float, peak_mb: float) -> Dict[str, float]:
    values = dict(outcome.e2e)
    values.update(
        setup_s=setup_s,
        peak_rss_mb=peak_mb,
        ok_frac=1.0 - stats.ratio(outcome.failed, outcome.attempted),
    )
    return values


def per_layer_values(
    tracer: Tracer, traced: Outcome, untraced: Outcome, declared: list
) -> Dict[str, float]:
    """Every declared per-layer metric; layers the workload never entered read 0."""
    values = {entry["name"]: 0.0 for entry in declared}
    values.update(layer_metrics(tracer))
    values.update(traced.layer)
    values["trace.overhead_frac"] = (
        stats.ratio(untraced.e2e["rows_per_s"], traced.e2e["rows_per_s"]) - 1.0
    )
    return values


def write_spans(tracer: Tracer, path: Path) -> None:
    """Every span of the traced half, one JSON object a line, in finishing order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps({
                "id": span.id, "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "request": span.request,
            }) + "\n")


def _watchdog(workload: Workload) -> threading.Timer:
    def expire() -> None:
        try:
            workload.close()
        finally:
            os._exit(3)

    timer = threading.Timer(WATCHDOG_S, expire)
    timer.daemon = True
    return timer


def run(
    name: str, seed: int, seconds: float, trace: bool, root: Path, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """Run workload ``name`` once; return the result line and write the full record."""
    work = root / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work, seed, seconds, in_process=trace)
    tracer = None
    watchdog = _watchdog(workload)
    watchdog.start()
    try:
        setups = [workload.setup() for _ in range(1 if trace else workload.setup_repeats)]
        workload.prepare()
        if trace:
            untraced = workload.measure(seconds / 2, None)
            tracer = Tracer()
            with instrument(tracer):
                outcome = workload.measure(seconds / 2, tracer)
            values = per_layer_values(tracer, outcome, untraced, spec["per_layer"])
            metrics = _metrics(values, spec["per_layer"])
            outcomes = [untraced, outcome]
        else:
            # Peak memory of the timed phase only, not of input generation.
            reset_peak_rss(workload.program_pid())
            outcome = workload.measure(seconds, None)
            peak = outcome.peak_rss_mb
            if peak is None:
                peak = peak_rss_mb(workload.program_pid())
            values = end_to_end_values(outcome, stats.median(setups), peak)
            metrics = _metrics(values, spec["end_to_end"])
            outcomes = [outcome]
        facts = host_facts(work, seed, workload.rates)
    finally:
        try:
            workload.close()
        finally:
            watchdog.cancel()
            shutil.rmtree(work, ignore_errors=True)
    violations = [v for o in outcomes for v in o.violations]
    failed = sum(o.failed for o in outcomes)
    if failed:
        # None fail at the commit that set the bounds: any failed, refused or
        # timed-out operation is a correctness failure, not just a lower ok_frac.
        violations.append(f"{failed} operations failed, were refused or timed out")
    result = {
        "correct": not violations,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": facts,
        "setup_runs_s": setups,
        "detail": [o.detail for o in outcomes],
        "violations": violations[:50],
        "result": result,
        "finished_at": time.time(),
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    if tracer is not None:
        write_spans(tracer, path.with_suffix(".spans.jsonl"))
    print("detail " + json.dumps({k: record[k] for k in ("host", "setup_runs_s", "detail", "violations")},
                                 default=str), flush=True)
    return result
