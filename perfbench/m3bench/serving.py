"""``serve_wire``: ``m3 served`` over a socket, driven by one pipelined client.

The model is a 30-class, 64-feature ``GaussianNaiveBayes`` fitted on seeded
digit-like rows and saved as JSON; the daemon runs with every CLI default
as a child process.  One JSONL ``NetClient`` connection carries three
phases: open-loop Poisson at ``LOW_RATE``, open-loop at ``HIGH_RATE``, and a
closed loop of bursts: ``WINDOW`` requests sent back to back, then awaited
together.  The phases take turns in ``ROUNDS`` rounds, so a slow spell of
the host lands on all three instead of one; tails pool each phase's samples
over its rounds.

The end-to-end metrics are the ``low`` latency (p50 and p99 over every
request) and the burst loop's throughput (median over rounds) and request
latency (p50 and p99 over every request).  At
``HIGH_RATE`` the median moved by about 20% and the p99 by 50-150% between
identical runs on a 2-vCPU host (each slow spell of the host queues the
stream), so its figures are reported with the details and the
``loadgen.high.*`` counters but not gated on.

With two or more CPUs the daemon is pinned to the last one and the load
generator to the first, so they never compete for a core.

The traced run serves from an in-process ``NetServer`` built with the same
defaults, so the wire codec's spans are visible.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from m3bench import inputs, loadgen, stats
from m3bench.tracing import Tracer
from m3bench.workload import Outcome, Workload

ROWS = 6000
COLS = 64
CLASSES = 30
#: About a tenth and a quarter of what a connection kept ``WINDOW`` deep
#: reaches (2500-4000 req/s).  At 180 req/s a request's latency was either
#: about 1.5 ms or 5-15 ms, and the median jumped between the two from run
#: to run (spread 50% across five runs); at 400 req/s its p50 and p99 held
#: within 5% over five runs.  The high rate stays below half: in a slow
#: spell of the host that drops to about 2100 req/s, and a backed-up stream
#: would near the daemon's 256-request in-flight limit, past which requests
#: are refused.
LOW_RATE = 400.0
HIGH_RATE = 900.0
WINDOW = 64
ROUNDS = 20
LOADGEN_SWITCH_INTERVAL_S = 0.0005
#: Bursts rather than a window kept full: a connection kept 64 deep settles
#: for a second or two at a time into a fast mode (about 4000 req/s, ~30-row
#: batches) or a slow one (about 2500 req/s, ~23-row batches), the daemon's
#: CPU busy in both, and how much of a run each mode took, and whether the
#: fast one came at all, followed the host: every statistic of its
#: throughput spread by 15-40% across ten runs.  A burst starts from an
#: empty pipeline every time; its throughput held within 3% between
#: three-second blocks where the full window's moved by 15-20%.
SHARES = {"low": 0.4, "high": 0.15, "burst": 0.45}
WARMUP_S = 0.5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def placement() -> Optional[tuple]:
    """(load generator CPU, server CPU) when there are two CPUs to separate."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1]) if len(cpus) >= 2 else None


class ServedProcess:
    """``python -m repro served --model PATH`` as a child process."""

    def __init__(self, model_path: Path, cwd: Path, cpu: Optional[int]) -> None:
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "served", "--model", str(model_path)],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            if cpu is not None:
                # Before the daemon has started any thread: all of them inherit it.
                os.sched_setaffinity(self.proc.pid, {cpu})
            ready, _, _ = select.select([self.proc.stderr], [], [], START_TIMEOUT_S)
            line = self.proc.stderr.readline() if ready else ""
            match = re.search(r" on ([^ ]+):(\d+) ", line)
            if match is None:
                raise RuntimeError(f"m3 served did not report its address: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class InProcessServed:
    """The same front end as ``m3 served`` with CLI defaults, in this process."""

    def __init__(self, model_path: Path) -> None:
        from repro.net import NetServer
        from repro.serve import ModelRegistry, ModelServer

        registry = ModelRegistry()
        registry.publish("default", model_path)
        self.net = NetServer(ModelServer(registry=registry, engine="local"))
        self.host, self.port = self.net.host, self.net.port

    def saturated(self) -> int:
        return self.net.stats().saturated

    def stop(self) -> None:
        self.net.close()


class ServeWire(Workload):
    name = "serve_wire"
    rates = {"low_rps": LOW_RATE, "high_rps": HIGH_RATE, "burst_window": WINDOW}
    extra_layer_metrics = ("net.saturated",)

    def __init__(self, workdir: Path, seed: int, seconds: float, in_process: bool) -> None:
        super().__init__(workdir, seed, seconds, in_process)
        self.model_path = workdir / "model.json"
        self.server: Any = None
        self.client: Any = None
        self.measures = 0

    def _stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def setup(self) -> float:
        from repro.ml import GaussianNaiveBayes
        from repro.ml.persistence import save_model

        self._stop()
        self.workdir.mkdir(parents=True, exist_ok=True)
        cpus = None
        if not self.in_process:
            # This process only generates load: a short switch interval keeps
            # the sender and the client's reader thread from holding each
            # other up by a whole default 5 ms interval.
            sys.setswitchinterval(LOADGEN_SWITCH_INTERVAL_S)
            cpus = placement()
            if cpus is not None:
                os.sched_setaffinity(0, {cpus[0]})
                self.rates = dict(self.rates, loadgen_cpu=cpus[0], server_cpu=cpus[1])
        began = time.perf_counter()
        self.data = inputs.serve_inputs(self.seed, ROWS, COLS, CLASSES)
        save_model(self.model_path, GaussianNaiveBayes().fit(self.data.X, self.data.y))
        if self.in_process:
            self.server = InProcessServed(self.model_path)
        else:
            server_cpu = None if cpus is None else cpus[1]
            self.server = ServedProcess(self.model_path, self.workdir, server_cpu)
        return time.perf_counter() - began

    def prepare(self) -> None:
        from repro.ml.persistence import load_model
        from repro.net import NetClient

        self.client = NetClient(self.server.host, self.server.port)
        # The registry's version 1 is the saved file; its in-core predictions
        # are what every response must match.
        self.reference = load_model(self.model_path).predict(self.data.X)
        loadgen.burst_loop("warmup", self._submit, WINDOW, WARMUP_S, np.arange(ROWS))

    def _submit(self, row: int) -> Any:
        return self.client.submit(self.data.X[row])

    def _check(self, phases: List[loadgen.Phase]) -> List[str]:
        violations = []
        for phase in phases:
            for request in phase.completed:
                response = request.response
                if response.model_key != "default@1" or not np.array_equal(
                    response.predictions, self.reference[request.row : request.row + 1]
                ):
                    request.error = AssertionError("response differs from in-core predict")
                    violations.append(
                        f"{phase.name}: response for row {request.row} differs from "
                        f"in-core predict of {response.model_key}"
                    )
        return violations

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        self.measures += 1
        rounds: Dict[str, List[loadgen.Phase]] = {name: [] for name in SHARES}
        for turn in range(ROUNDS):
            tag = 100 * self.measures + 10 * turn
            for offset, (name, rate) in enumerate((("low", LOW_RATE), ("high", HIGH_RATE))):
                due = inputs.poisson_schedule(
                    self.seed, tag + offset, rate, SHARES[name] * seconds / ROUNDS
                )
                order = inputs.request_order(self.seed, tag + offset, len(due), ROWS)
                rounds[name].append(loadgen.open_loop(name, self._submit, due, order, tracer))
            order = inputs.request_order(self.seed, tag + 2, 65536, ROWS)
            rounds["burst"].append(
                loadgen.burst_loop(
                    "burst", self._submit, WINDOW, SHARES["burst"] * seconds / ROUNDS, order, tracer
                )
            )
        low, high, burst = (loadgen.merge(name, done) for name, done in rounds.items())
        phases = [low, high, burst]
        violations = self._check(phases)
        attempted = sum(len(phase.requests) for phase in phases)
        failed = sum(phase.failed for phase in phases)
        saturated = sum(
            1
            for phase in phases
            for request in phase.requests
            if type(request.error).__name__ == "ServerSaturated"
        )
        if self.in_process:
            saturated = max(saturated, self.server.saturated())
        layer = loadgen.serve_layer_metrics(phases, wire_phase=low)
        layer.update(loadgen.loadgen_metrics([low, high], [burst]))
        layer["net.saturated"] = float(saturated)
        low_ms, high_ms, burst_ms = low.latencies_ms(), high.latencies_ms(), burst.latencies_ms()
        burst_rps = stats.median([r.throughput() for r in rounds["burst"]])
        detail = {
            "serve_low_p50_ms": stats.median(low_ms),
            "serve_low_p90_ms": stats.percentile(low_ms, 90.0),
            "serve_low_p99_ms": stats.percentile(low_ms, 99.0),
            "serve_high_p50_ms": stats.median(high_ms),
            "serve_high_p90_ms": stats.percentile(high_ms, 90.0),
            "serve_high_p99_ms": stats.percentile(high_ms, 99.0),
            "late_p99_ms": {phase.name: stats.percentile(phase.late_ms(), 99.0) for phase in (low, high)},
            "serve_burst_rps": burst_rps,
            "serve_burst_p50_ms": stats.median(burst_ms),
            "serve_burst_p99_ms": stats.percentile(burst_ms, 99.0),
            "requests": {phase.name: len(phase.requests) for phase in phases},
        }
        return Outcome(
            e2e={
                "rows_per_s": burst_rps,
                "op_ms": stats.median(low_ms),
                "op_tail_ms": stats.percentile(low_ms, 99.0),
                "busy_ms": stats.median(burst_ms),
                "busy_tail_ms": stats.percentile(burst_ms, 99.0),
            },
            attempted=attempted,
            failed=failed,
            violations=violations,
            detail=detail,
            layer=layer,
        )

    def program_pid(self) -> Optional[int]:
        return None if self.in_process else self.server.proc.pid

    def close(self) -> None:
        self._stop()
