"""``scan_raw`` and ``scan_v2``: full-dataset fits and predicts over ``shard://``.

Both workloads hold the same seeded rows (16384 x 784 float64, 3x the
program's 32 MiB decoded-block cache).  ``scan_raw`` stores them as v1 raw
shards and runs local L-BFGS logistic regression (the paper's M3 path), a
streaming SGD fit and a streaming predict, with default engine knobs; the
estimator's ``chunk_size`` sets the scan's chunk rows: 1024 for the SGD
fit, the default 4096 for the predict.  The predict serves a k-means model
(cluster assignment, the paper's other algorithm): see :data:`CLUSTERS`.

``scan_v2`` stores the same rows as zlib v2 shards whose 4096-row blocks
span four 1024-row scan chunks, and runs the streaming SGD fit and predict
on the parallel chunk pipeline (one reader).  That path fetches and decodes
each block once per chunk that touches it, bypassing the decoded-block
cache: the read amplification the roadmap's block-aligned decode item is
to remove.  With default knobs the cache hides it (amplification 1.0).  An
SGD epoch on this path takes over a second, so the fit makes one epoch and
each kind of job repeats a few times per round.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from m3bench import inputs, stats
from m3bench.host import peak_rss_mb, reset_peak_rss
from m3bench.tracing import Tracer
from m3bench.workload import Outcome, Workload, run_until

ROWS = 16384
COLS = 784
SHARD_ROWS = 8192
CHUNK_ROWS = 1024
BLOCK_ROWS = 4 * CHUNK_ROWS
SGD_EPOCHS = 3
LBFGS_ITERATIONS = 3
#: Clusters of the k-means model the streaming predict serves.  A logistic
#: regression predict streams the 103 MB at the host's memory bandwidth
#: (about 20 GB/s, 5 ms a job), and its time moved with other tenants'
#: memory traffic: 30-50% between runs that an SGD epoch over the same rows
#: held within 7%.  Assigning rows to ten centroids is a matrix product
#: that takes several times as long as the read.
CLUSTERS = 10
#: The tail of job times.  The tens-of-milliseconds stalls of a shared host
#: decide the p90 of short jobs: for 5-10 ms logistic-regression predicts it
#: moved by 25-40% between identical runs while the p50 held within 10%.
JOB_TAIL_PERCENTILE = 75.0


def _sgd_model(epochs: int) -> Any:
    from repro.ml import LogisticRegression

    # tolerance=-inf: every run makes exactly ``epochs`` passes.
    return LogisticRegression(
        solver="sgd", max_iterations=epochs, tolerance=-np.inf, chunk_size=CHUNK_ROWS
    )


def _lbfgs_model() -> Any:
    from repro.ml import LogisticRegression

    return LogisticRegression(max_iterations=LBFGS_ITERATIONS)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identical: same shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class ScanWorkload(Workload):
    """One of the two scan workloads, chosen by ``v2``."""

    v2 = False
    # Writing 100 MB (zlib-coding it for v2) takes seconds; three set-ups suffice.
    setup_repeats = 3
    extra_layer_metrics = ("decode.reported_ratio", "decode.reported_compressed_bytes")
    #: The job whose rate is the workload's ``rows_per_s``.
    headline = ""
    #: Share of the measuring time each job kind repeats for.
    shares: Dict[str, float] = {}
    #: Passes of the streaming SGD fit.
    sgd_epochs = SGD_EPOCHS
    #: Engine knobs of the streaming fit and predict (empty: defaults).
    knobs: Dict[str, Any] = {}
    #: How many times the job kinds take turns.  Job-time percentiles and job
    #: rates are taken per round, and the run reports those of its calmest
    #: quarter of rounds (:func:`m3bench.stats.calm`): with the median over
    #: rounds, the predict job's p50 followed the host's slow spells and
    #: spread by 30% across ten runs.
    rounds = 10

    def __init__(self, workdir: Path, seed: int, seconds: float, in_process: bool) -> None:
        from repro import Session

        super().__init__(workdir, seed, seconds, in_process)
        self.session = Session()
        self.directory = workdir / ("v2" if self.v2 else "raw")
        self.spec = f"shard://{self.directory}"
        self.data: Optional[inputs.Labelled] = None
        self.dataset: Any = None
        #: ``details`` of the latest streaming fit, as the program reports them.
        self.reported: Dict[str, Any] = {}

    def _write(self, directory: Path, spec: str, v2: bool) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        options: Dict[str, Any] = {"shard_rows": SHARD_ROWS}
        if v2:
            options.update(codec="zlib", block_rows=BLOCK_ROWS)
        self.session.create(spec, self.data.X, self.data.y, **options)

    def setup(self) -> float:
        began = time.perf_counter()
        self.data = inputs.scan_inputs(self.seed, ROWS, COLS)
        self._write(self.directory, self.spec, self.v2)
        return time.perf_counter() - began

    def prepare(self) -> None:
        from repro.ml import KMeans

        X, y = self.data.X, self.data.y
        self.dataset = self.session.open(self.spec)
        # In-core references on the generated arrays.
        self.sgd_reference = _sgd_model(self.sgd_epochs).fit(X, y)
        self.lbfgs_reference = _lbfgs_model().fit(X, y)
        self.kmeans = KMeans(n_clusters=CLUSTERS, max_iterations=3, seed=0).fit(X)
        self.predict_reference = self.kmeans.predict(X)
        if self.v2:
            # The gate that only the storage format differs: the same streaming
            # fit over a raw copy of the rows must learn the same coefficients.
            raw_dir = self.workdir / "raw-reference"
            self._write(raw_dir, f"shard://{raw_dir}", v2=False)
            raw = self.session.fit(
                _sgd_model(self.sgd_epochs), f"shard://{raw_dir}", engine="streaming", **self.knobs
            )
            self.raw_coef = (raw.model.coef_.copy(), raw.model.intercept_)
            shutil.rmtree(raw_dir, ignore_errors=True)
        # One untimed pass: every shard is read (and cached) before timing.
        self.session.predict(self.dataset, self.kmeans, engine="streaming", **self.knobs)
        # The generated arrays are not needed any more; dropping them keeps
        # them out of the timed phase's peak resident memory.
        self.data = None

    # -- jobs ------------------------------------------------------------------

    def _lbfgs(self, violations: List[str]) -> Dict[str, float]:
        before = len(violations)
        began = time.perf_counter()
        result = self.session.fit(_lbfgs_model(), self.dataset, engine="local")
        wall = time.perf_counter() - began
        model = result.model
        if not (_same(model.coef_, self.lbfgs_reference.coef_)
                and model.intercept_ == self.lbfgs_reference.intercept_):
            violations.append("local L-BFGS coefficients differ from the in-core fit")
        passes = model.result_.function_evaluations
        return {"wall": wall, "rate": ROWS * passes / wall, "ok": not violations[before:]}

    def _sgd(self, violations: List[str]) -> Dict[str, float]:
        before = len(violations)
        began = time.perf_counter()
        result = self.session.fit(
            _sgd_model(self.sgd_epochs), self.dataset, engine="streaming", **self.knobs
        )
        wall = time.perf_counter() - began
        model = result.model
        if not (_same(model.coef_, self.sgd_reference.coef_)
                and model.intercept_ == self.sgd_reference.intercept_):
            violations.append("streaming SGD coefficients differ from the in-core fit")
        if self.v2 and not (_same(model.coef_, self.raw_coef[0])
                            and model.intercept_ == self.raw_coef[1]):
            violations.append("v2 streaming SGD coefficients differ from the raw scan's")
        epochs = model.result_.iterations
        self.reported = result.details
        return {
            "wall": wall,
            "rate": ROWS * epochs / wall,
            "epoch_ms": wall / epochs * 1e3,
            "ok": not violations[before:],
        }

    def _predict(self, violations: List[str]) -> Dict[str, float]:
        began = time.perf_counter()
        result = self.session.predict(
            self.dataset, self.kmeans, engine="streaming", **self.knobs
        )
        wall = time.perf_counter() - began
        ok = _same(result.predictions, self.predict_reference)
        if not ok:
            violations.append("streaming predictions differ from in-core predict")
        return {"wall": wall, "rate": ROWS / wall, "job_ms": wall * 1e3, "ok": ok}

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        violations: List[str] = []
        jobs = {"lbfgs": self._lbfgs, "sgd": self._sgd, "predict": self._predict}
        rounds: Dict[str, List[List[Dict[str, float]]]] = {kind: [] for kind in self.shares}
        deadline = time.perf_counter()

        def job(kind: str) -> Dict[str, float]:
            # Each job's own peak: how far decode on the prefetch thread
            # overlaps the consumer's buffers varies, and one unlucky job set
            # the run-wide peak of scan_v2 anywhere within 25%.
            reset_peak_rss()
            run = jobs[kind](violations)
            run["peak_mb"] = peak_rss_mb()
            return run

        # The job kinds take turns in rounds, so each kind's figures cover
        # the whole run rather than one stretch of a host whose speed drifts.
        for _ in range(self.rounds):
            for kind, share in self.shares.items():
                deadline += share * seconds / self.rounds
                rounds[kind].append(run_until(deadline, lambda: job(kind)))
        runs = {kind: [run for done in per_round for run in done] for kind, per_round in rounds.items()}

        def by_round(kind: str, key: str, q: float, higher_is_better: bool = False) -> float:
            """The ``q``-th percentile of ``key`` in each round, of the calm rounds."""
            return stats.calm(
                [stats.percentile([run[key] for run in done], q) for done in rounds[kind]],
                higher_is_better,
            )

        rates = {kind: by_round(kind, "rate", 50.0, higher_is_better=True) for kind in rounds}
        attempted = sum(len(done) for done in runs.values())
        reported = self.reported
        detail: Dict[str, Any] = {f"{kind}_rows_per_s": rate for kind, rate in rates.items()}
        detail.update(
            jobs={kind: len(done) for kind, done in runs.items()},
            reported_ratio=reported.get("ratio"),
            reported_compressed_bytes=reported.get("compressed_bytes"),
        )
        return Outcome(
            e2e={
                "rows_per_s": rates[self.headline],
                "op_ms": by_round("predict", "job_ms", 50.0),
                "op_tail_ms": by_round("predict", "job_ms", JOB_TAIL_PERCENTILE),
                "busy_ms": by_round("sgd", "epoch_ms", 50.0),
                "busy_tail_ms": by_round("sgd", "epoch_ms", JOB_TAIL_PERCENTILE),
            },
            attempted=attempted,
            failed=sum(not run["ok"] for done in runs.values() for run in done),
            peak_rss_mb=max(stats.median([run["peak_mb"] for run in done]) for done in runs.values()),
            violations=sorted(set(violations)),
            detail=detail,
            layer={
                # The program's own accounting, as it reports it (None -> 0).
                "decode.reported_ratio": float(reported.get("ratio") or 0.0),
                "decode.reported_compressed_bytes": float(reported.get("compressed_bytes") or 0),
            },
        )

    def close(self) -> None:
        if self.dataset is not None:
            self.dataset.close()
        self.session.close()


class ScanRaw(ScanWorkload):
    name = "scan_raw"
    v2 = False
    headline = "lbfgs"
    shares = {"lbfgs": 0.4, "sgd": 0.3, "predict": 0.3}


class ScanV2(ScanWorkload):
    name = "scan_v2"
    v2 = True
    headline = "sgd"
    shares = {"sgd": 0.5, "predict": 0.5}
    sgd_epochs = 1
    knobs = {"io_workers": 1, "chunk_rows": CHUNK_ROWS}
    #: Jobs take about a second: five rounds leave two or three of each per round.
    rounds = 5
