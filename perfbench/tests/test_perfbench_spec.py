"""BENCHMARK.json matches what the harness emits, and the benchmark contract."""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from m3bench import loadgen  # noqa: E402
from m3bench.layers import layer_metrics  # noqa: E402
from m3bench.runner import WORKLOADS  # noqa: E402
from m3bench.tracing import Tracer  # noqa: E402
from m3bench.workload import E2E_KEYS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_end_to_end_names_match_what_every_workload_emits():
    assert set(_names("end_to_end")) == {"setup_s", "peak_rss_mb", "ok_frac", *E2E_KEYS}


def test_per_layer_names_match_what_the_harness_can_emit():
    phases = [loadgen.Phase("low"), loadgen.Phase("high")]
    emitted = set(layer_metrics(Tracer()))
    emitted |= set(loadgen.serve_layer_metrics([], phases[0]))
    emitted |= set(loadgen.loadgen_metrics(phases, [loadgen.Phase("burst")]))
    for workload in WORKLOADS.values():
        emitted |= set(workload.extra_layer_metrics)
    emitted.add("trace.overhead_frac")
    assert set(_names("per_layer")) == emitted


def test_workloads_match_the_harness():
    assert _names("workloads") == list(WORKLOADS)


def test_spec_follows_the_benchmark_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][1].startswith("perfbench/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and 0 < len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
