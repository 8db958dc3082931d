"""Self-performance suite plumbing (repro.bench.perfsuite).

The timing numbers themselves are CI-host-dependent; these tests pin
the schema, the bit-identity flags, and the regression-gate logic that
``benchmarks/bench_selfperf.py --check`` runs in CI.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.perfsuite import (
    BASELINE_DERATE,
    SCHEMA,
    check_regressions,
    render,
    run_suite,
    to_baseline,
    to_json,
)

CASE_NAMES = {
    "cache_sweep", "jit_trace_memo", "pack_unpack",
    "io_bp5", "par_speedup", "sched_engine", "vspmd", "trace_streaming",
    "ir_passes", "serve_load", "jit_warm", "native_step",
}


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True)


@pytest.fixture(scope="module")
def payload(suite):
    return to_json(suite)


class TestSchema:
    def test_payload_shape(self, payload):
        assert payload["schema"] == SCHEMA
        assert payload["quick"] is True
        assert payload["loop_score_miters_per_s"] > 0
        assert {c["name"] for c in payload["cases"]} == CASE_NAMES

    def test_case_fields(self, payload):
        for case in payload["cases"]:
            assert set(case) == {
                "name", "optimized_seconds", "reference_seconds",
                "speedup", "identical", "metrics",
            }
            assert case["optimized_seconds"] > 0

    def test_differential_cases_are_bit_identical(self, payload):
        diffed = [c for c in payload["cases"] if c["reference_seconds"]]
        assert diffed, "no case ran its retained reference path"
        for case in diffed:
            assert case["identical"] is True, case["name"]

    def test_streaming_case_reports_overhead_and_bound(self, payload):
        from repro.bench.perfsuite import OVERHEAD_LIMIT

        (case,) = [
            c for c in payload["cases"] if c["name"] == "trace_streaming"
        ]
        m = case["metrics"]
        assert m["spans"] > 0
        assert m["spans_per_second"] > 0
        assert m["max_buffered"] <= 4096  # bounded by the flush threshold
        assert m["overhead_ratio"] > 0
        assert m["overhead_limit"] == OVERHEAD_LIMIT

    def test_sched_case_reports_normalized_rate(self, payload):
        (sched,) = [c for c in payload["cases"] if c["name"] == "sched_engine"]
        assert sched["metrics"]["normalized_rate"] > 0
        assert sched["metrics"]["events_per_second"] > 0

    def test_vspmd_case_reports_rate_floor_contract(self, payload):
        from repro.bench.perfsuite import MIN_RATE_SPEEDUP

        (case,) = [c for c in payload["cases"] if c["name"] == "vspmd"]
        m = case["metrics"]
        assert m["virtual_ranks"] > 0
        assert m["events"] > 0
        assert m["reference_events"] > 0
        assert m["events_per_second"] > 0
        assert m["normalized_rate"] > 0
        # the tier contract: the vector engine clears the absolute floor
        assert m["rate_speedup"] >= MIN_RATE_SPEEDUP
        assert m["min_rate_speedup"] == MIN_RATE_SPEEDUP
        # epoch queues replay the same model bit-for-bit
        assert case["identical"] is True

    def test_ir_passes_case_reduction_ratios(self, payload):
        (case,) = [c for c in payload["cases"] if c["name"] == "ir_passes"]
        m = case["metrics"]
        # the Listing 4 contract: fuse+rle recover the hand-fused
        # kernel's 14 loads from the 21 the two launches record
        assert m["load_ops_before"] == 21
        assert m["load_ops_after"] == 14
        assert m["funcs_after"] == 1
        assert 0 < m["load_reduction"] < 1
        assert 0 < m["arith_reduction"] < 1
        # rewrites are legal: evaluation stayed bit-identical
        assert case["identical"] is True

    def test_serve_load_case_reports_cache_contract(self, payload):
        from repro.bench.perfsuite import HIT_MISS_P99_LIMIT

        (case,) = [c for c in payload["cases"] if c["name"] == "serve_load"]
        m = case["metrics"]
        assert m["clients"] > 0 and m["requests_per_client"] > 0
        assert m["completed"] == m["clients"] * m["requests_per_client"]
        assert m["failed"] == 0
        assert m["cache_hits"] > 0
        assert m["jobs_per_second"] > 0
        assert m["normalized_rate"] > 0
        assert m["miss_p99_seconds"] > m["hit_p99_seconds"]
        # payload values are rounded to 6 decimals, so only loosely
        # consistent with the re-derived quotient
        assert m["hit_miss_p99_ratio"] == pytest.approx(
            m["hit_p99_seconds"] / m["miss_p99_seconds"], rel=0.25
        )
        # the service contract: hits at least 10x faster than misses
        assert m["hit_miss_p99_ratio"] <= HIT_MISS_P99_LIMIT
        assert m["hit_miss_p99_limit"] == HIT_MISS_P99_LIMIT

    def test_jit_warm_case_reports_warm_start_contract(self, payload):
        from repro.bench.perfsuite import WARM_COLD_LIMIT

        (case,) = [c for c in payload["cases"] if c["name"] == "jit_warm"]
        m = case["metrics"]
        assert m["shape_classes"] > 0
        # every persisted plan made it back into the warm memo
        assert m["preloaded"] == m["shape_classes"]
        assert m["warm_memo_hits"] > 0
        assert m["warm_p50_seconds"] < m["cold_p50_seconds"]
        # the warm-start contract: first launches >= 5x faster
        assert m["warm_cold_ratio"] <= WARM_COLD_LIMIT
        assert m["warm_cold_limit"] == WARM_COLD_LIMIT
        # persisted plans are byte-for-byte what a fresh trace produces
        assert case["identical"] is True

    def test_native_step_case_reports_floor_contract(self, payload):
        from repro.bench.perfsuite import MIN_NATIVE_SPEEDUP

        (case,) = [c for c in payload["cases"] if c["name"] == "native_step"]
        assert case["metrics"]["L"] > 0
        assert case["metrics"]["min_speedup"] == MIN_NATIVE_SPEEDUP
        # the native step writes the NumPy step's bytes
        assert case["identical"] is True

    def test_payload_is_json_serializable(self, payload, tmp_path):
        path = tmp_path / "BENCH_selfperf.json"
        path.write_text(json.dumps(payload, indent=2))
        assert json.loads(path.read_text()) == payload

    def test_render_mentions_every_case(self, suite):
        text = render(suite)
        for name in CASE_NAMES:
            assert name in text


class TestBaseline:
    def test_derates_gated_quantities_only(self, payload):
        base = to_baseline(payload)
        assert "note" in base
        for cur, floor in zip(payload["cases"], base["cases"]):
            if cur["speedup"]:
                assert floor["speedup"] == pytest.approx(
                    cur["speedup"] * BASELINE_DERATE, abs=1e-3
                )
            rate = cur["metrics"].get("normalized_rate")
            if rate:
                assert floor["metrics"]["normalized_rate"] == pytest.approx(
                    rate * BASELINE_DERATE, abs=1e-6
                )
            # raw seconds are never touched
            assert floor["optimized_seconds"] == cur["optimized_seconds"]

    def test_committed_baseline_is_valid(self, payload):
        path = Path(__file__).parents[2] / "benchmarks" / "BENCH_selfperf_baseline.json"
        baseline = json.loads(path.read_text())
        assert baseline["schema"] == SCHEMA
        assert {c["name"] for c in baseline["cases"]} == CASE_NAMES


class TestGate:
    def test_run_passes_against_own_baseline(self, payload):
        assert check_regressions(payload, to_baseline(payload)) == []

    def test_detects_speedup_collapse(self, payload):
        doctored = copy.deepcopy(payload)
        for case in doctored["cases"]:
            if case["speedup"]:
                case["speedup"] = 0.1
        failures = check_regressions(doctored, to_baseline(payload))
        assert failures
        assert any("fell below" in f for f in failures)

    def test_detects_identity_regression(self, payload):
        doctored = copy.deepcopy(payload)
        for case in doctored["cases"]:
            if case["identical"]:
                case["identical"] = False
        failures = check_regressions(doctored, to_baseline(payload))
        assert any("no longer bit-identical" in f for f in failures)

    def test_detects_missing_case(self, payload):
        doctored = copy.deepcopy(payload)
        doctored["cases"] = doctored["cases"][1:]
        failures = check_regressions(doctored, to_baseline(payload))
        assert any("missing from current run" in f for f in failures)

    def test_tracing_overhead_gated_absolutely(self, payload):
        doctored = copy.deepcopy(payload)
        for case in doctored["cases"]:
            if case["name"] == "trace_streaming":
                case["metrics"]["overhead_ratio"] = 2.0
        failures = check_regressions(doctored, to_baseline(payload))
        assert any("tracing overhead" in f for f in failures)
        # the limit is absolute: it survives the baseline derate
        assert any("1.10x limit" in f for f in failures)

    def test_hit_miss_ratio_gated_absolutely(self, payload):
        doctored = copy.deepcopy(payload)
        for case in doctored["cases"]:
            if case["name"] == "serve_load":
                case["metrics"]["hit_miss_p99_ratio"] = 0.5
        failures = check_regressions(doctored, to_baseline(payload))
        assert any("cache-hit p99" in f for f in failures)
        # absolute limit: survives the baseline derate, names the 10x bar
        assert any("10x faster" in f for f in failures)

    def test_warm_cold_ratio_gated_absolutely(self, payload):
        doctored = copy.deepcopy(payload)
        for case in doctored["cases"]:
            if case["name"] == "jit_warm":
                case["metrics"]["warm_cold_ratio"] = 0.9
        failures = check_regressions(doctored, to_baseline(payload))
        assert any("warm first-launch" in f for f in failures)
        # absolute limit: survives the baseline derate, names the 5x bar
        assert any("5x faster" in f for f in failures)

    def test_vspmd_rate_gated_absolutely(self, payload):
        doctored = copy.deepcopy(payload)
        for case in doctored["cases"]:
            if case["name"] == "vspmd":
                case["metrics"]["rate_speedup"] = 2.0
        failures = check_regressions(doctored, to_baseline(payload))
        assert any("vector-tier event rate" in f for f in failures)
        # absolute limit: survives the baseline derate, names the 5x bar
        assert any("5.0x floor" in f for f in failures)

    def test_native_speedup_gated_absolutely(self, payload):
        doctored = copy.deepcopy(payload)
        for case in doctored["cases"]:
            if case["name"] == "native_step":
                case["speedup"] = 2.0
        baseline = to_baseline(payload)
        for case in baseline["cases"]:
            if case["name"] == "native_step":
                case["speedup"] = 1.0  # a derated floor the 2x run clears
        failures = check_regressions(doctored, baseline)
        # absolute limit: survives the baseline derate, names the 3x bar
        assert any("native_step" in f and "3.0x floor" in f for f in failures)

    def test_rejects_wrong_schema(self, payload):
        doctored = copy.deepcopy(payload)
        doctored["schema"] = "repro.bench.selfperf/0"
        failures = check_regressions(doctored, to_baseline(payload))
        assert any("schema" in f for f in failures)
