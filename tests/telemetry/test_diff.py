"""Tests for the perf-regression differ.

The headline acceptance case from the subsystem spec: a synthetic 20%
timer slowdown must be detected and flagged past a 10% threshold, and
counters must never gate (heartbeats and restarts are timing-dependent
by design).
"""

import copy

import pytest

from repro.telemetry import (
    InMemoryRecorder,
    Metric,
    MetricDelta,
    StepClock,
    TelemetryError,
    TelemetryReport,
    diff_payloads,
    extract_metrics,
    format_deltas,
)
from repro.telemetry.diff import load_payload


def telemetry_payload() -> dict:
    rec = InMemoryRecorder(clock=StepClock(step=0.5))
    rec.counter("supervisor.heartbeats").add(36)
    for _ in range(8):
        rec.timer("shard.step_seconds").record(0.010)
    rec.timer("tiny.noise_seconds").record(0.000002)
    return TelemetryReport.from_recorder(rec, meta={"command": "run"}).to_dict()


def slowed(payload: dict, factor: float) -> dict:
    slow = copy.deepcopy(payload)
    for t in slow["timers"].values():
        t["mean_seconds"] *= factor
        t["total_seconds"] *= factor
    return slow


def bench_kernels_payload(rate: float) -> dict:
    return {
        "schema": "repro/bench-kernels/v3",
        "results": [
            {"model": "fhp6", "rows": 512, "cols": 512, "backend": "bitplane",
             "updates_per_second": rate},
            {"model": "fhp6", "rows": 512, "cols": 512, "backend": "reference",
             "updates_per_second": rate / 4},
        ],
    }


def bench_supervisor_payload(direct: float, supervised: float) -> dict:
    row = {"rows": 256, "cols": 256, "backend": "bitplane", "workers": 2,
           "direct_rate": direct, "supervised_rate": supervised}
    worse = dict(row, direct_rate=direct * 0.9, supervised_rate=supervised * 0.9)
    return {"schema": "repro/bench-supervisor/v1", "results": [worse, row]}


class TestChangeDirection:
    def test_timer_slowdown_is_positive_change(self):
        d = MetricDelta(name="t", base=1.0, head=1.2, unit="s",
                        higher_is_better=False, gates=True)
        assert d.change_percent == pytest.approx(20.0)
        assert d.regression(10.0)
        assert not d.regression(25.0)

    def test_rate_drop_is_positive_change(self):
        d = MetricDelta(name="r", base=100.0, head=80.0, unit="u/s",
                        higher_is_better=True, gates=True)
        assert d.change_percent == pytest.approx(20.0)
        assert d.regression(10.0)

    def test_improvement_never_regresses(self):
        d = MetricDelta(name="t", base=1.0, head=0.5, unit="s",
                        higher_is_better=False, gates=True)
        assert d.change_percent == pytest.approx(-50.0)
        assert not d.regression(0.0)

    def test_zero_base_is_not_a_regression(self):
        d = MetricDelta(name="t", base=0.0, head=5.0, unit="s",
                        higher_is_better=False, gates=True)
        assert d.change_percent == 0.0


class TestTelemetrySchema:
    def test_twenty_percent_slowdown_detected_at_ten(self):
        base = telemetry_payload()
        deltas = diff_payloads(base, slowed(base, 1.2))
        regressions = [d for d in deltas if d.regression(10.0)]
        assert any(d.name == "timer:shard.step_seconds" for d in regressions)

    def test_identical_reports_have_no_regressions(self):
        base = telemetry_payload()
        deltas = diff_payloads(base, copy.deepcopy(base))
        assert deltas
        assert not any(d.regression(0.0) for d in deltas)

    def test_counters_never_gate(self):
        base = telemetry_payload()
        head = copy.deepcopy(base)
        head["counters"]["supervisor.heartbeats"] = 360  # 10x: noisy, fine
        deltas = diff_payloads(base, head)
        counter = next(d for d in deltas if d.name.startswith("counter:"))
        assert not counter.gates
        assert not counter.regression(0.0)

    def test_min_seconds_filters_micro_timers_from_the_gate(self):
        base = telemetry_payload()
        head = slowed(base, 3.0)
        deltas = diff_payloads(base, head, min_seconds=0.001)
        tiny = next(d for d in deltas if d.name == "timer:tiny.noise_seconds")
        big = next(d for d in deltas if d.name == "timer:shard.step_seconds")
        assert not tiny.regression(10.0)
        assert big.regression(10.0)

    def test_zero_count_timers_are_skipped(self):
        base = telemetry_payload()
        base["timers"]["idle"] = {"name": "idle", "count": 0, "total_seconds": 0.0,
                                  "min_seconds": 0.0, "max_seconds": 0.0,
                                  "mean_seconds": 0.0, "buckets": {}}
        _, metrics = extract_metrics(base)
        assert "timer:idle" not in metrics


class TestBenchSchemas:
    def test_bench_kernels_rates_gate_on_throughput_loss(self):
        deltas = diff_payloads(
            bench_kernels_payload(1e6), bench_kernels_payload(0.8e6)
        )
        assert all(d.change_percent == pytest.approx(20.0) for d in deltas)
        assert all(d.regression(10.0) for d in deltas)

    def test_bench_kernels_keys_name_model_size_backend(self):
        _, metrics = extract_metrics(bench_kernels_payload(1e6))
        assert set(metrics) == {
            "rate:fhp6.512x512.bitplane",
            "rate:fhp6.512x512.reference",
        }

    def test_bench_supervisor_takes_best_of_repeats(self):
        _, metrics = extract_metrics(bench_supervisor_payload(1e6, 0.9e6))
        assert metrics["rate:256x256.bitplane.w2.direct"].value == pytest.approx(1e6)
        assert metrics["rate:256x256.bitplane.w2.supervised"].value == pytest.approx(0.9e6)

    def test_cross_schema_family_diff_is_rejected(self):
        with pytest.raises(TelemetryError, match="cannot diff"):
            diff_payloads(bench_kernels_payload(1e6), telemetry_payload())

    def test_same_family_different_version_diffs(self):
        head = bench_kernels_payload(1e6)
        head["schema"] = "repro/bench-kernels/v4"
        assert diff_payloads(bench_kernels_payload(1e6), head)

    def test_unknown_schema_is_rejected(self):
        with pytest.raises(TelemetryError, match="schema"):
            extract_metrics({"schema": "mystery/v1"})
        with pytest.raises(TelemetryError, match="no 'schema'"):
            extract_metrics({"results": []})
        with pytest.raises(TelemetryError, match="JSON object"):
            extract_metrics([1, 2, 3])


class TestFormatting:
    def test_regressions_are_flagged_and_counted(self):
        base = telemetry_payload()
        deltas = diff_payloads(base, slowed(base, 1.5))
        lines = format_deltas(deltas, 10.0)
        text = "\n".join(lines)
        assert "REGRESSION" in text
        assert "(not gated)" in text  # counters
        assert lines[-1].startswith(f"{len(deltas)} metric(s) compared")

    def test_one_sided_metrics_are_listed(self):
        lines = format_deltas([], 10.0, base_only=["timer:gone"],
                              head_only=["timer:new"])
        text = "\n".join(lines)
        assert "timer:gone: only in BASE" in text
        assert "timer:new: only in HEAD" in text


class TestLoadPayload:
    def test_reads_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"schema": "repro-telemetry"}')
        assert load_payload(path) == {"schema": "repro-telemetry"}

    def test_errors_are_telemetry_errors(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot read"):
            load_payload(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(TelemetryError, match="cannot read"):
            load_payload(bad)


def test_metric_defaults_gate():
    assert Metric(name="m", value=1.0, unit="s", higher_is_better=False).gates
