"""Tests for the multi-process telemetry merger.

The merged report must preserve every invariant the validator checks on
single-process reports (span parent < index, timer key sets) while
adding process attribution and clock alignment — so most tests build
real recorders, snapshot them, and validate the merged result.
"""

import pytest

from repro.telemetry import (
    InMemoryRecorder,
    StepClock,
    coordinator_process,
    merge_processes,
    merge_timers,
    validate_report,
)
from repro.telemetry.merge import ProcessTelemetry


def worker_snapshot(start: float = 0.0) -> dict:
    rec = InMemoryRecorder(clock=StepClock(start=start, step=0.25))
    rec.counter("shard.generations").add(4)
    rec.timer("shard.step_seconds").record(0.004)
    rec.timer("shard.step_seconds").record(0.008)
    with rec.span("worker.run", generation=0):
        with rec.span("worker.step"):
            pass
    rec.event("worker.note", generation=4)
    return rec.snapshot()


def proc(name: str, *, offset: float = 0.0, start: float = 0.0) -> ProcessTelemetry:
    return ProcessTelemetry(
        name=name,
        kind="worker",
        snapshot=worker_snapshot(start),
        pid=100,
        worker=0,
        incarnation=0,
        backend="reference",
        clock_offset=offset,
    )


class TestMergeTimers:
    def test_counts_and_totals_sum(self):
        rec_a = InMemoryRecorder(clock=StepClock())
        rec_b = InMemoryRecorder(clock=StepClock())
        rec_a.timer("t").record(0.002)
        rec_b.timer("t").record(0.004)
        rec_b.timer("t").record(0.006)
        a = rec_a.snapshot()["timers"]["t"]
        b = rec_b.snapshot()["timers"]["t"]
        merged = merge_timers([a, b])
        assert merged["count"] == 3
        assert merged["total_seconds"] == pytest.approx(0.012)
        assert merged["min_seconds"] == pytest.approx(0.002)
        assert merged["max_seconds"] == pytest.approx(0.006)
        # mean is recomputed from the merged totals, never averaged
        assert merged["mean_seconds"] == pytest.approx(0.004)

    def test_buckets_add_elementwise(self):
        rec_a = InMemoryRecorder(clock=StepClock())
        rec_b = InMemoryRecorder(clock=StepClock())
        rec_a.timer("t").record(0.002)
        rec_b.timer("t").record(0.002)
        a = rec_a.snapshot()["timers"]["t"]
        b = rec_b.snapshot()["timers"]["t"]
        merged = merge_timers([a, b])
        assert sum(merged["buckets"].values()) == 2
        (bucket,) = set(a["buckets"]) | set(b["buckets"])
        assert merged["buckets"][bucket] == 2

    def test_single_input_is_identity(self):
        rec = InMemoryRecorder(clock=StepClock())
        rec.timer("t").record(0.003)
        t = rec.snapshot()["timers"]["t"]
        assert merge_timers([t]) == t


class TestMergeProcesses:
    def test_counters_sum_across_processes(self):
        report = merge_processes([proc("w0"), proc("w1")])
        assert report.counters["shard.generations"] == 8

    def test_merged_report_validates(self):
        report = merge_processes([proc("w0"), proc("w1")])
        assert validate_report(report.to_dict()) == []

    def test_spans_keep_parent_before_index(self):
        report = merge_processes([proc("w0"), proc("w1")])
        assert len(report.spans) == 4
        for span in report.spans:
            assert span["parent"] < span["index"]
            if span["parent"] >= 0:
                parent = report.spans[span["parent"]]
                assert parent["process"] == span["process"]

    def test_spans_carry_process_attribution(self):
        report = merge_processes([proc("w0"), proc("w1")])
        assert {s["process"] for s in report.spans} == {"w0", "w1"}

    def test_clock_offset_shifts_spans_and_events(self):
        plain = merge_processes([proc("w0")])
        shifted = merge_processes([proc("w0", offset=10.0)])
        for before, after in zip(plain.spans, shifted.spans):
            assert after["start"] == pytest.approx(before["start"] + 10.0)
            assert after["end"] == pytest.approx(before["end"] + 10.0)
        for before, after in zip(plain.events, shifted.events):
            assert after["time"] == pytest.approx(before["time"] + 10.0)

    def test_events_sort_by_aligned_time(self):
        # w1's raw clock starts earlier, but its offset pushes it later
        report = merge_processes(
            [proc("w0", offset=0.0, start=5.0), proc("w1", offset=100.0)]
        )
        times = [e["time"] for e in report.events]
        assert times == sorted(times)
        assert report.events[0]["process"] == "w0"

    def test_processes_entries_carry_identity_and_attribution(self):
        report = merge_processes([coordinator_process(InMemoryRecorder()), proc("w0")])
        names = [p["name"] for p in report.processes]
        assert names == ["coordinator", "w0"]
        worker = report.processes[1]
        assert worker["kind"] == "worker"
        assert worker["counters"]["shard.generations"] == 4
        assert worker["clock_offset_seconds"] == 0.0

    def test_meta_run_block_is_stamped(self):
        report = merge_processes([proc("w0")], meta={"command": "supervised_run"})
        assert report.meta["command"] == "supervised_run"
        assert "host" in report.meta["run"]


def worker_process(worker: int, incarnation: int, offset: float = 0.0) -> ProcessTelemetry:
    """A worker life as the supervisor builds it from its last snapshot."""
    return ProcessTelemetry(
        name=f"worker-{worker}.{incarnation}",
        kind="worker",
        snapshot=worker_snapshot(),
        pid=1000 + worker,
        worker=worker,
        incarnation=incarnation,
        backend="reference",
        shard={"index": worker, "row_start": 12 * worker,
               "row_stop": 12 * (worker + 1),
               "halo_top": 2 * min(worker, 1), "halo_bottom": 2},
        clock_offset=offset,
        status="done",
        generation=12,
    )


class TestWorkerProcesses:
    def test_worker_entry_identity(self):
        entry = worker_process(1, 0, offset=0.25).entry()
        assert entry["name"] == "worker-1.0"
        assert entry["worker"] == 1
        assert entry["clock_offset_seconds"] == 0.25
        assert entry["shard"]["row_start"] == 12
        assert entry["status"] == "done"
        assert entry["generation"] == 12

    def test_life_without_a_snapshot_has_empty_sections(self):
        entry = ProcessTelemetry(name="worker-0.0", kind="worker", snapshot={}).entry()
        assert entry["counters"] == {} and entry["timers"] == {}
        assert entry["spans"] == 0 and entry["events"] == 0
        assert "status" not in entry and "generation" not in entry

    def test_end_to_end_merge_validates(self):
        coordinator = InMemoryRecorder()
        coordinator.counter("supervisor.heartbeats").add(9)
        procs = [coordinator_process(coordinator)]
        procs += [worker_process(0, 0), worker_process(1, 0)]
        report = merge_processes(procs, meta={"command": "supervised_run"})
        assert validate_report(report.to_dict()) == []
        assert report.counters["shard.generations"] == 8
        assert report.counters["supervisor.heartbeats"] == 9
        assert len(report.processes) == 3
