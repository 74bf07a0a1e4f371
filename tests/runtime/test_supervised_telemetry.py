"""Cross-process telemetry tests for the supervised runtime.

Satellite of the telemetry tentpole: a supervised run with a recorder
must hand back ONE merged v2 report — coordinator plus every worker
incarnation's spool, clock-aligned — and the supervisor's lifecycle
event stream (spawn / restart / watchdog_kill / drop / outcome) must
carry worker attribution through induced kill and stall faults.

These spawn real worker processes; faults and clocks follow the
patterns of ``test_supervised.py`` (StepClock for the stall, no real
waiting on the induced 60-second hang).
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.lgca.automaton import LatticeGasAutomaton
from repro.runtime import (
    InducedFault,
    ModelSpec,
    SupervisorConfig,
    supervised_run,
)
from repro.telemetry import InMemoryRecorder, StepClock, validate_report
from repro.util.backoff import BackoffPolicy

GENS = 12

FAST_BACKOFF = BackoffPolicy(
    max_retries=6, base_delay=0.05, multiplier=2.0, max_delay=0.3, jitter=0.1
)


@pytest.fixture(scope="module")
def spec():
    return ModelSpec(kind="fhp6", rows=24, cols=16, boundary="periodic")


@pytest.fixture(scope="module")
def golden(spec):
    auto = LatticeGasAutomaton(
        spec.build(), spec.initial_state(0.3, 42), backend="reference"
    )
    auto.run(GENS)
    return auto.state.copy()


def config(spec, **overrides):
    defaults = dict(
        spec=spec,
        generations=GENS,
        num_workers=2,
        seed=42,
        checkpoint_interval=4,
        watchdog_timeout=15.0,
        backoff=FAST_BACKOFF,
        max_total_restarts=10,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def events_named(report, name):
    return [e for e in report.telemetry.events if e.get("name") == name]


class TestCleanRunTelemetry:
    def test_merged_report_is_valid_v2_with_worker_attribution(self, spec):
        recorder = InMemoryRecorder()
        _, report = supervised_run(config(spec), recorder=recorder)
        assert report.outcome == "complete"
        merged = report.telemetry
        assert merged is not None
        payload = merged.to_dict()
        assert payload["schema_version"] == 2
        assert validate_report(payload) == []
        names = [p["name"] for p in merged.processes]
        assert names == ["coordinator", "worker-0.0", "worker-1.0"]

    def test_worker_kernel_and_halo_timers_are_merged(self, spec):
        recorder = InMemoryRecorder()
        _, report = supervised_run(config(spec), recorder=recorder)
        merged = report.telemetry
        # Every worker steps GENS generations; the merged counter is the
        # whole fleet's work.  Shards exchange halos and step once per
        # block: the 12-row slabs allow blocks of 8, but blocks stop at
        # every checkpoint (interval 4), so each worker runs 3 blocks.
        blocks = len(range(0, GENS, 4))
        assert merged.counters["shard.generations"] == 2 * GENS
        for name in ("shard.step_seconds", "shard.halo_seconds"):
            assert merged.timers[name]["count"] == 2 * blocks
        # Per-process attribution survives the fold.
        for p in merged.processes[1:]:
            assert p["kind"] == "worker"
            assert p["counters"]["shard.generations"] == GENS
            assert p["timers"]["shard.step_seconds"]["count"] == blocks
            assert p["timers"]["shard.halo_seconds"]["count"] == blocks
            assert p["backend"] == "reference"
            assert isinstance(p["pid"], int)
            assert "clock_offset_seconds" in p

    def test_worker_spans_are_clock_aligned_and_tagged(self, spec):
        recorder = InMemoryRecorder()
        _, report = supervised_run(config(spec), recorder=recorder)
        merged = report.telemetry
        runs = [s for s in merged.spans if s["name"] == "worker.run"]
        assert {s["process"] for s in runs} == {"worker-0.0", "worker-1.0"}
        # Aligned onto the coordinator timeline: every worker span must
        # start after the supervisor did and end within the run.
        spawn_times = [e["time"] for e in events_named(report, "supervisor.spawn")]
        outcome_time = events_named(report, "supervisor.outcome")[0]["time"]
        for s in runs:
            assert min(spawn_times) <= s["start"] <= outcome_time
            assert s["end"] <= outcome_time + 1.0

    def test_lifecycle_events_attribute_workers(self, spec):
        recorder = InMemoryRecorder()
        _, report = supervised_run(config(spec), recorder=recorder)
        spawns = events_named(report, "supervisor.spawn")
        assert sorted(e["worker"] for e in spawns) == [0, 1]
        assert all(e["incarnation"] == 0 for e in spawns)
        (outcome,) = events_named(report, "supervisor.outcome")
        assert outcome["outcome"] == "complete"

    def test_recording_is_bit_identical_to_not_recording(self, spec, golden):
        """Acceptance: telemetry must never perturb the physics."""
        state_off, report_off = supervised_run(config(spec))
        state_on, report_on = supervised_run(
            config(spec), recorder=InMemoryRecorder()
        )
        assert report_off.telemetry is None
        assert report_on.telemetry is not None
        assert np.array_equal(state_off, state_on)
        assert np.array_equal(state_on, golden)


class TestKillScenario:
    def test_killed_worker_leaves_both_incarnations_in_the_report(self, spec, golden):
        recorder = InMemoryRecorder()
        state, report = supervised_run(
            config(
                spec,
                induced=(InducedFault(worker=0, generation=7, kind="crash"),),
            ),
            recorder=recorder,
        )
        assert report.outcome == "complete"
        assert np.array_equal(state, golden)
        merged = report.telemetry
        assert validate_report(merged.to_dict()) == []
        names = [p["name"] for p in merged.processes]
        assert names == [
            "coordinator", "worker-0.0", "worker-0.1", "worker-1.0",
        ]
        # The dead incarnation's spool survives to its last checkpoint
        # (generation 4 of 12) — cumulative snapshots mean the fleet
        # total is still exactly the work done once.
        dead = merged.processes[1]
        assert dead["counters"]["shard.generations"] == 4
        assert merged.counters["shard.generations"] == 2 * GENS

    def test_restart_event_attributes_the_killed_worker(self, spec):
        recorder = InMemoryRecorder()
        _, report = supervised_run(
            config(
                spec,
                induced=(InducedFault(worker=0, generation=7, kind="crash"),),
            ),
            recorder=recorder,
        )
        (restart,) = events_named(report, "supervisor.restart")
        assert restart["worker"] == 0
        assert restart["incarnation"] == 1
        assert "died" in restart["reason"]
        spawns = events_named(report, "supervisor.spawn")
        assert len(spawns) == 3  # two initial + one respawn
        # Emitted where the failure is recorded, so it matches the
        # report's restart and precedes the respawn it schedules.
        (event,) = report.restarts
        assert {k: restart[k] for k in asdict(event)} == asdict(event)
        (respawn,) = [e for e in spawns if e["incarnation"] == 1]
        assert restart["time"] <= respawn["time"]


class TestStallScenario:
    def test_watchdog_kill_event_with_worker_attribution(self, spec, golden):
        """Virtual-time stall (see test_supervised.py): the StepClock
        advances per supervisor clock read, so the 60s hang is detected
        without real waiting."""
        recorder = InMemoryRecorder()
        state, report = supervised_run(
            config(
                spec,
                watchdog_timeout=20.0,
                poll_interval=0.005,
                induced=(
                    InducedFault(
                        worker=1, generation=6, kind="stall", seconds=60.0
                    ),
                ),
            ),
            recorder=recorder,
            clock=StepClock(step=0.05),
        )
        assert report.outcome == "complete"
        assert np.array_equal(state, golden)
        (kill,) = events_named(report, "supervisor.watchdog_kill")
        assert kill["worker"] == 1
        (restart,) = events_named(report, "supervisor.restart")
        assert restart["worker"] == 1
        assert "watchdog" in restart["reason"]
        names = [p["name"] for p in report.telemetry.processes]
        assert "worker-1.0" in names and "worker-1.1" in names
