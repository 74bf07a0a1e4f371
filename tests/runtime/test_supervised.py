"""End-to-end tests for the supervised sharded runtime.

These spawn real worker processes, so they keep lattices small and
backoff delays short.  The headline assertions mirror the subsystem's
acceptance criteria: a supervised run with a mid-run worker kill
completes, restarts from checkpoint, and is bit-identical to the
unsupervised evolution; a worker that keeps failing, whatever the
cause, spends its restart budget and the run degrades or fails.
"""

import numpy as np
import pytest

from repro.lgca.automaton import LatticeGasAutomaton
from repro.runtime import (
    InducedFault,
    ModelSpec,
    SupervisorConfig,
    supervised_run,
)
from repro.telemetry import InMemoryRecorder, StepClock
from repro.util.backoff import BackoffPolicy
from repro.util.errors import ConfigError

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


class TestCleanRun:
    def test_bit_identical_to_unsupervised(self, spec, golden):
        state, report = supervised_run(config(spec))
        assert report.outcome == "complete"
        assert report.exit_code == 0
        assert not report.restarts
        assert np.array_equal(state, golden)

    def test_single_worker(self, spec, golden):
        state, report = supervised_run(config(spec, num_workers=1))
        assert report.outcome == "complete"
        assert np.array_equal(state, golden)

    def test_three_workers_null_boundary(self):
        spec = ModelSpec(kind="hpp", rows=21, cols=18, boundary="null")
        auto = LatticeGasAutomaton(spec.build(), spec.initial_state(0.3, 7))
        auto.run(GENS)
        state, report = supervised_run(config(spec, num_workers=3, seed=7))
        assert report.outcome == "complete"
        assert np.array_equal(state, auto.state)

    def test_report_schema(self, spec):
        _, report = supervised_run(config(spec, backend="bitplane"))
        payload = report.to_dict()
        assert set(payload) == {
            "schema",
            "schema_version",
            "outcome",
            "reason",
            "generations",
            "generations_completed",
            "num_workers",
            "backend",
            "restarts",
            "num_restarts",
            "watchdog_kills",
            "checkpoint_saves",
            "degraded_shards",
            "wall_time_seconds",
        }
        assert payload["schema"] == "repro-supervised-run"
        assert payload["schema_version"] == 2
        assert payload["backend"] == "bitplane"
        assert payload["generations_completed"] == GENS
        assert payload["num_restarts"] == 0
        assert payload["degraded_shards"] == []


class TestCheckpointRestart:
    def test_killed_worker_restarts_bit_identically(self, spec, golden):
        """The tentpole acceptance test: kill a worker mid-run at a
        generation that is NOT a checkpoint boundary; the restarted
        incarnation restores the last checkpoint, replays the halo
        history, and the final lattice is bit-identical."""
        state, report = supervised_run(
            config(
                spec,
                induced=(InducedFault(worker=0, generation=7, kind="crash"),),
            )
        )
        assert report.outcome == "complete"
        assert len(report.restarts) == 1
        assert report.restarts[0].worker == 0
        assert "died" in report.restarts[0].reason
        assert np.array_equal(state, golden)

    def test_restart_replays_a_buffered_block(self, spec):
        """A fault fires at the start of the block holding its generation.

        With 12-row slabs a block is 8 generations, and with checkpoints
        every 16 there is no checkpoint before the kill.  A kill at
        generation 12 fires at block start 8, so the restarted worker
        starts from its initial slab at generation 0, replays block
        [0, 8) from the supervisor's halo history, then rejoins the
        barrier at 8.
        """
        generations = 20
        auto = LatticeGasAutomaton(spec.build(), spec.initial_state(0.3, 42))
        auto.run(generations)
        recorder = InMemoryRecorder()
        state, report = supervised_run(
            config(
                spec,
                generations=generations,
                checkpoint_interval=16,
                induced=(InducedFault(worker=0, generation=12, kind="crash"),),
            ),
            recorder=recorder,
        )
        assert report.outcome == "complete"
        [restart] = report.restarts
        assert restart.worker == 0 and restart.generation == 8
        replays = [s for s in report.telemetry.spans if s["name"] == "worker.replay"]
        assert [(s["process"], s["generation"]) for s in replays] == [
            ("worker-0.1", 0)
        ]
        assert np.array_equal(state, auto.state)

    def test_both_workers_killed_at_different_gens(self, spec, golden):
        state, report = supervised_run(
            config(
                spec,
                induced=(
                    InducedFault(worker=0, generation=5, kind="crash"),
                    InducedFault(worker=1, generation=9, kind="crash"),
                ),
            )
        )
        assert report.outcome == "complete"
        assert len(report.restarts) == 2
        assert np.array_equal(state, golden)

    def test_stalled_worker_is_watchdogged_and_restarted(self, spec, golden):
        """The watchdog trips on *virtual* time: a StepClock advances a
        fixed step per supervisor clock read, so the 60-second stall is
        detected after ~400 event-loop wakeups instead of a real-time
        wait.  The timeout is generous in fake seconds so worker
        startup (which also reads the clock) can never false-trip it."""
        clock = StepClock(step=0.05)
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
            clock=clock,
        )
        assert report.outcome == "complete"
        assert report.watchdog_kills == 1
        assert any("watchdog" in r.reason for r in report.restarts)
        assert np.array_equal(state, golden)
        assert clock.reads > 0  # the supervisor really used the fake clock

    def test_restart_delays_follow_backoff(self, spec):
        _, report = supervised_run(
            config(
                spec,
                induced=(
                    InducedFault(
                        worker=0, generation=5, kind="crash", incarnations=2
                    ),
                ),
            )
        )
        assert len(report.restarts) == 2
        for event, attempt in zip(report.restarts, range(2)):
            base = FAST_BACKOFF.base(attempt)
            assert base * 0.9 <= event.delay <= min(base * 1.1, 0.3)


class TestDegradation:
    """A worker that fails on every life spends its restart budget, then
    is dropped: a crash and a persistent backend error end the same way.
    """

    TIGHT = BackoffPolicy(
        max_retries=2, base_delay=0.05, multiplier=2.0, max_delay=0.2
    )

    @staticmethod
    def unrecoverable(kind):
        return (InducedFault(worker=1, generation=6, kind=kind, incarnations=99),)

    @pytest.mark.parametrize("kind", ["crash", "backend-error"])
    def test_allow_degraded_freezes_the_lost_shard(self, spec, golden, kind):
        state, report = supervised_run(
            config(
                spec,
                backend="bitplane",
                backoff=self.TIGHT,
                allow_degraded=True,
                induced=self.unrecoverable(kind),
            )
        )
        assert report.outcome == "degraded"
        assert report.exit_code == 3
        # The restart budget (2 per worker) was spent before the drop.
        assert [r.worker for r in report.restarts] == [1, 1]
        [shard] = report.degraded_shards
        assert shard["worker"] == 1
        assert shard["generation"] == 4  # its last checkpoint
        # The surviving shard still produced data; the frozen one is stale.
        assert state is not None
        assert not np.array_equal(state, golden)
        rows = slice(shard["row_start"], shard["row_stop"])
        assert not np.array_equal(state[rows], golden[rows])

    @pytest.mark.parametrize("kind", ["crash", "backend-error"])
    def test_without_allow_degraded_the_run_fails(self, spec, kind):
        state, report = supervised_run(
            config(
                spec,
                backend="bitplane",
                backoff=self.TIGHT,
                induced=self.unrecoverable(kind),
            )
        )
        assert report.outcome == "failed"
        assert report.exit_code == 1
        assert state is None

    def test_deadline_fails_the_run(self, spec):
        """A StepClock makes the deadline trip after a handful of clock
        reads — no real-time budget is burned waiting for it."""
        clock = StepClock(step=1.0)
        state, report = supervised_run(
            config(spec, deadline_seconds=5.0), clock=clock
        )
        assert report.outcome == "failed"
        assert "deadline" in report.reason
        assert state is None
        assert clock.reads > 0


class TestConfigValidation:
    def test_rejects_reflecting_boundary(self):
        spec = ModelSpec(kind="fhp6", rows=24, cols=16, boundary="reflecting")
        with pytest.raises(ConfigError, match="boundary"):
            SupervisorConfig(spec=spec, generations=4)

    def test_rejects_random_chirality(self):
        spec = ModelSpec(kind="fhp6", rows=24, cols=16, chirality="random")
        with pytest.raises(ConfigError, match="chirality"):
            SupervisorConfig(spec=spec, generations=4)

    def test_rejects_unknown_backend(self, spec):
        with pytest.raises(ConfigError, match="backend"):
            SupervisorConfig(spec=spec, generations=4, backend="systolic")

    def test_rejects_too_many_workers(self, spec):
        with pytest.raises(ConfigError, match="at least"):
            SupervisorConfig(spec=spec, generations=4, num_workers=16)

    def test_rejects_mismatched_initial_state(self, spec):
        with pytest.raises(ConfigError, match="initial state"):
            supervised_run(
                config(spec, initial_state=np.zeros((4, 4), dtype=np.uint8))
            )


class TestDurableCheckpointDir:
    def test_explicit_dir_retains_checkpoints(self, spec, tmp_path):
        _, report = supervised_run(
            config(spec, checkpoint_dir=str(tmp_path))
        )
        assert report.outcome == "complete"
        worker_dirs = sorted(p.name for p in tmp_path.iterdir())
        assert worker_dirs == ["worker-00", "worker-01"]
        assert any((tmp_path / "worker-00").glob("ckpt-*.ckpt"))

    def test_checkpoint_saves_are_counted(self, spec):
        _, report = supervised_run(config(spec))
        # Interval 4 over 12 generations: saves at 4, 8, 12 per worker
        # (the supervisor holds generation 0).
        assert report.checkpoint_saves == {0: 3, 1: 3}
