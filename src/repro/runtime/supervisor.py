"""The supervised sharded runtime: watchdog, restarts, breaker, report.

:func:`supervised_run` shards a lattice evolution across worker
*processes* (row slabs with halo exchange, :mod:`repro.runtime.sharding`)
and babysits them the way the in-process resilience layer babysits a
single evolution:

* a **lock-step barrier** — every generation, each worker publishes its
  two boundary rows; once all live workers have published generation
  ``g``, the supervisor routes each worker its neighbours' rows and the
  workers step.  The supervisor keeps a bounded *halo history* of these
  exchanges;
* a **watchdog** — a worker that owes the barrier a message and has
  been silent past ``watchdog_timeout`` is presumed hung and killed;
* **checkpoint-restart** — dead or killed workers are respawned under a
  capped exponential-backoff-with-jitter policy
  (:class:`repro.util.backoff.BackoffPolicy`); the new incarnation
  restores the newest intact durable checkpoint
  (:class:`~repro.resilience.checkpoint.CheckpointStore`) and the
  supervisor replays the halo history to catch it up to the barrier —
  so a restarted run is **bit-identical** to an undisturbed one;
* a per-primary-backend **circuit breaker**
  (:class:`~repro.runtime.breaker.CircuitBreaker`) — repeated failures
  attributed to the primary kernel backend reroute respawns to the
  fallback (``reference``) backend, with a half-open probe after a
  cooldown;
* **graceful degradation** — a worker that exhausts its restart budget
  is dropped: its neighbours keep stepping against its last published
  boundary rows (the moving-frame analogue of
  ``PartitionedEngine.failed_slices``) and the run completes *degraded*
  (if allowed) with the dead slab assembled from its last checkpoint;
* a **deadline** — the whole run aborts when a wall-clock budget is
  exhausted.

Everything observable lands in a schema-versioned
:class:`SupervisionReport`.  All timekeeping goes through one
injectable :class:`~repro.telemetry.Clock` shared with the breaker
(defaulting to the telemetry spine's monotonic clock), so the
watchdog/deadline tests drive virtual time instead of sleeping, and
worker lifecycle events (spawn, restart, watchdog kill, drop, breaker
transitions) are emitted to an optional
:class:`~repro.telemetry.Recorder` alongside the report.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time as _time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path

import numpy as np

from repro.lgca.backends import stepper_class
from repro.resilience.checkpoint import CheckpointStore
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import Shard, plan_shards
from repro.runtime.worker import InducedFault, WorkerConfig, worker_main
from repro.telemetry import (
    MONOTONIC,
    NULL_RECORDER,
    Clock,
    InMemoryRecorder,
    Recorder,
    TelemetryReport,
)
from repro.telemetry.merge import (
    ProcessTelemetry,
    coordinator_process,
    load_worker_spools,
    merge_processes,
)
from repro.telemetry.spool import worker_spool_path
from repro.util.backoff import BackoffPolicy
from repro.util.errors import CheckpointError, ConfigError
from repro.util.validation import check_nonnegative, check_positive

__all__ = [
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "RestartEvent",
    "SupervisionReport",
    "SupervisorConfig",
    "supervised_run",
]

#: Supervision report schema identity.
REPORT_SCHEMA = "repro-supervised-run"
REPORT_SCHEMA_VERSION = 1

#: Sub-lattice boundaries the row decomposition can reproduce exactly.
_SHARDABLE_BOUNDARIES = ("periodic", "null")


def _default_backoff() -> BackoffPolicy:
    return BackoffPolicy(
        max_retries=3, base_delay=0.1, multiplier=2.0, max_delay=2.0, jitter=0.1
    )


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything a supervised run needs.

    Parameters
    ----------
    spec:
        The lattice model, by value.  The boundary must be ``periodic``
        or ``null`` (``reflecting`` edges and per-site ``random``
        chirality cannot be sharded bit-identically and are rejected).
    generations:
        Generations to evolve.
    num_workers:
        Worker processes / row slabs.
    backend:
        Primary kernel backend for every worker.
    fallback_backend:
        Backend the circuit breaker falls back to (``reference``).
    density, seed:
        Seeded uniform initial state (ignored when ``initial_state``
        is given).
    initial_state:
        Explicit initial frame, shape ``(rows, cols, channels)``.
    obstacles:
        Optional whole-lattice obstacle mask.
    checkpoint_dir:
        Directory for per-worker durable checkpoints; a temporary
        directory (removed afterwards) when ``None``.
    checkpoint_interval, checkpoint_keep:
        Per-worker :class:`CheckpointStore` settings.
    watchdog_timeout:
        Seconds a worker may owe the barrier a message before it is
        presumed hung and killed.
    poll_interval:
        Supervisor event-loop wakeup period.
    backoff:
        Restart delay policy; ``max_retries`` is also the per-worker
        restart budget between checkpoints.
    max_total_restarts:
        Run-wide restart budget across all workers.
    breaker_threshold, breaker_cooldown:
        Circuit-breaker settings for the primary backend.
    deadline_seconds:
        Wall-clock budget for the whole run (``None`` = unlimited).
    allow_degraded:
        Complete (exit code 3) with dropped shards frozen at their last
        checkpoint instead of failing the run.
    induced:
        Test-only process faults (:class:`InducedFault`); each must name
        a worker below ``num_workers`` and a generation below
        ``generations``, or it could never fire.
    start_method:
        Multiprocessing start method; default prefers ``fork``.
    """

    spec: ModelSpec
    generations: int
    num_workers: int = 2
    backend: str = "reference"
    fallback_backend: str = "reference"
    density: float = 0.3
    seed: int = 0
    initial_state: np.ndarray | None = None
    obstacles: np.ndarray | None = None
    checkpoint_dir: str | None = None
    checkpoint_interval: int = 8
    checkpoint_keep: int = 3
    watchdog_timeout: float = 10.0
    poll_interval: float = 0.02
    backoff: BackoffPolicy = field(default_factory=_default_backoff)
    max_total_restarts: int = 8
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    deadline_seconds: float | None = None
    allow_degraded: bool = False
    induced: tuple[InducedFault, ...] = ()
    start_method: str | None = None

    def __post_init__(self) -> None:
        check_positive(self.generations, "generations", integer=True)
        check_positive(self.num_workers, "num_workers", integer=True)
        check_positive(self.watchdog_timeout, "watchdog_timeout")
        check_positive(self.poll_interval, "poll_interval")
        check_positive(self.checkpoint_interval, "checkpoint_interval", integer=True)
        check_positive(self.checkpoint_keep, "checkpoint_keep", integer=True)
        check_nonnegative(self.max_total_restarts, "max_total_restarts")
        check_positive(self.breaker_threshold, "breaker_threshold", integer=True)
        check_nonnegative(self.breaker_cooldown, "breaker_cooldown")
        if self.deadline_seconds is not None:
            check_positive(self.deadline_seconds, "deadline_seconds")
        for name in (self.backend, self.fallback_backend):
            stepper_class(name)
        if self.spec.boundary not in _SHARDABLE_BOUNDARIES:
            raise ConfigError(
                f"boundary={self.spec.boundary!r} cannot be sharded "
                f"bit-identically; use one of "
                f"{', '.join(_SHARDABLE_BOUNDARIES)}"
            )
        if self.spec.kind != "hpp" and self.spec.chirality == "random":
            raise ConfigError(
                "chirality='random' draws a whole-lattice RNG field and "
                "cannot be sharded bit-identically; use a deterministic "
                "chirality policy"
            )
        plan_shards(self.spec.rows, self.num_workers)  # fail fast on geometry
        for fault in self.induced:
            if fault.worker >= self.num_workers or fault.generation >= self.generations:
                raise ConfigError(
                    f"induced {fault.kind} at worker {fault.worker}, generation "
                    f"{fault.generation} can never fire in a run of "
                    f"{self.num_workers} worker(s) and {self.generations} "
                    "generation(s)"
                )


@dataclass(frozen=True)
class RestartEvent:
    """One worker respawn, for the supervision report."""

    worker: int
    incarnation: int
    generation: int
    reason: str
    delay: float
    backend: str

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "worker": self.worker,
            "incarnation": self.incarnation,
            "generation": self.generation,
            "reason": self.reason,
            "delay": round(self.delay, 6),
            "backend": self.backend,
        }


@dataclass
class SupervisionReport:
    """Everything observable about one supervised run.

    ``telemetry`` is the merged multi-process
    :class:`~repro.telemetry.TelemetryReport` (schema v2, one entry per
    coordinator/worker-incarnation) when the run was given a collecting
    recorder; it travels alongside the report object — ``to_dict`` keeps
    the v1 supervised-run schema unchanged, the CLI writes the telemetry
    to its own ``--telemetry`` file.
    """

    outcome: str  # "complete" | "degraded" | "failed"
    reason: str
    generations: int
    generations_completed: int
    num_workers: int
    backend: str
    fallback_backend: str
    restarts: list[RestartEvent]
    watchdog_kills: int
    checkpoint_saves: dict[int, int]
    breaker: dict[str, object] | None
    degraded_shards: list[dict[str, int]]
    wall_time_seconds: float
    telemetry: TelemetryReport | None = None

    @property
    def exit_code(self) -> int:
        """CLI exit code: 0 complete, 3 degraded, 1 failed."""
        return {"complete": 0, "degraded": 3}.get(self.outcome, 1)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (schema-versioned)."""
        return {
            "schema": REPORT_SCHEMA,
            "schema_version": REPORT_SCHEMA_VERSION,
            "outcome": self.outcome,
            "reason": self.reason,
            "generations": self.generations,
            "generations_completed": self.generations_completed,
            "num_workers": self.num_workers,
            "backend": self.backend,
            "fallback_backend": self.fallback_backend,
            "restarts": [r.to_dict() for r in self.restarts],
            "num_restarts": len(self.restarts),
            "watchdog_kills": self.watchdog_kills,
            "checkpoint_saves": {
                str(w): n for w, n in sorted(self.checkpoint_saves.items())
            },
            "breaker": self.breaker,
            "degraded_shards": self.degraded_shards,
            "wall_time_seconds": round(self.wall_time_seconds, 3),
        }


class _Handle:
    """Supervisor-side state for one worker slot."""

    def __init__(self, shard: Shard, backend: str):
        self.shard = shard
        self.backend = backend
        self.proc: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.status = "restart-pending"  # spawned by the main loop
        self.incarnation = -1
        self.delivered = -1  # highest generation whose boundary we hold
        self.failures = 0  # consecutive, reset on checkpoint
        self.okay_since = 0.0  # monotonic time of last interaction
        self.restart_at = 0.0
        self.error: str | None = None
        self.pending_restart: int | None = None  # index into restarts
        self.final_state: np.ndarray | None = None

    @property
    def index(self) -> int:
        return self.shard.index


class _Abort(Exception):
    """Internal: unwinds the event loop with a terminal outcome."""

    def __init__(self, outcome: str, reason: str):
        super().__init__(reason)
        self.outcome = outcome
        self.reason = reason


class _Supervision:
    """One supervised run's event loop and bookkeeping.

    ``clock`` is the single monotonic time source for the watchdog,
    restart backoff, the deadline, wall-time accounting, *and* the
    circuit breaker — inject a :class:`~repro.telemetry.StepClock` and
    every timeout in the run trips on virtual time.  ``recorder``
    receives lifecycle events and heartbeat/restart counters; the
    default null recorder makes that free.
    """

    def __init__(
        self,
        config: SupervisorConfig,
        clock: Clock = MONOTONIC,
        recorder: Recorder | None = None,
    ):
        self.config = config
        self.spec = config.spec
        self.clock = clock
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._heartbeats = self.recorder.counter("supervisor.heartbeats")
        self.shards = plan_shards(self.spec.rows, config.num_workers)
        method = config.start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self.ctx = multiprocessing.get_context(method)
        self.rng = np.random.default_rng(config.seed + 0x5EED)
        self.breaker = CircuitBreaker(
            backend=config.backend,
            fallback=config.fallback_backend,
            failure_threshold=config.breaker_threshold,
            cooldown_seconds=config.breaker_cooldown,
            clock=clock,
        )
        init = (
            config.initial_state
            if config.initial_state is not None
            else self.spec.initial_state(config.density, config.seed)
        )
        if init.shape[:2] != (self.spec.rows, self.spec.cols):
            raise ConfigError(
                f"initial state shape {init.shape} does not match the "
                f"{self.spec.rows}x{self.spec.cols} lattice"
            )
        self.initial = np.ascontiguousarray(init, dtype=np.uint8)
        self.handles = [_Handle(s, config.backend) for s in self.shards]
        # Halo history: generation -> worker -> (top, bottom) boundary rows.
        self.boundaries: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        self.last_boundary: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for h in self.handles:
            slab = self.initial[h.shard.row_start : h.shard.row_stop]
            self.last_boundary[h.index] = (slab[:2].copy(), slab[-2:].copy())
        self.barrier = 0
        self.window = 2 * config.checkpoint_interval + 4
        self.total_restarts = 0
        self.watchdog_kills = 0
        self.checkpoint_saves: dict[int, int] = {h.index: 0 for h in self.handles}
        self.restarts: list[RestartEvent] = []
        self.degraded: list[dict[str, int]] = []
        self._owns_ckpt_dir = config.checkpoint_dir is None
        self.ckpt_root = Path(
            config.checkpoint_dir
            or tempfile.mkdtemp(prefix="repro-supervised-")
        )
        # Per-worker telemetry spools live beside the checkpoints (same
        # lifetime, same durability story); workers get a spool path only
        # when the run is actually collecting.
        self.telemetry_on = isinstance(self.recorder, InMemoryRecorder)
        self.spool_dir = self.ckpt_root / "telemetry"
        # (worker, incarnation) -> coordinator-minus-worker clock offset,
        # measured at the ready handshake on the recorder's clock.
        self.clock_offsets: dict[tuple[int, int], float] = {}
        self._worker_telemetry: list[ProcessTelemetry] = []
        self.started = self.clock()

    # -- spawning ------------------------------------------------------

    def _worker_dir(self, index: int) -> Path:
        return self.ckpt_root / f"worker-{index:02d}"

    def _local_obstacles(self, shard: Shard) -> np.ndarray | None:
        if self.config.obstacles is None:
            return None
        return np.ascontiguousarray(
            self.config.obstacles[shard.local_row_indices(self.spec.rows)]
        )

    def _spawn(self, h: _Handle, first: bool) -> None:
        h.incarnation += 1
        h.backend = self.breaker.select_backend(self.barrier)
        if h.pending_restart is not None:
            i, h.pending_restart = h.pending_restart, None
            self.restarts[i] = replace(self.restarts[i], backend=h.backend)
        shard = h.shard
        wc = WorkerConfig(
            worker=h.index,
            spec=self.spec,
            shard=shard,
            backend=h.backend,
            target_generation=self.config.generations,
            checkpoint_dir=str(self._worker_dir(h.index)),
            checkpoint_interval=self.config.checkpoint_interval,
            checkpoint_keep=self.config.checkpoint_keep,
            incarnation=h.incarnation,
            initial_slab=(
                self.initial[shard.row_start : shard.row_stop].copy()
                if first
                else None
            ),
            obstacles_mask=self._local_obstacles(shard),
            induced=self.config.induced,
            spool_path=(
                str(worker_spool_path(self.spool_dir, h.index, h.incarnation))
                if self.telemetry_on
                else None
            ),
        )
        parent, child = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=worker_main,
            args=(wc, child),
            name=f"repro-worker-{h.index}",
            daemon=True,
        )
        proc.start()
        child.close()
        h.proc = proc
        h.conn = parent
        h.status = "starting"
        h.okay_since = self.clock()
        h.error = None
        self.recorder.event(
            "supervisor.spawn",
            worker=h.index,
            incarnation=h.incarnation,
            backend=h.backend,
            generation=self.barrier,
        )

    def _kill(self, h: _Handle) -> None:
        if h.conn is not None:
            h.conn.close()
            h.conn = None
        proc = h.proc
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        else:
            proc.join(timeout=2.0)
        h.proc = None

    # -- failure handling ----------------------------------------------

    def _fail(self, h: _Handle, reason: str) -> None:
        if h.status in ("restart-pending", "dropped"):
            return
        self._kill(h)
        h.failures += 1
        self.breaker.record_failure(h.backend, self.barrier)
        policy = self.config.backoff
        if (
            h.failures > policy.max_retries
            or self.total_restarts >= self.config.max_total_restarts
        ):
            self._drop(h, reason)
            return
        delay = policy.delay(h.failures - 1, self.rng)
        h.status = "restart-pending"
        h.restart_at = self.clock() + delay
        h.pending_restart = len(self.restarts)
        self.restarts.append(
            RestartEvent(
                worker=h.index,
                incarnation=h.incarnation + 1,
                generation=self.barrier,
                reason=reason,
                delay=delay,
                backend=h.backend,  # replaced by the breaker's pick at respawn
            )
        )
        self.total_restarts += 1
        self.recorder.event(
            "supervisor.restart",
            worker=h.index,
            incarnation=h.incarnation + 1,
            generation=self.barrier,
            reason=reason,
            delay=delay,
            backend=h.backend,
        )

    def _drop(self, h: _Handle, reason: str) -> None:
        """Give up on a shard: freeze its boundary rows, note degradation."""
        h.status = "dropped"
        generation, state = self._checkpointed_slab(h)
        h.final_state = state
        self.recorder.event(
            "supervisor.drop",
            worker=h.index,
            generation=generation,
            reason=reason,
        )
        self.degraded.append(
            {
                "worker": h.index,
                "row_start": h.shard.row_start,
                "row_stop": h.shard.row_stop,
                "generation": generation,
            }
        )
        if not self.config.allow_degraded:
            raise _Abort(
                "failed",
                f"worker {h.index} unrecoverable ({reason}) and degraded "
                f"completion is not allowed",
            )

    def _checkpointed_slab(self, h: _Handle) -> tuple[int, np.ndarray]:
        """Best recoverable state for a dead shard: checkpoint or t=0."""
        try:
            cp = CheckpointStore.load_latest(self._worker_dir(h.index))
        except CheckpointError:
            return 0, self.initial[h.shard.row_start : h.shard.row_stop].copy()
        return cp.generation, cp.state

    # -- halo routing --------------------------------------------------

    def _boundary_of(self, index: int, generation: int) -> tuple[np.ndarray, np.ndarray]:
        entry = self.boundaries.get(generation, {}).get(index)
        return self.last_boundary[index] if entry is None else entry

    def _halo_for(
        self, index: int, generation: int
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        n = len(self.handles)
        periodic = self.spec.boundary == "periodic"
        above_i = index - 1 if index > 0 else (n - 1 if periodic else None)
        below_i = index + 1 if index < n - 1 else (0 if periodic else None)
        above = (
            None if above_i is None else self._boundary_of(above_i, generation)[1]
        )
        below = (
            None if below_i is None else self._boundary_of(below_i, generation)[0]
        )
        return above, below

    def _active(self) -> list[_Handle]:
        return [h for h in self.handles if h.status != "dropped"]

    def _try_route(self) -> None:
        """Advance the barrier while every live worker has published."""
        while self.barrier < self.config.generations:
            have = self.boundaries.get(self.barrier, {})
            if any(h.index not in have for h in self._active()):
                return
            g = self.barrier
            for h in self.handles:
                if h.status != "running" or h.conn is None:
                    continue
                above, below = self._halo_for(h.index, g)
                try:
                    h.conn.send(("halo", g, above, below))
                    h.okay_since = self.clock()
                except OSError:
                    self._fail(h, "pipe closed while sending halo")
            self.barrier = g + 1
            for old in [gg for gg in self.boundaries if gg < self.barrier - self.window]:
                del self.boundaries[old]

    # -- message handling ----------------------------------------------

    def _on_message(self, h: _Handle, msg: tuple) -> None:
        kind = msg[0]
        h.okay_since = self.clock()
        self._heartbeats.add(1)
        if kind == "ready":
            _incarnation, restored = msg[1], msg[2]
            if self.telemetry_on and len(msg) > 3 and msg[3] is not None:
                # Handshake clock alignment: the worker read its clock
                # just before sending, we read ours (the recorder's —
                # the telemetry timeline) on receipt, so the offset is
                # late by at most the message latency.
                self.clock_offsets[(h.index, h.incarnation)] = (
                    self.recorder.clock() - float(msg[3])
                )
            oldest = min(self.boundaries, default=self.barrier)
            if restored < self.barrier and restored < oldest:
                self._fail(
                    h, f"checkpoint at generation {restored} predates halo history"
                )
                return
            bundle = [
                (g, *self._halo_for(h.index, g))
                for g in range(restored, self.barrier)
            ]
            try:
                h.conn.send(("replay", bundle))
            except OSError:
                self._fail(h, "pipe closed while sending replay")
                return
            h.status = "running"
        elif kind == "boundary":
            g, top, bottom = msg[1], msg[2], msg[3]
            self.boundaries.setdefault(g, {})[h.index] = (top, bottom)
            self.last_boundary[h.index] = (top, bottom)
            h.delivered = max(h.delivered, g)
        elif kind == "checkpoint":
            self.checkpoint_saves[h.index] += 1
            h.failures = 0
            self.breaker.record_success(h.backend, msg[1])
        elif kind == "done":
            h.status = "done"
        elif kind == "error":
            self._fail(h, f"worker error: {msg[2]}")

    def _drain(self, h: _Handle) -> None:
        while h.conn is not None and h.status not in ("restart-pending", "dropped"):
            try:
                if not h.conn.poll():
                    return
                msg = h.conn.recv()
            except (OSError, EOFError):
                return  # death is handled via the process sentinel
            self._on_message(h, msg)

    # -- watchdog / deadline -------------------------------------------

    def _owes_barrier(self, h: _Handle) -> bool:
        if h.status == "starting":
            return True  # owes "ready"
        if h.status != "running":
            return False
        return h.delivered < self.barrier or self.barrier >= self.config.generations

    def _check_timeouts(self, now: float) -> None:
        if (
            self.config.deadline_seconds is not None
            and now - self.started > self.config.deadline_seconds
        ):
            raise _Abort(
                "failed",
                f"deadline of {self.config.deadline_seconds:g}s exceeded at "
                f"generation {self.barrier}",
            )
        for h in self._active():
            if (
                h.status in ("starting", "running")
                and self._owes_barrier(h)
                and now - h.okay_since > self.config.watchdog_timeout
            ):
                self.watchdog_kills += 1
                self.recorder.event(
                    "supervisor.watchdog_kill",
                    worker=h.index,
                    generation=self.barrier,
                )
                self._fail(
                    h,
                    f"watchdog: silent for more than "
                    f"{self.config.watchdog_timeout:g}s at generation "
                    f"{self.barrier}",
                )

    # -- event loop ----------------------------------------------------

    def _loop(self) -> None:
        for h in self.handles:
            self._spawn(h, first=True)
        while True:
            now = self.clock()
            self._check_timeouts(now)
            for h in self.handles:
                if h.status == "restart-pending" and now >= h.restart_at:
                    self._spawn(h, first=False)
            live = [
                h
                for h in self.handles
                if h.status in ("starting", "running") and h.conn is not None
            ]
            if not self._active():
                raise _Abort("failed", "every worker was dropped")
            waitables: list[object] = [h.conn for h in live]
            waitables += [h.proc.sentinel for h in live if h.proc is not None]
            if waitables:
                _conn_wait(waitables, timeout=self.config.poll_interval)
            else:
                _time.sleep(self.config.poll_interval)
            for h in list(live):
                self._drain(h)
            for h in list(live):
                if (
                    h.status in ("starting", "running")
                    and h.proc is not None
                    and not h.proc.is_alive()
                ):
                    self._drain(h)  # salvage queued messages first
                    if h.status in ("starting", "running"):
                        code = h.proc.exitcode
                        self._fail(h, f"worker process died (exit code {code})")
            self._try_route()
            if all(h.status == "done" for h in self._active()):
                return

    # -- collection ----------------------------------------------------

    def _collect(self) -> np.ndarray:
        full = np.zeros((self.spec.rows, self.spec.cols), dtype=np.uint8)
        for h in self.handles:
            if h.status == "dropped":
                full[h.shard.row_start : h.shard.row_stop] = h.final_state
                continue
            state = self._collect_one(h)
            if state is None:
                self._fail(h, "worker died before returning its final slab")
                if h.status != "dropped":
                    # _fail scheduled a restart, but collection cannot
                    # wait for a whole re-run; degrade or abort instead.
                    h.status = "dropped"
                    generation, slab = self._checkpointed_slab(h)
                    self.degraded.append(
                        {
                            "worker": h.index,
                            "row_start": h.shard.row_start,
                            "row_stop": h.shard.row_stop,
                            "generation": generation,
                        }
                    )
                    if not self.config.allow_degraded:
                        raise _Abort(
                            "failed",
                            f"worker {h.index} lost at collection and degraded "
                            f"completion is not allowed",
                        )
                    h.final_state = slab
                full[h.shard.row_start : h.shard.row_stop] = h.final_state
                continue
            full[h.shard.row_start : h.shard.row_stop] = state
        return full

    def _collect_one(self, h: _Handle) -> np.ndarray | None:
        if h.conn is None:
            return None
        try:
            h.conn.send(("collect",))
            deadline = self.clock() + self.config.watchdog_timeout
            while self.clock() < deadline:
                if not h.conn.poll(timeout=self.config.poll_interval):
                    continue
                msg = h.conn.recv()
                if msg[0] == "state":
                    if msg[1] != self.config.generations:
                        return None
                    return np.asarray(msg[2], dtype=np.uint8)
                self._on_message(h, msg)  # late checkpoint notices
        except (OSError, EOFError):
            return None
        return None

    # -- telemetry -----------------------------------------------------

    def _harvest_worker_telemetry(self) -> None:
        """Read every worker spool before the checkpoint root vanishes.

        Runs in the ``finally`` path ahead of :meth:`_shutdown` (which
        may rmtree an owned temp root).  Spools are already durable —
        each worker fsyncs its final snapshot before sending ``done``,
        and a killed worker's last-checkpoint snapshot is on disk — so
        this is a plain read, not a join.
        """
        if not self.telemetry_on:
            return
        try:
            self._worker_telemetry = load_worker_spools(
                self.spool_dir, self.clock_offsets
            )
        except Exception:  # noqa: BLE001 - telemetry must never fail a run
            self._worker_telemetry = []

    def _merged_telemetry(self, outcome: str, reason: str) -> TelemetryReport | None:
        """The schema-v2 multi-process report: coordinator + every life."""
        try:
            processes = [coordinator_process(self.recorder)]  # type: ignore[arg-type]
            processes.extend(self._worker_telemetry)
            return merge_processes(
                processes,
                meta={
                    "command": "supervised_run",
                    "outcome": outcome,
                    "reason": reason,
                    "generations": self.config.generations,
                    "num_workers": self.config.num_workers,
                    "backend": self.config.backend,
                },
                producer=f"{REPORT_SCHEMA}/v{REPORT_SCHEMA_VERSION}",
            )
        except Exception:  # noqa: BLE001 - telemetry must never fail a run
            return None

    # -- shutdown ------------------------------------------------------

    def _shutdown(self) -> None:
        for h in self.handles:
            if h.conn is not None:
                try:
                    h.conn.send(("stop",))
                except OSError:
                    pass
            self._kill(h)
        if self._owns_ckpt_dir:
            shutil.rmtree(self.ckpt_root, ignore_errors=True)

    # -- entry point ---------------------------------------------------

    def run(self) -> tuple[np.ndarray | None, SupervisionReport]:
        outcome, reason = "complete", "all shards completed"
        state: np.ndarray | None = None
        try:
            self._loop()
            state = self._collect()
            if self.degraded:
                outcome = "degraded"
                reason = (
                    f"{len(self.degraded)} shard(s) frozen at their last "
                    f"checkpoint"
                )
        except _Abort as abort:
            outcome, reason = abort.outcome, abort.reason
        finally:
            self._harvest_worker_telemetry()
            self._shutdown()
        for t in self.breaker.transitions:
            self.recorder.event(
                "supervisor.breaker_transition",
                backend=t.backend,
                state=t.state,
                generation=t.generation,
                reason=t.reason,
            )
        self.recorder.event(
            "supervisor.outcome",
            outcome=outcome,
            reason=reason,
            generations_completed=self.barrier,
            restarts=len(self.restarts),
            watchdog_kills=self.watchdog_kills,
        )
        report = SupervisionReport(
            outcome=outcome,
            reason=reason,
            generations=self.config.generations,
            generations_completed=self.barrier,
            num_workers=self.config.num_workers,
            backend=self.config.backend,
            fallback_backend=self.config.fallback_backend,
            restarts=self.restarts,
            watchdog_kills=self.watchdog_kills,
            checkpoint_saves=self.checkpoint_saves,
            breaker=(
                self.breaker.to_dict()
                if self.config.backend != self.config.fallback_backend
                else None
            ),
            degraded_shards=self.degraded,
            wall_time_seconds=self.clock() - self.started,
        )
        if self.telemetry_on:
            report.telemetry = self._merged_telemetry(outcome, reason)
        return state, report


def supervised_run(
    config: SupervisorConfig,
    clock: Clock = MONOTONIC,
    recorder: Recorder | None = None,
) -> tuple[np.ndarray | None, SupervisionReport]:
    """Run a sharded lattice evolution under supervision.

    Returns ``(final_state, report)``; the state is ``None`` when the
    run failed outright.  A run that needed restarts but lost no shard
    permanently is bit-identical to an unsupervised
    :class:`~repro.lgca.automaton.LatticeGasAutomaton` evolution of the
    same spec, seed, and generation count.

    ``clock`` is the run's only monotonic time source (watchdog,
    backoff, deadline, breaker, wall time) — the same injectable the
    breaker has always taken — so tests pass a
    :class:`~repro.telemetry.StepClock` and drive every timeout on
    virtual time.  ``recorder`` collects worker lifecycle events and
    heartbeat counters; ``None`` means the zero-overhead null recorder.
    """
    return _Supervision(config, clock=clock, recorder=recorder).run()
