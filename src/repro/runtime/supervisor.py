"""The supervised sharded runtime: watchdog, restarts, degradation, report.

:func:`supervised_run` shards a lattice evolution across worker
*processes* (row slabs with halo exchange, :mod:`repro.runtime.sharding`)
and babysits them the way the in-process resilience layer babysits a
single evolution:

* a **block barrier** — at the start of every block of up to ``k``
  generations (:func:`~repro.runtime.sharding.block_stop`), each worker
  publishes its ``k + 1`` boundary rows per side as packed bit-planes
  (every worker of a run steps on the run's one backend); once all live
  workers have published block ``g``, the supervisor routes each worker
  its neighbours' rows and the workers step the whole block.  The
  supervisor keeps a bounded *halo history* of these exchanges, one
  entry per block;
* a **watchdog** — a worker that owes the barrier a message and has
  been silent past ``watchdog_timeout`` is presumed hung and killed;
* **checkpoint-restart** — dead or killed workers are respawned under a
  capped exponential-backoff-with-jitter policy
  (:class:`repro.util.backoff.BackoffPolicy`); the new incarnation
  restores the newest intact durable checkpoint
  (:class:`~repro.resilience.checkpoint.CheckpointStore`, packed
  bit-planes), or its initial slab before the first one, and the
  supervisor replays the halo history, block by block, to catch it up
  to the barrier — so a restarted run is **bit-identical** to an
  undisturbed one;
* **graceful degradation** — a worker that exhausts its restart budget,
  whatever keeps killing it (a crash, a hang, a persistent kernel
  error), is dropped: its neighbours keep stepping against its last
  published boundary rows (the moving-frame analogue of
  ``PartitionedEngine.failed_slices``) and the run completes *degraded*
  (if allowed) with the dead slab assembled from its last checkpoint;
* a **deadline** — the whole run aborts when a wall-clock budget is
  exhausted.

Everything observable lands in a schema-versioned
:class:`SupervisionReport`.  All timekeeping goes through one
injectable :class:`~repro.telemetry.Clock` (defaulting to the telemetry
spine's monotonic clock), so the watchdog/deadline tests drive virtual
time instead of sleeping, and worker lifecycle events (spawn, restart,
watchdog kill, drop, outcome) are emitted to an optional
:class:`~repro.telemetry.Recorder` alongside the report.

Each worker's pipe is its only channel.  Its final slab arrives in its
``done`` message as packed bit-planes, unpacked here.  With a collecting
recorder, every ``checkpoint``, ``done`` and ``error`` message also
carries the incarnation's cumulative telemetry snapshot; the newest one
per incarnation is merged into the report, so a killed worker loses
only what it recorded since its last checkpoint.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time as _time
from dataclasses import InitVar, asdict, dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path

import numpy as np

from repro.lgca.backends import stepper_class
from repro.lgca.bitplane import pack_state, unpack_state
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import (
    Shard,
    block_stop,
    load_slab,
    local_obstacles,
    plan_shards,
)
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
    merge_processes,
)
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
REPORT_SCHEMA_VERSION = 2

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
        The kernel backend every worker of the run steps on.
    density, seed:
        Seeded uniform initial state (ignored when ``initial_state``
        is given).
    initial_state:
        Explicit initial frame, shape ``(rows, cols, channels)``.
    obstacles:
        Optional whole-lattice obstacle mask.
    checkpoint_dir:
        Directory for per-worker durable checkpoints; a temporary
        directory (removed afterwards) when ``None``.  A directory that
        already holds shard checkpoints is refused (``ConfigError``).
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

    ``fallback_backend``, ``breaker_threshold`` and ``breaker_cooldown``
    are accepted for older callers and ignored.
    """

    spec: ModelSpec
    generations: int
    num_workers: int = 2
    backend: str = "reference"
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
    deadline_seconds: float | None = None
    allow_degraded: bool = False
    induced: tuple[InducedFault, ...] = ()
    start_method: str | None = None
    fallback_backend: InitVar[object] = None
    breaker_threshold: InitVar[object] = None
    breaker_cooldown: InitVar[object] = None

    def __post_init__(self, *_ignored: object) -> None:
        check_positive(self.generations, "generations", integer=True)
        check_positive(self.num_workers, "num_workers", integer=True)
        check_positive(self.watchdog_timeout, "watchdog_timeout")
        check_positive(self.poll_interval, "poll_interval")
        check_positive(self.checkpoint_interval, "checkpoint_interval", integer=True)
        check_positive(self.checkpoint_keep, "checkpoint_keep", integer=True)
        check_nonnegative(self.max_total_restarts, "max_total_restarts")
        if self.deadline_seconds is not None:
            check_positive(self.deadline_seconds, "deadline_seconds")
        stepper_class(self.backend)
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

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "worker": self.worker,
            "incarnation": self.incarnation,
            "generation": self.generation,
            "reason": self.reason,
            "delay": round(self.delay, 6),
        }


@dataclass
class SupervisionReport:
    """Everything observable about one supervised run.

    ``telemetry`` is the merged multi-process
    :class:`~repro.telemetry.TelemetryReport` (schema v2, one entry per
    coordinator/worker-incarnation) when the run was given a collecting
    recorder; it travels alongside the report object — ``to_dict`` is
    the supervised-run schema alone, the CLI writes the telemetry to its
    own ``--telemetry`` file.
    """

    outcome: str  # "complete" | "degraded" | "failed"
    reason: str
    generations: int
    generations_completed: int
    num_workers: int
    backend: str
    restarts: list[RestartEvent]
    watchdog_kills: int
    checkpoint_saves: dict[int, int]
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
            "restarts": [r.to_dict() for r in self.restarts],
            "num_restarts": len(self.restarts),
            "watchdog_kills": self.watchdog_kills,
            "checkpoint_saves": {
                str(w): n for w, n in sorted(self.checkpoint_saves.items())
            },
            "degraded_shards": self.degraded_shards,
            "wall_time_seconds": round(self.wall_time_seconds, 3),
        }


def _check_no_checkpoints(root: Path) -> None:
    """Refuse a checkpoint dir that already holds shard checkpoints.

    Another run's generations would mix with this run's: pruning keeps
    the newest, so a restarted worker could restore a stale slab.
    """
    stale = sorted(root.glob("worker-*/ckpt-*.ckpt"))
    if stale:
        raise ConfigError(
            f"checkpoint dir {root} already holds checkpoints "
            f"({stale[0].relative_to(root)}); use an empty directory"
        )


class _Handle:
    """Supervisor-side state for one worker slot."""

    def __init__(self, shard: Shard):
        self.shard = shard
        self.proc: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.status = "restart-pending"  # spawned by the main loop
        self.incarnation = -1
        self.delivered = -1  # highest generation whose boundary we hold
        self.failures = 0  # consecutive, reset on checkpoint
        self.okay_since = 0.0  # monotonic time of last interaction
        self.restart_at = 0.0
        self.error: str | None = None
        self.final_state: np.ndarray | None = None  # set on done or drop

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
    restart backoff, the deadline and wall-time accounting — inject a
    :class:`~repro.telemetry.StepClock` and every timeout in the run
    trips on virtual time.  ``recorder`` receives lifecycle events and
    heartbeat/restart counters; the default null recorder makes that
    free.
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
        self.handles = [_Handle(s) for s in self.shards]
        # Halo history: block start -> worker -> (top, bottom) boundary
        # rows, packed (C, k + 1, W) bit-planes as the workers send them.
        self.boundaries: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        self.last_boundary: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        channels = self.spec.num_channels
        for h in self.handles:
            slab = self.initial[h.shard.row_start : h.shard.row_stop]
            n = h.shard.exchange_rows
            self.last_boundary[h.index] = (
                pack_state(slab[:n], channels),
                pack_state(slab[-n:], channels),
            )
        # The next block start: every live worker's next boundary is owed.
        self.barrier = 0
        self.window = 2 * config.checkpoint_interval + 4
        self.total_restarts = 0
        self.watchdog_kills = 0
        self.checkpoint_saves: dict[int, int] = {h.index: 0 for h in self.handles}
        self.restarts: list[RestartEvent] = []
        self.degraded: list[dict[str, int]] = []
        self._owns_ckpt_dir = config.checkpoint_dir is None
        if config.checkpoint_dir is None:
            self.ckpt_root = Path(tempfile.mkdtemp(prefix="repro-supervised-"))
        else:
            self.ckpt_root = Path(config.checkpoint_dir)
            _check_no_checkpoints(self.ckpt_root)
        # Workers record only when the run is collecting; each message
        # that carries a snapshot replaces its incarnation's entry.
        self.telemetry_on = isinstance(self.recorder, InMemoryRecorder)
        self.worker_telemetry: dict[tuple[int, int], ProcessTelemetry] = {}
        self.started = self.clock()

    # -- spawning ------------------------------------------------------

    def _worker_dir(self, index: int) -> Path:
        return self.ckpt_root / f"worker-{index:02d}"

    def _local_obstacles(self, shard: Shard) -> np.ndarray | None:
        if self.config.obstacles is None:
            return None
        return local_obstacles(
            self.config.obstacles, shard, self.spec.boundary == "periodic"
        )

    def _block_stop(self, start: int) -> int:
        return block_stop(
            start,
            self.shards[0].depth,
            self.config.generations,
            self.config.checkpoint_interval,
        )

    def _spawn(self, h: _Handle) -> None:
        h.incarnation += 1
        shard = h.shard
        wc = WorkerConfig(
            worker=h.index,
            spec=self.spec,
            shard=shard,
            backend=self.config.backend,
            target_generation=self.config.generations,
            checkpoint_dir=str(self._worker_dir(h.index)),
            checkpoint_interval=self.config.checkpoint_interval,
            initial_slab=self.initial[shard.row_start : shard.row_stop].copy(),
            checkpoint_keep=self.config.checkpoint_keep,
            incarnation=h.incarnation,
            obstacles_mask=self._local_obstacles(shard),
            induced=self.config.induced,
        )
        parent, child = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=worker_main,
            args=(wc, child, self.telemetry_on),
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
        if self.telemetry_on:
            self.worker_telemetry[(h.index, h.incarnation)] = ProcessTelemetry(
                name=f"worker-{h.index}.{h.incarnation}",
                kind="worker",
                snapshot={},
                pid=proc.pid,
                worker=h.index,
                incarnation=h.incarnation,
                backend=self.config.backend,
                shard={
                    "index": shard.index,
                    "row_start": shard.row_start,
                    "row_stop": shard.row_stop,
                    "halo_top": shard.halo_top,
                    "halo_bottom": shard.halo_bottom,
                },
            )
        self.recorder.event(
            "supervisor.spawn",
            worker=h.index,
            incarnation=h.incarnation,
            backend=self.config.backend,
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
        restart = RestartEvent(
            worker=h.index,
            incarnation=h.incarnation + 1,
            generation=self.barrier,
            reason=reason,
            delay=delay,
        )
        self.restarts.append(restart)
        self.recorder.event("supervisor.restart", **asdict(restart))
        self.total_restarts += 1

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
            return load_slab(self._worker_dir(h.index), self.spec.cols)
        except CheckpointError:
            return 0, self.initial[h.shard.row_start : h.shard.row_stop].copy()

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
            self.barrier = self._block_stop(g)
            for old in [gg for gg in self.boundaries if gg < self.barrier - self.window]:
                del self.boundaries[old]

    # -- message handling ----------------------------------------------

    def _on_snapshot(
        self,
        h: _Handle,
        status: str,
        generation: int,
        snapshot: dict[str, object] | None,
    ) -> None:
        proc = self.worker_telemetry.get((h.index, h.incarnation))
        if proc is not None and snapshot is not None:
            proc.snapshot, proc.status, proc.generation = snapshot, status, generation

    def _on_message(self, h: _Handle, msg: tuple) -> None:
        kind = msg[0]
        h.okay_since = self.clock()
        self._heartbeats.add(1)
        if kind == "ready":
            restored = msg[2]
            proc = self.worker_telemetry.get((h.index, h.incarnation))
            if proc is not None:
                # Handshake clock alignment: the worker read its clock
                # just before sending, we read ours (the recorder's —
                # the telemetry timeline) on receipt, so the offset is
                # late by at most the message latency.
                proc.clock_offset = self.recorder.clock() - float(msg[3])
            oldest = min(self.boundaries, default=self.barrier)
            if restored < self.barrier and restored < oldest:
                self._fail(
                    h, f"restart at generation {restored} predates halo history"
                )
                return
            # Checkpoints fall on block ends, so ``restored`` is a block
            # start and the replay covers whole blocks.
            bundle = []
            g = restored
            while g < self.barrier:
                bundle.append((g, *self._halo_for(h.index, g)))
                g = self._block_stop(g)
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
            self._on_snapshot(h, "checkpoint", msg[1], msg[2])
        elif kind == "done":
            h.status = "done"
            h.final_state = unpack_state(msg[2], self.spec.cols)
            self._on_snapshot(h, "done", msg[1], msg[3])
        elif kind == "error":
            self._on_snapshot(h, "error", msg[1], msg[3])
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
            self._spawn(h)
        while True:
            now = self.clock()
            self._check_timeouts(now)
            for h in self.handles:
                if h.status == "restart-pending" and now >= h.restart_at:
                    self._spawn(h)
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
        """Assemble the lattice: finished slabs and frozen dropped ones."""
        full = np.zeros((self.spec.rows, self.spec.cols), dtype=np.uint8)
        for h in self.handles:
            full[h.shard.row_start : h.shard.row_stop] = h.final_state
        return full

    # -- telemetry -----------------------------------------------------

    def _merged_telemetry(self, outcome: str, reason: str) -> TelemetryReport | None:
        """The schema-v2 multi-process report: coordinator + every life."""
        try:
            processes = [coordinator_process(self.recorder)]  # type: ignore[arg-type]
            processes.extend(p for _, p in sorted(self.worker_telemetry.items()))
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
            self._shutdown()
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
            restarts=self.restarts,
            watchdog_kills=self.watchdog_kills,
            checkpoint_saves=self.checkpoint_saves,
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
    backoff, deadline, wall time), so tests pass a
    :class:`~repro.telemetry.StepClock` and drive every timeout on
    virtual time.  ``recorder`` collects worker lifecycle events and
    heartbeat counters; ``None`` means the zero-overhead null recorder.
    """
    return _Supervision(config, clock=clock, recorder=recorder).run()
