"""The shard worker process: step, checkpoint, exchange halos, obey.

One worker owns one row slab (:class:`~repro.runtime.sharding.Shard`)
and talks to the supervisor over a duplex pipe.  It steps in blocks of
up to ``k`` generations (:func:`~repro.runtime.sharding.block_stop`)
and exchanges halos once per block:

=================================== =====================================
worker sends                        supervisor replies
=================================== =====================================
``("ready", incarnation, gen,       ``("replay", [(g, above, below)...])``
``clock)``                          (one entry per block start ``g``)
``("boundary", g, top, bottom)``    ``("halo", g, above, below)``
(once per block, at its start ``g``)
``("checkpoint", g)``               —  (accounting only)
``("done", g)``                     ``("collect",)``
``("state", g, slab)``              ``("stop",)``
``("error", g, message)``           —  (the worker exits)
=================================== =====================================

``top`` and ``bottom`` are the slab's outermost ``k + 1`` rows, as
packed ``(C, k + 1, W)`` bit-planes (every worker of a run steps on the
same backend); the worker then sets its halos and advances the whole
block with one :meth:`~repro.runtime.sharding.ShardRunner.advance`
call.

Every incarnation checkpoints its slab crash-safely, in the same packed
format (:class:`~repro.resilience.checkpoint.CheckpointStore` with a
directory), at every positive multiple of the checkpoint interval —
always a block end, because blocks stop there.  The write is
synchronous and durable before the ``checkpoint`` notice goes out.
There is no generation-0 checkpoint: every incarnation's config carries
the initial slab.  A restarted incarnation restores the newest intact
checkpoint (:func:`~repro.runtime.sharding.load_slab`) if there is one
and otherwise starts from that slab at generation 0; it announces its
generation in ``ready``, and the supervisor replays the buffered halo
history block by block to catch it up to the barrier — bit-identically,
because the kernels are deterministic and the halos are the exact rows
the dead incarnation saw.

``ready`` also carries a reading of the worker's monotonic clock — the
supervisor timestamps the receipt and the difference becomes this
incarnation's clock offset, aligning its spooled span/event times onto
the coordinator timeline (see :mod:`repro.telemetry.merge`).

Telemetry follows the checkpoint discipline: when
``WorkerConfig.spool_path`` is set, the worker records into a private
:class:`~repro.telemetry.InMemoryRecorder` and appends cumulative
snapshots to a crash-safe spool (:mod:`repro.telemetry.spool`) — at
every checkpoint and once more before ``done`` — so a killed worker
loses at most the telemetry since its last checkpoint, exactly what it
loses in lattice state.

:class:`InducedFault` is the runtime's chaos hook (the process-level
sibling of :class:`repro.resilience.faults.FaultSpec`): a configured
worker kills itself, stalls, or raises at the start of the block that
contains a given generation, so tests and the CI smoke job exercise
real worker death instead of simulated corruption.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.resilience.checkpoint import CheckpointStore
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import Shard, ShardRunner, block_stop, load_slab
from repro.telemetry import (
    MONOTONIC,
    NULL_RECORDER,
    InMemoryRecorder,
    Recorder,
    SpoolWriter,
    TelemetryError,
)
from repro.util.errors import CheckpointError, ConfigError
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["InducedFault", "WorkerConfig", "worker_main"]

#: Exit codes a worker uses for deliberate self-termination.
EXIT_INDUCED_CRASH = 13
EXIT_ERROR = 3


@dataclass(frozen=True)
class InducedFault:
    """A process-level fault a worker inflicts on itself, for testing.

    Parameters
    ----------
    worker:
        Target worker index.
    generation:
        Fires at the start of the block that contains this generation,
        when the worker is about to publish that block's boundary rows.
        So a fault at generation 12 with blocks of 8 fires at 8: the
        worker dies with generations 8-11 unstepped, and a checkpoint
        interval of 16 makes its successor replay block ``[0, 8)``.
    kind:
        ``"crash"`` (hard ``os._exit`` — models OOM-kill / segfault),
        ``"stall"`` (sleep ``seconds`` — models a hang; the watchdog
        must reap it), or ``"backend-error"`` (raise — models a kernel
        bug; with ``incarnations`` above the restart budget it is a
        persistent one).
    incarnations:
        Fire only while ``incarnation < incarnations`` (default 1: the
        first life only, so the restarted worker survives).
    seconds:
        Stall duration for ``kind="stall"``.
    """

    worker: int
    generation: int
    kind: str
    incarnations: int = 1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "stall", "backend-error"):
            raise ConfigError(
                f"kind={self.kind!r} must be crash, stall, or backend-error"
            )
        check_nonnegative(self.worker, "worker", integer=True)
        check_nonnegative(self.generation, "generation", integer=True)
        check_positive(self.incarnations, "incarnations", integer=True)
        check_positive(self.seconds, "seconds")

    def armed(self, worker: int, start: int, stop: int, incarnation: int) -> bool:
        """Whether this fault fires for the block ``[start, stop)``."""
        return (
            self.worker == worker
            and start <= self.generation < stop
            and incarnation < self.incarnations
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "worker": self.worker,
            "generation": self.generation,
            "kind": self.kind,
            "incarnations": self.incarnations,
        }


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker incarnation needs, by value (picklable).

    ``initial_slab`` is the owned rows' state at generation 0; a
    restarted incarnation (``incarnation > 0``) starts from the newest
    intact checkpoint in ``checkpoint_dir`` instead, when there is one.
    ``spool_path`` switches per-worker telemetry on: the worker records
    into its own recorder and spools snapshots there (one file per
    incarnation, the supervisor names it).
    """

    worker: int
    spec: ModelSpec
    shard: Shard
    backend: str
    target_generation: int
    checkpoint_dir: str
    checkpoint_interval: int
    initial_slab: np.ndarray
    checkpoint_keep: int = 2
    incarnation: int = 0
    obstacles_mask: np.ndarray | None = None
    induced: tuple[InducedFault, ...] = ()
    spool_path: str | None = None


def _fire_induced(config: WorkerConfig, start: int, stop: int) -> None:
    """Inflict any fault armed for the block ``[start, stop)`` on ourselves."""
    for fault in config.induced:
        if not fault.armed(config.worker, start, stop, config.incarnation):
            continue
        if fault.kind == "crash":
            os._exit(EXIT_INDUCED_CRASH)
        if fault.kind == "stall":
            time.sleep(fault.seconds)
        elif fault.kind == "backend-error":
            raise RuntimeError(
                f"induced backend error on {config.backend!r} "
                f"(worker {config.worker}, block {start}-{stop})"
            )


def _spool_snapshot(
    spool: SpoolWriter | None,
    recorder: Recorder,
    status: str,
    generation: int,
) -> None:
    """Best-effort cumulative snapshot frame (telemetry never kills a worker)."""
    if spool is None:
        return
    try:
        spool.snapshot_frame(
            recorder.snapshot(),  # type: ignore[attr-defined]
            status=status,
            generation=generation,
        )
    except TelemetryError:
        pass


def _checkpoint(
    store: CheckpointStore,
    runner: ShardRunner,
    conn: Connection,
    recorder: Recorder,
    spool: SpoolWriter | None,
) -> None:
    store.save(runner.time, runner.packed_interior())
    _spool_snapshot(spool, recorder, status="checkpoint", generation=runner.time)
    conn.send(("checkpoint", runner.time))


def _advance_to_target(
    config: WorkerConfig,
    conn: Connection,
    runner: ShardRunner,
    store: CheckpointStore,
    recorder: Recorder,
    spool: SpoolWriter | None,
) -> bool:
    """Replay buffered halo blocks, then step to the target; False on early stop."""
    target = config.target_generation

    def block_end() -> int:
        return block_stop(
            runner.time, runner.shard.depth, target, config.checkpoint_interval
        )

    def step_block(stop: int, above: np.ndarray | None, below: np.ndarray | None) -> None:
        runner.set_halos(above, below)
        runner.advance(stop - runner.time)
        if store.due(runner.time):
            _checkpoint(store, runner, conn, recorder, spool)

    msg = conn.recv()
    if msg[0] == "stop":
        return False
    assert msg[0] == "replay", msg[0]
    if msg[1]:
        with recorder.span("worker.replay", generation=runner.time):
            for generation, above, below in msg[1]:
                assert generation == runner.time, (generation, runner.time)
                step_block(block_end(), above, below)

    with recorder.span("worker.run", generation=runner.time):
        while runner.time < target:
            generation, stop = runner.time, block_end()
            _fire_induced(config, generation, stop)
            top, bottom = runner.boundary_rows()
            conn.send(("boundary", generation, top, bottom))
            msg = conn.recv()
            if msg[0] == "stop":
                return False
            assert msg[0] == "halo" and msg[1] == generation, msg[:2]
            step_block(stop, msg[2], msg[3])
    return True


def _worker_loop(
    config: WorkerConfig,
    conn: Connection,
    recorder: Recorder,
    spool: SpoolWriter | None,
) -> None:
    shard = config.shard
    model = config.spec.build(rows=shard.local_rows)
    store = CheckpointStore(
        interval=config.checkpoint_interval,
        keep=config.checkpoint_keep,
        directory=config.checkpoint_dir,
    )
    generation, slab = 0, config.initial_slab
    if config.incarnation > 0:
        try:
            generation, slab = load_slab(config.checkpoint_dir, config.spec.cols)
        except CheckpointError:
            pass  # no intact checkpoint yet: start over from the slab
    runner = ShardRunner(
        model,
        shard,
        slab,
        backend=config.backend,
        obstacles_mask=config.obstacles_mask,
        time=generation,
        recorder=recorder,
    )
    if spool is not None:
        spool.open_frame(
            worker=config.worker,
            incarnation=config.incarnation,
            pid=os.getpid(),
            backend=config.backend,
            shard={
                "index": shard.index,
                "row_start": shard.row_start,
                "row_stop": shard.row_stop,
                "halo_top": shard.halo_top,
                "halo_bottom": shard.halo_bottom,
            },
            target_generation=config.target_generation,
            restored_generation=runner.time if config.incarnation > 0 else None,
        )
    # The clock reading rides in ``ready`` for the alignment handshake;
    # MONOTONIC is also the spooling recorder's clock, so the offset the
    # supervisor computes applies to every span/event we record.
    conn.send(("ready", config.incarnation, runner.time, MONOTONIC()))
    finished = _advance_to_target(config, conn, runner, store, recorder, spool)
    _spool_snapshot(
        spool,
        recorder,
        status="done" if finished else "stopped",
        generation=runner.time,
    )
    if not finished:
        return
    conn.send(("done", runner.time))
    msg = conn.recv()
    if msg[0] == "collect":
        conn.send(("state", runner.time, runner.interior))
        conn.recv()  # the final ("stop",)


def worker_main(config: WorkerConfig, conn: Connection) -> None:
    """Process entry point: run the shard loop, report errors, exit.

    Any exception is reported as an ``("error", ...)`` message before a
    hard exit, so the supervisor's restart report names the error rather
    than a bare exit code.  With a spool configured, a last-gasp
    snapshot is attempted first so the failing incarnation's telemetry
    survives it.
    """
    recorder: Recorder = NULL_RECORDER
    spool: SpoolWriter | None = None
    try:
        if config.spool_path is not None:
            recorder = InMemoryRecorder(clock=MONOTONIC)
            spool = SpoolWriter(config.spool_path)
        _worker_loop(config, conn, recorder, spool)
    except Exception as exc:  # deliberate last-resort: report, then die
        _spool_snapshot(spool, recorder, status="error", generation=-1)
        try:
            conn.send(("error", -1, f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        os._exit(EXIT_ERROR)
    finally:
        if spool is not None:
            spool.close()
        conn.close()
