"""Row-slab sharding with halo exchange for multi-process lattice runs.

The supervised runtime divides the lattice into adjacent horizontal
slabs, one per worker, mirroring the slice geometry of
:class:`~repro.engines.partitioned.PartitionedEngine` rotated 90°: rows
instead of columns, because every kernel in :mod:`repro.lgca` stores the
lattice row-major, which makes slab views and halo rows contiguous.

The slab geometry itself — :class:`~repro.lattice.slabs.Shard` and
:func:`~repro.lattice.slabs.plan_shards` — lives in
:mod:`repro.lattice.slabs`; this module re-exports it and adds the
process-level :class:`ShardRunner` on top.  See the slab planner's
docstring for the halo-size invariants (halos at least ``k`` deep, even
local start row, even local frame) and why refreshing the halos once
per block of up to ``k`` generations makes the slab interiors evolve
bit-identically to the whole-lattice run.

A shard steps in *blocks*, as the paper's WSA advances P generations
per pass through its P pipelined PEs and each SPA slice runs P_k
generations between side-channel exchanges.  :func:`block_stop` is the
one definition of a block: from generation ``t`` to the earliest of
``t + k``, the next checkpoint generation and the target.  The worker,
the supervisor's barrier and the tests all call it, so they agree on
every block boundary.  Per block, neighbours exchange ``k + 1``
boundary rows per side and each shard calls :meth:`ShardRunner.advance`
once.

A runner's kernel stepper holds its local frame for the whole run (the
bitplane stepper keeps it packed), as the paper's pipelines keep the
lattice on chip and CAM-8's modules exchange only boundary sites.
Halos and checkpoints share one format, packed ``(C, n, W)`` bit-plane
rows (:meth:`~repro.lgca.backends.KernelStepper.read_planes` /
:meth:`~repro.lgca.backends.KernelStepper.write_planes`): on the
bitplane stepper each is a plane-row copy, and the reference stepper
packs and unpacks, so either backend restores the other's checkpoints
(:func:`load_slab`).  The whole slab is unpacked only at a restore and
at the final collect.

Bit-identity at *this* layer holds for deterministic chirality policies
only (``alternate``/``left``/``right``); per-site ``random`` chirality
draws a whole-lattice field from one RNG stream, which independent
worker processes cannot reproduce, and is rejected by the supervisor's
config validation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.lattice.slabs import Shard, plan_shards
from repro.lgca.automaton import ObstacleMap
from repro.lgca.backends import make_stepper
from repro.lgca.bitplane import num_words, unpack_state
from repro.resilience.checkpoint import CheckpointStore
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError

__all__ = [
    "Shard",
    "ShardRunner",
    "block_stop",
    "load_slab",
    "local_obstacles",
    "plan_shards",
]


def block_stop(start: int, depth: int, target: int, checkpoint_interval: int) -> int:
    """End (exclusive) of the block of generations that starts at ``start``.

    A block runs at most ``depth`` generations, never past the next
    checkpoint generation (a multiple of ``checkpoint_interval``), and
    never past ``target``.  Every checkpoint generation is therefore a
    block start, which is what lets a restarted worker replay whole
    blocks from its checkpoint.
    """
    next_checkpoint = (start // checkpoint_interval + 1) * checkpoint_interval
    return min(start + depth, next_checkpoint, target)


def local_obstacles(mask: np.ndarray, shard: Shard, periodic: bool) -> np.ndarray:
    """The local frame's rows of a whole-lattice obstacle ``mask``.

    Halo rows wrap on a periodic lattice.  Past a null edge they carry
    no obstacles: a particle that leaves the lattice must not bounce
    back off a wrapped one during a block.
    """
    rows = mask.shape[0]
    local = mask[shard.local_row_indices(rows)]  # a fresh, contiguous array
    if not periodic:
        above = max(0, shard.halo_top - shard.row_start)  # frame rows above row 0
        below = max(0, shard.row_stop + shard.halo_bottom - rows)  # and past the last
        local[:above] = False
        local[shard.local_rows - below :] = False
    return local


def load_slab(directory: str | Path, cols: int) -> tuple[int, np.ndarray]:
    """``(generation, slab)`` of the newest intact shard checkpoint.

    Shard checkpoints hold packed bit-planes (see
    :meth:`ShardRunner.packed_interior`); the slab comes back unpacked
    as ``uint8`` site rows, whichever backend wrote it.

    Raises
    ------
    CheckpointError
        When ``directory`` holds no restorable checkpoint.
    """
    cp = CheckpointStore.load_latest(directory)
    return cp.generation, unpack_state(cp.state, cols)


class ShardRunner:
    """Steps one shard's local frame; the worker process's compute core.

    Pure in-process logic (no pipes, no processes) so the sharded
    evolution is testable — and benchmarkable — without a supervisor.
    The kernel stepper holds the local frame for the whole run: the
    slab is written into it once, at construction, and each block
    writes only the halo rows and reads only the boundary rows.

    Parameters
    ----------
    model:
        A *local* site model of shape ``(shard.local_rows, cols)`` —
        build it via :meth:`repro.runtime.modelspec.ModelSpec.build`.
    shard:
        The geometry of this slab.
    initial_slab:
        The owned rows' initial state, shape ``(shard.slab_rows, cols)``.
    backend:
        Kernel backend name (``"reference"`` / ``"bitplane"``).
    obstacles_mask:
        Optional local-frame boolean mask (halos included), sliced from
        the global mask with :func:`local_obstacles`.
    time:
        Generation the initial slab belongs to.
    recorder:
        Optional telemetry recorder; the runner pre-binds
        ``shard.halo_seconds`` / ``shard.step_seconds`` timers (one
        sample per :meth:`set_halos` / :meth:`advance` call, so one per
        block) and a ``shard.generations`` counter, and forwards the
        recorder to the kernel stepper for ``kernel.<backend>.*``
        attribution.
    """

    def __init__(
        self,
        model: object,
        shard: Shard,
        initial_slab: np.ndarray,
        backend: str = "reference",
        obstacles_mask: np.ndarray | None = None,
        time: int = 0,
        recorder: Recorder | None = None,
    ):
        rows: int = model.rows  # type: ignore[attr-defined]
        cols: int = model.cols  # type: ignore[attr-defined]
        if rows != shard.local_rows:
            raise ConfigError(
                f"local model has {rows} rows; shard {shard.index} "
                f"needs {shard.local_rows}"
            )
        if initial_slab.shape != (shard.slab_rows, cols):
            raise ConfigError(
                f"initial slab shape {initial_slab.shape} != "
                f"{(shard.slab_rows, cols)}"
            )
        self.model = model
        self.shard = shard
        self.backend = backend
        self.time = time
        obstacles = None if obstacles_mask is None else ObstacleMap(obstacles_mask)
        rec = recorder if recorder is not None else NULL_RECORDER
        self._stepper = make_stepper(
            model, obstacles=obstacles, backend=backend, recorder=recorder
        )
        self._stepper.write(shard.interior, initial_slab)
        self._zeros = np.zeros(
            (model.num_channels, shard.exchange_rows, num_words(cols)),  # type: ignore[attr-defined]
            dtype=np.uint64,
        )
        # Pre-bound handles (see OBSERVABILITY.md): free under the null
        # recorder, allocation-free per block under a real one.
        self._clock = rec.clock
        self._halo_timer = rec.timer("shard.halo_seconds")
        self._step_timer = rec.timer("shard.step_seconds")
        self._generations = rec.counter("shard.generations")

    @property
    def interior(self) -> np.ndarray:
        """The owned slab's current state (a fresh array)."""
        return self._stepper.read(self.shard.interior)

    def packed_interior(self) -> np.ndarray:
        """The owned slab as ``(C, slab_rows, W)`` bit-planes (a fresh array).

        The shard checkpoint format, the same on every backend; undo it
        with :func:`~repro.lgca.bitplane.unpack_state` (or
        :func:`load_slab`).
        """
        return self._stepper.read_planes(self.shard.interior)

    def boundary_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(top, bottom)`` — the slab's outermost rows for neighbours.

        Always ``shard.exchange_rows`` (``k + 1``) rows each, as fresh
        ``(C, k + 1, W)`` bit-planes; receivers slice off the halo depth
        they need.
        """
        interior = self.shard.interior
        n = self.shard.exchange_rows
        return (
            self._stepper.read_planes(slice(interior.start, interior.start + n)),
            self._stepper.read_planes(slice(interior.stop - n, interior.stop)),
        )

    def set_halos(
        self,
        above_bottom: np.ndarray | None,
        below_top: np.ndarray | None,
    ) -> None:
        """Refresh the halo rows from the neighbours' boundary rows.

        ``above_bottom`` is the *bottom* boundary block of the shard
        above (its last ``k + 1`` rows, as :meth:`boundary_rows` gives
        them); ``below_top`` the *top* block of the shard below.
        ``None`` zero-fills the halo — the null-boundary lattice edge,
        where nothing flows in.
        """
        start = self._clock()
        shard = self.shard
        above = self._zeros if above_bottom is None else above_bottom
        below = self._zeros if below_top is None else below_top
        self._stepper.write_planes(
            slice(0, shard.halo_top), above[:, shard.exchange_rows - shard.halo_top :]
        )
        self._stepper.write_planes(
            slice(shard.interior.stop, None), below[:, : shard.halo_bottom]
        )
        self._halo_timer.record(self._clock() - start)

    def advance(self, generations: int) -> None:
        """Advance the local frame one block of ``generations``.

        The halos must be fresh and ``generations`` at most
        ``shard.depth``; :func:`block_stop` picks the block.
        """
        if not 0 < generations <= self.shard.depth:
            raise ValueError(
                f"a block of {generations} generations needs halos that deep; "
                f"shard {self.shard.index}'s are {self.shard.depth}"
            )
        start = self._clock()
        self._stepper.advance(generations, self.time)
        self.time += generations
        self._step_timer.record(self._clock() - start)
        self._generations.add(generations)

    def step(self) -> None:
        """Advance the local frame one generation (halos must be fresh)."""
        self.advance(1)
