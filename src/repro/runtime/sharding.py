"""Row-slab sharding with halo exchange for multi-process lattice runs.

The supervised runtime divides the lattice into adjacent horizontal
slabs, one per worker, mirroring the slice geometry of
:class:`~repro.engines.partitioned.PartitionedEngine` rotated 90°: rows
instead of columns, because every kernel in :mod:`repro.lgca` stores the
lattice row-major, which makes slab views and halo rows contiguous.

The slab geometry itself — :class:`~repro.lattice.slabs.Shard` and
:func:`~repro.lattice.slabs.plan_shards` — lives in
:mod:`repro.lattice.slabs`; this module re-exports it and adds the process-level :class:`ShardRunner` on top.  See the slab
planner's docstring for the halo-size invariants (even local start row,
even local frame) and why refreshing two boundary rows per side per
generation makes the slab interiors evolve bit-identically to the
whole-lattice run.

Bit-identity at *this* layer holds for deterministic chirality policies
only (``alternate``/``left``/``right``); per-site ``random`` chirality
draws a whole-lattice field from one RNG stream, which independent
worker processes cannot reproduce, and is rejected by the supervisor's
config validation.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.slabs import BOUNDARY_ROWS, Shard, plan_shards
from repro.lgca.backends import make_stepper
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError

__all__ = ["BOUNDARY_ROWS", "Shard", "ShardRunner", "plan_shards"]


class ShardRunner:
    """Steps one shard's local frame; the worker process's compute core.

    Pure in-process logic (no pipes, no processes) so the sharded
    evolution is testable — and benchmarkable — without a supervisor.

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
        Optional local-frame boolean mask (halos included), pre-sliced
        from the global mask with :meth:`Shard.local_row_indices`.
    time:
        Generation the initial slab belongs to.
    recorder:
        Optional telemetry recorder; the runner pre-binds
        ``shard.halo_seconds`` / ``shard.step_seconds`` timers and a
        ``shard.generations`` counter, and forwards the recorder to the
        kernel stepper for ``kernel.<backend>.*`` attribution.
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
        from repro.lgca.automaton import ObstacleMap

        obstacles = None if obstacles_mask is None else ObstacleMap(obstacles_mask)
        rec = recorder if recorder is not None else NULL_RECORDER
        self._stepper = make_stepper(
            model, obstacles=obstacles, backend=backend, recorder=recorder
        )
        self._local = np.zeros((shard.local_rows, cols), dtype=np.uint8)
        self._local[shard.interior] = initial_slab
        # Pre-bound handles (see OBSERVABILITY.md): free under the null
        # recorder, allocation-free per generation under a real one.
        self._clock = rec.clock
        self._halo_timer = rec.timer("shard.halo_seconds")
        self._step_timer = rec.timer("shard.step_seconds")
        self._generations = rec.counter("shard.generations")

    @property
    def interior(self) -> np.ndarray:
        """The owned slab's current state (a view; copy to retain)."""
        return self._local[self.shard.interior]

    def boundary_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(top, bottom)`` — the slab's outermost rows for neighbours.

        Always :data:`BOUNDARY_ROWS` rows each; receivers slice off the
        halo depth they need.
        """
        interior = self.interior
        return (
            interior[:BOUNDARY_ROWS].copy(),
            interior[-BOUNDARY_ROWS:].copy(),
        )

    def set_halos(
        self,
        above_bottom: np.ndarray | None,
        below_top: np.ndarray | None,
    ) -> None:
        """Refresh the halo rows from the neighbours' boundary rows.

        ``above_bottom`` is the *bottom* boundary pair of the shard
        above (its last two rows); ``below_top`` the *top* pair of the
        shard below.  ``None`` zero-fills the halo — the null-boundary
        lattice edge, where nothing flows in.
        """
        start = self._clock()
        shard = self.shard
        if above_bottom is None:
            self._local[: shard.halo_top] = 0
        else:
            self._local[: shard.halo_top] = above_bottom[
                BOUNDARY_ROWS - shard.halo_top :
            ]
        bottom = slice(shard.halo_top + shard.slab_rows, None)
        if below_top is None:
            self._local[bottom] = 0
        else:
            self._local[bottom] = below_top[: shard.halo_bottom]
        self._halo_timer.record(self._clock() - start)

    def step(self) -> None:
        """Advance the local frame one generation (halos must be fresh)."""
        start = self._clock()
        self._local = self._stepper.step(self._local, self.time).copy()
        self.time += 1
        self._step_timer.record(self._clock() - start)
        self._generations.add(1)
