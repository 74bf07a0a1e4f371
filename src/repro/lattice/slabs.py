"""Row-slab decomposition with halo geometry: the slab planner.

The supervised multi-process runtime (:mod:`repro.runtime.sharding`),
the repo's one multi-core path, divides the lattice into adjacent
horizontal slabs, one per worker, because every kernel in
:mod:`repro.lgca` stores the lattice row-major, which makes slab views
and halo rows contiguous.  This module is the single source of that
geometry; it deliberately knows nothing about processes or kernels.

Each worker steps a *local frame* of ``halo_top + slab + halo_bottom``
rows, and refreshes its halos from its neighbours once per *block* of
up to ``depth`` generations (``k`` below).  The halo sizes are not
free:

* both halos are at least ``k`` rows deep.  Propagation moves a
  particle at most one row per generation, so an edge of the local
  frame (which wraps, absorbs or reflects as the local model does,
  where the whole lattice would not) corrupts one more row inward per
  generation.  After ``n <= k`` generations the damage has reached
  only the outermost ``n`` rows of each halo, never the slab, so the
  slab *interior* evolves bit-identically to the whole-lattice run.
  The next block overwrites the halos before anything reads them;
* the local frame must start on an **even global row** so that
  shard-local row parity equals global row parity — both the hexagonal
  propagation offsets and the ``alternate`` chirality checkerboard
  ``(r + c + t) % 2`` key on it — hence ``halo_top`` is ``k`` or
  ``k + 1``, whichever puts the frame's first row on an even row;
* the local frame must have an **even number of rows** so a periodic
  FHP sub-model can be constructed (the half-cell row offset must tile)
  — hence ``halo_bottom`` is ``k`` or ``k + 1``, whichever makes the
  total even.

Neighbours therefore exchange a fixed ``k + 1`` boundary rows per side
per block, and each receiver slices off the ``k`` or ``k + 1`` it
needs; every slab is at least ``k + 1`` rows tall so it can supply
them.  ``k`` is :data:`HALO_GENERATIONS`, capped at the smallest slab
minus one.

Every shard gets both halos.  The first and last shards' outer halos
wrap around to the opposite end of a periodic lattice and are
zero-filled on a null one (nothing flows in).  Beyond a null edge the
halo rows must also carry no obstacles: a particle that leaves the
lattice moves away from it, and with no obstacle to bounce off and no
collision rule that turns it back, it never re-enters the slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError
from repro.util.validation import check_positive

__all__ = ["HALO_GENERATIONS", "MIN_SLAB_ROWS", "Shard", "plan_shards"]

#: Generations a shard steps between halo exchanges (``k``), before the
#: cap at the smallest slab minus one.  Halos are ``k`` or ``k + 1`` rows
#: deep, so each block recomputes about ``2k`` extra rows per slab: 1.6%
#: at ``k = 8`` on a 1024-row slab, against one coordinator round trip
#: per block instead of per generation (see docs/PERFORMANCE.md for the
#: sweep that chose 8).
HALO_GENERATIONS = 8

#: The shortest slab: ``k >= 1`` boundary rows plus one.
MIN_SLAB_ROWS = 2


@dataclass(frozen=True)
class Shard:
    """One worker's slab of the lattice, plus its halo geometry.

    Attributes
    ----------
    index:
        Worker index (0 = top slab).
    row_start, row_stop:
        The owned global row range ``[row_start, row_stop)``.
    halo_top, halo_bottom:
        Ghost rows above/below the slab in the worker's local frame.
    depth:
        Generations a block may run between halo exchanges (``k``);
        both halos are at least this deep.
    """

    index: int
    row_start: int
    row_stop: int
    halo_top: int
    halo_bottom: int
    depth: int

    @property
    def slab_rows(self) -> int:
        """Rows this shard owns."""
        return self.row_stop - self.row_start

    @property
    def local_rows(self) -> int:
        """Rows in the worker's local frame (slab + halos)."""
        return self.halo_top + self.slab_rows + self.halo_bottom

    @property
    def interior(self) -> slice:
        """The owned slab within the local frame."""
        return slice(self.halo_top, self.halo_top + self.slab_rows)

    @property
    def exchange_rows(self) -> int:
        """Rows a shard sends each neighbour per exchange (``depth + 1``)."""
        return self.depth + 1

    def local_row_indices(self, rows: int) -> np.ndarray:
        """Global row index (mod ``rows``) of every local-frame row.

        Used to slice global per-row data — obstacle masks above all —
        into the local frame, halos included.  Rows past a null edge
        wrap too; :func:`repro.runtime.sharding.local_obstacles` clears
        them.
        """
        return np.arange(self.row_start - self.halo_top, self.row_stop + self.halo_bottom) % rows


def plan_shards(rows: int, num_workers: int) -> tuple[Shard, ...]:
    """Split ``rows`` lattice rows into ``num_workers`` slabs.

    Rows are distributed as evenly as possible (earlier shards take the
    remainder).  Every shard gets the same block depth
    ``k = min(HALO_GENERATIONS, smallest slab - 1)``, so every slab is
    at least ``k + 1`` rows tall and can always supply a full boundary
    exchange.

    Parameters
    ----------
    rows, num_workers:
        Lattice height and slab count.

    Raises
    ------
    ConfigError
        When the lattice is too short for that many workers.
    """
    check_positive(rows, "rows", integer=True)
    check_positive(num_workers, "num_workers", integer=True)
    base, extra = divmod(rows, num_workers)
    if base < MIN_SLAB_ROWS:
        raise ConfigError(
            f"num_workers={num_workers} needs at least "
            f"{MIN_SLAB_ROWS * num_workers} rows (got {rows}): every slab "
            f"must be >= {MIN_SLAB_ROWS} rows tall for halo exchange"
        )
    depth = min(HALO_GENERATIONS, base - 1)
    shards: list[Shard] = []
    row_start = 0
    for index in range(num_workers):
        slab = base + (1 if index < extra else 0)
        halo_top = depth + (row_start - depth) % 2
        halo_bottom = depth + (halo_top + slab + depth) % 2
        shards.append(
            Shard(
                index=index,
                row_start=row_start,
                row_stop=row_start + slab,
                halo_top=halo_top,
                halo_bottom=halo_bottom,
                depth=depth,
            )
        )
        row_start += slab
    return tuple(shards)
