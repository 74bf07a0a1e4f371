"""Row-slab decomposition with halo geometry: the slab planner.

The supervised multi-process runtime (:mod:`repro.runtime.sharding`),
the repo's one multi-core path, divides the lattice into adjacent
horizontal slabs, one per worker, because every kernel in
:mod:`repro.lgca` stores the lattice row-major, which makes slab views
and halo rows contiguous.  This module is the single source of that
geometry; it deliberately knows nothing about processes or kernels.

Each worker steps a *local frame* of ``halo_top + slab + halo_bottom``
rows.  The halo sizes are not free:

* the local frame must start on an **even global row** so that
  shard-local row parity equals global row parity — both the hexagonal
  propagation offsets and the ``alternate`` chirality checkerboard
  ``(r + c + t) % 2`` key on it — hence ``halo_top`` is 2 when the slab
  starts on an even row and 1 when it starts on an odd row;
* the local frame must have an **even number of rows** so a periodic
  FHP sub-model can be constructed (the half-cell row offset must tile)
  — hence ``halo_bottom`` is 1 or 2, whichever makes the total even.

Because propagation moves particles at most one row per generation,
refreshing the halo rows with the neighbours' boundary rows before each
step makes the slab *interior* evolve bit-identically to the
whole-lattice run: sub-lattice boundary artifacts (row wrap for
periodic, row absorption for null, same-site reflection for
reflecting) land only in the halo rows, which are overwritten before
they are ever read again.  Neighbours therefore exchange a fixed
**two** boundary rows per side per generation and each receiver slices
off the 1 or 2 it needs.

Every shard gets both halos.  The first and last shards' outer halos
wrap around to the opposite end of a periodic lattice and are
zero-filled on a null one (nothing flows in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError
from repro.util.validation import check_positive

__all__ = ["BOUNDARY_ROWS", "Shard", "plan_shards"]

#: Boundary rows exchanged per side per generation (max halo depth).
BOUNDARY_ROWS = 2


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
    """

    index: int
    row_start: int
    row_stop: int
    halo_top: int
    halo_bottom: int

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

    def local_row_indices(self, rows: int) -> np.ndarray:
        """Global row index (mod ``rows``) of every local-frame row.

        Used to slice global per-row data — obstacle masks above all —
        into the local frame, halos included.
        """
        return np.arange(self.row_start - self.halo_top, self.row_stop + self.halo_bottom) % rows


def plan_shards(rows: int, num_workers: int) -> tuple[Shard, ...]:
    """Split ``rows`` lattice rows into ``num_workers`` slabs.

    Rows are distributed as evenly as possible (earlier shards take the
    remainder).  Every slab must be at least :data:`BOUNDARY_ROWS` rows
    tall so a neighbour can always supply a full boundary exchange.

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
    if base < BOUNDARY_ROWS:
        raise ConfigError(
            f"num_workers={num_workers} needs at least "
            f"{BOUNDARY_ROWS * num_workers} rows (got {rows}): every slab "
            f"must be >= {BOUNDARY_ROWS} rows tall for halo exchange"
        )
    shards: list[Shard] = []
    row_start = 0
    for index in range(num_workers):
        slab = base + (1 if index < extra else 0)
        halo_top = 2 if row_start % 2 == 0 else 1
        halo_bottom = 2 - ((halo_top + slab) % 2)
        shards.append(
            Shard(
                index=index,
                row_start=row_start,
                row_stop=row_start + slab,
                halo_top=halo_top,
                halo_bottom=halo_bottom,
            )
        )
        row_start += slab
    return tuple(shards)
