"""The Sternberg partitioned architecture engine (section 5).

The lattice is divided into adjacent, non-overlapping columnar slices of
width W; a serial pipeline is assigned to each slice, and all slices
advance in lock-step.  Sites whose neighborhoods straddle a slice
boundary are completed through a "bidirectional synchronous
communication channel between adjacent partitions" carrying E bits per
site update in each direction.

The engine computes the same evolution as the reference automaton
(checked in E11); the SPA-specific accounting it adds on top of
:class:`~repro.engines.streaming_core.StreamingEngineCore` is:

* per-PE delay storage ``2W + 9`` instead of ``2L + 3``;
* total ticks per pass ``rows · W`` instead of ``rows · L`` (the ×(L/W)
  throughput multiplier);
* main-memory streams per slice (``2D`` bits/tick each — the expensive
  data paths);
* the measured side-channel traffic per boundary, which the tests
  compare against the analytic ``2 E · rows`` bits per stage pass.

A note on timing (why the paper calls SPA "more difficult to clock"):
with all slices streaming in lock-step, a column-0 site's below-left
neighbor lives at the *end* of the left slice's next row — local stream
position ``2W − 1`` ahead — which a ``2W + 9`` delay line cannot wait
for symmetrically on both sides.  The hardware resolves it by running
the slice streams mutually skewed ("the row-staggered pattern that the
SPA scheme requires for its operation"): each slice leads its right
neighbor by enough ticks that boundary values always arrive before they
are needed on one side and are buffered in the window's spare cells on
the other.  This simulator models the *dataflow and traffic* of that
arrangement (frame-synchronous computation plus exact exchange-bit
accounting) rather than the per-tick skew itself; the skew changes
latency constants, not throughput, storage, or I/O — the quantities the
paper's analysis (and our tests) measure.  For the same reason the
engine has no tick-accurate mode (``supports_tickwise`` is False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.engines.pe import PostCollideHook
from repro.engines.streaming_core import StreamingEngineCore
from repro.lgca.automaton import SiteModel
from repro.telemetry import Recorder
from repro.util.errors import ConfigError
from repro.util.validation import check_positive

__all__ = ["PartitionedEngine", "SliceExchangeRecord"]


@dataclass(frozen=True)
class SliceExchangeRecord:
    """Side-channel traffic measured for one stage pass.

    Attributes
    ----------
    boundary:
        Index b of the boundary between slice b and slice b+1.
    bits_leftward:
        Bits slice b+1 sent to slice b (completing b's right-edge
        neighborhoods).
    bits_rightward:
        Bits slice b sent to slice b+1.
    """

    boundary: int
    bits_leftward: int
    bits_rightward: int

    @property
    def total_bits(self) -> int:
        """Traffic across this boundary in both directions."""
        return self.bits_leftward + self.bits_rightward


class PartitionedEngine(StreamingEngineCore):
    """A slice-partitioned pipeline machine.

    Parameters
    ----------
    model:
        Reference model (null boundary, deterministic chirality).
    slice_width:
        W — lattice columns per slice (the last slice takes the
        remainder if W does not divide the width).
    pipeline_depth:
        k — stages per slice; each pass advances k generations.
    clock_hz:
        Major cycle rate.
    post_collide:
        Optional fault-injection hook applied at every PE output.
    failed_slices:
        Slice indices whose PEs are marked dead.  Their work is remapped
        round-robin onto the surviving slices (graceful degradation):
        the evolution is unchanged, but each pass takes
        ``⌈slices / healthy⌉`` times as long and the dead PEs drop out
        of the storage/PE accounting.
    backend:
        Kernel backend evolving the frames (``"reference"`` streams
        through the PE stage; ``"bitplane"`` computes the identical
        evolution with multi-spin coded kernels).  Stats and exchange
        accounting are unchanged — they are data-independent properties
        of the machine; fault hooks require ``"reference"``.
    """

    #: the mutually skewed slice streams have no single-stream tick model
    supports_tickwise: ClassVar[bool] = False

    def __init__(
        self,
        model: SiteModel,
        slice_width: int,
        pipeline_depth: int = 1,
        clock_hz: float = 10e6,
        post_collide: PostCollideHook | None = None,
        failed_slices: tuple[int, ...] = (),
        backend: str = "reference",
        recorder: "Recorder | None" = None,
    ):
        self.slice_width = check_positive(slice_width, "slice_width", integer=True)
        if self.slice_width > model.cols:
            raise ConfigError(
                f"slice_width={slice_width} exceeds lattice width {model.cols}"
            )
        super().__init__(
            model,
            pipeline_depth=pipeline_depth,
            clock_hz=clock_hz,
            post_collide=post_collide,
            backend=backend,
            recorder=recorder,
        )
        self._build_exchange_maps()
        self.failed_slices = tuple(sorted(set(failed_slices)))
        for s in self.failed_slices:
            if not 0 <= s < self.num_slices:
                raise ValueError(
                    f"failed slice {s} out of range for {self.num_slices} slices"
                )
        if len(self.failed_slices) >= self.num_slices:
            raise ValueError("all slices failed; no PEs left to remap work onto")

    # -- geometry -------------------------------------------------------------

    @property
    def name(self) -> str:
        """Engine identifier used in stats and tables."""
        base = f"partitioned(W={self.slice_width},k={self.pipeline_depth}"
        if self.failed_slices:
            base += f",degraded-{len(self.failed_slices)}"
        return base + ")"

    @property
    def num_healthy_slices(self) -> int:
        """Slices with a working PE column (all, minus the failed set)."""
        return self.num_slices - len(self.failed_slices)

    @property
    def num_slices(self) -> int:
        """Number of slices: ⌈cols / W⌉ (the last may be narrower)."""
        return math.ceil(self.model.cols / self.slice_width)

    def slice_of_column(self, col: int) -> int:
        """Index of the slice that owns lattice column ``col``."""
        return col // self.slice_width

    @property
    def storage_sites_per_pe(self) -> int:
        """The paper's 2W + 9 delay budget per processing element."""
        return 2 * self.slice_width + 9

    @property
    def storage_sites(self) -> int:
        """Delay cells across all healthy slices and stages."""
        return (
            self.num_healthy_slices * self.pipeline_depth * self.storage_sites_per_pe
        )

    @property
    def num_pes(self) -> int:
        """One PE column per healthy slice per stage."""
        return self.num_healthy_slices * self.pipeline_depth

    @property
    def num_chips(self) -> int:
        """One chip per healthy slice per stage."""
        return self.num_healthy_slices * self.pipeline_depth

    # -- exchange accounting ----------------------------------------------------

    def _build_exchange_maps(self) -> None:
        """Classify every (site, channel) gather by boundary crossing."""
        stencil = self.stage.rule.stencil
        src, valid = stencil.gather_maps()
        cols = self.model.cols
        dst_col = np.arange(self.num_sites) % cols
        dst_slice = dst_col // self.slice_width
        n_boundaries = self.num_slices - 1
        leftward = np.zeros(max(n_boundaries, 1), dtype=np.int64)
        rightward = np.zeros(max(n_boundaries, 1), dtype=np.int64)
        per_site_crossings = np.zeros(self.num_sites, dtype=np.int64)
        for ch in range(stencil.num_moving_channels):
            src_col = src[ch] % cols
            src_slice = src_col // self.slice_width
            crossing = valid[ch] & (src_slice != dst_slice)
            # A gather whose source lies right of the destination slice is
            # traffic *leftward* across the boundary dst_slice.
            right_src = crossing & (src_slice == dst_slice + 1)
            left_src = crossing & (src_slice == dst_slice - 1)
            if np.any(crossing & ~right_src & ~left_src):
                raise AssertionError(
                    "stencil crosses more than one slice boundary; "
                    f"slice_width={self.slice_width} too narrow for the stencil"
                )
            per_site_crossings += crossing
            for b in range(n_boundaries):
                leftward[b] += int(np.count_nonzero(right_src & (dst_slice == b)))
                rightward[b] += int(
                    np.count_nonzero(left_src & (dst_slice == b + 1))
                )
        self._bits_leftward = leftward
        self._bits_rightward = rightward
        self._max_site_crossings = int(per_site_crossings.max(initial=0))

    def exchange_per_stage_pass(self) -> list[SliceExchangeRecord]:
        """Side-channel bits per boundary for one stage over one frame."""
        return [
            SliceExchangeRecord(
                boundary=b,
                bits_leftward=int(self._bits_leftward[b]),
                bits_rightward=int(self._bits_rightward[b]),
            )
            for b in range(self.num_slices - 1)
        ]

    def side_bits_per_stage_pass(self) -> int:
        """Total boundary-exchange bits one stage moves per frame pass."""
        return sum(rec.total_bits for rec in self.exchange_per_stage_pass())

    def boundary_bits_per_site_update(self) -> int:
        """Measured E: worst-case side-channel bits one site update needs.

        The synchronous channel (and its pins) must be sized for the
        worst site, not the average: a hexagonal-stencil edge site on
        the heavy parity gathers 3 channel bits from across the
        boundary — the E = 3 the paper plugs into the SPA pin
        constraint.  (The *average* is lower, ~2 for the hex stencil,
        because the light parity needs only 1.)
        """
        if self.num_slices < 2:
            return 0
        return self._max_site_crossings

    def mean_boundary_bits_per_edge_site(self) -> float:
        """Average one-way side-channel bits per boundary row (≈2 for hex)."""
        if self.num_slices < 2:
            return 0.0
        return float(self._bits_leftward[0]) / self.model.rows

    # -- timing ---------------------------------------------------------------------

    def ticks_per_pass(self, span: int) -> int:
        """All slices stream in parallel: rows·W sites deep, plus drain.

        With failed PEs the surviving slices take the dead slices' work
        round-robin, so a pass needs ``⌈slices / healthy⌉`` sequential
        rounds.
        """
        widest = min(self.slice_width, self.model.cols)
        stream_ticks = self.model.rows * widest
        latency = widest + 1
        rounds = math.ceil(self.num_slices / self.num_healthy_slices)
        return rounds * stream_ticks + span * latency
