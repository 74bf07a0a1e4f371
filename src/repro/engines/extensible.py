"""WSA-E engine simulator: the off-chip-delay variant of section 6.3.

Functionally a one-lane serial pipeline; architecturally different in
where the delay line lives.  The stage keeps only the 7-cell hexagonal
window on the processor chip; the two long runs between window rows
(≈ 2L + 3 cells total minus the on-chip taps) live in external shift
registers reached through dedicated pins — which is why the pin budget
allows exactly one lane (6D = 48 of 72 pins) and why the lattice size is
no longer bounded by the chip area.

The simulator inherits the serial dataflow — including kernel backends,
fault-injection hooks, and tick-accurate simulation — from
:class:`~repro.engines.streaming_core.StreamingEngineCore` and accounts
the WSA-E-specific quantities: on-chip vs off-chip storage, pin usage
split between the host stream and the delay break-outs, and the
per-stage area at a given commercial-memory density.
"""

from __future__ import annotations

from repro.engines.pe import PostCollideHook
from repro.engines.streaming_core import StreamingEngineCore
from repro.lgca.automaton import SiteModel
from repro.telemetry import Recorder
from repro.util.validation import check_positive

__all__ = ["ExtensibleSerialEngine"]

#: hexagonal window cells kept on-chip per stage
_ON_CHIP_WINDOW = 10


class ExtensibleSerialEngine(StreamingEngineCore):
    """A k-stage WSA-E pipeline (one lane per stage, off-chip delay).

    Parameters
    ----------
    model:
        Reference model (null boundary, deterministic chirality).
    pipeline_depth:
        k — stages (processor chips) in series.
    commercial_density:
        κ — off-chip memory density advantage (for area reports).
    clock_hz:
        Major cycle rate.
    post_collide:
        Optional fault-injection hook applied at every PE output.
    backend:
        Kernel backend evolving the frames (``"reference"`` streams
        through the PE stage; ``"bitplane"`` computes the identical
        evolution with multi-spin coded kernels).  Stats are unchanged;
        fault hooks and tickwise simulation require ``"reference"``.
    """

    def __init__(
        self,
        model: SiteModel,
        pipeline_depth: int = 1,
        commercial_density: float = 8.0,
        clock_hz: float = 10e6,
        post_collide: PostCollideHook | None = None,
        backend: str = "reference",
        recorder: "Recorder | None" = None,
    ):
        self.commercial_density = check_positive(
            commercial_density, "commercial_density"
        )
        super().__init__(
            model,
            pipeline_depth=pipeline_depth,
            clock_hz=clock_hz,
            post_collide=post_collide,
            backend=backend,
            recorder=recorder,
        )

    @property
    def name(self) -> str:
        """Engine identifier used in stats and tables."""
        return f"wsa-e(k={self.pipeline_depth})"

    # -- WSA-E architecture accounting ---------------------------------------------

    @property
    def delay_sites_per_stage(self) -> int:
        """Total delay per stage (the section 6.3 '2L + 10')."""
        return 2 * self.model.cols + _ON_CHIP_WINDOW

    @property
    def on_chip_sites_per_stage(self) -> int:
        """Window cells kept on the processor chip (the '10')."""
        return _ON_CHIP_WINDOW

    @property
    def off_chip_sites_per_stage(self) -> int:
        """Delay cells pushed out to commercial memory (2L)."""
        return self.delay_sites_per_stage - _ON_CHIP_WINDOW

    @property
    def storage_sites(self) -> int:
        """Delay cells across all stages, on-chip window plus off-chip runs."""
        return self.pipeline_depth * self.delay_sites_per_stage

    def pins_used(self, bits_per_site: int | None = None) -> int:
        """2D stream + 2 off-chip break-outs at 2D each = 6D."""
        d = bits_per_site if bits_per_site is not None else self.model.bits_per_site
        return 6 * d

    def stage_area(self, site_area: float, chip_area: float = 1.0) -> float:
        """Normalized silicon per stage: the processor chip plus the
        off-chip delay at commercial density."""
        off_chip = self.off_chip_sites_per_stage * site_area / self.commercial_density
        return chip_area + off_chip
