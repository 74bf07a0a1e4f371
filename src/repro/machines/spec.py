"""The machine abstraction: design model + simulator + capabilities.

The paper pairs every architecture with two descriptions — a
closed-form design model (area/pin feasibility, predicted cycle counts
and update rate R) and an operational dataflow — and compares the
machines at their optimal operating points.  A :class:`MachineSpec`
binds both halves together with the machine's capability flags, so
design-space sweeps, simulations, fault campaigns, and benchmarks can
all enumerate machines uniformly through the registry
(:mod:`repro.machines.registry`) instead of importing each engine and
model by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.comparison import ArchitectureSummary
from repro.core.design_space import DesignCurve
from repro.core.technology import PAPER_TECHNOLOGY, ChipTechnology
from repro.engines.streaming_core import StreamingEngineCore
from repro.lgca.automaton import SiteModel
from repro.util.errors import ConfigError

__all__ = ["MachineCapabilities", "MachineSpec", "SCHEMA_NAME", "SCHEMA_VERSION"]

#: schema tag stamped into every ``describe()`` payload
SCHEMA_NAME = "repro-machine"
#: bump when the payload layout changes incompatibly
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class MachineCapabilities:
    """What a machine's simulator supports, as data.

    Attributes
    ----------
    backends:
        Kernel backends the engine accepts (``"reference"`` always;
        ``"bitplane"`` for the multi-spin coded kernels).
    fault_hooks:
        Whether ``post_collide`` fault-injection hooks are accepted
        (reference backend only, as everywhere).
    tickwise:
        Whether ``run(..., tickwise=True)`` performs a tick-accurate
        delay-line simulation.
    side_channel:
        Whether the machine moves bits over slice-boundary side
        channels (SPA) in addition to the main-memory streams.
    degradable:
        Whether the machine supports graceful degradation
        (``failed_slices`` remapping).
    """

    backends: tuple[str, ...] = ("reference", "bitplane")
    fault_hooks: bool = True
    tickwise: bool = True
    side_channel: bool = False
    degradable: bool = False

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping of the capability flags."""
        return {
            "backends": list(self.backends),
            "fault_hooks": self.fault_hooks,
            "tickwise": self.tickwise,
            "side_channel": self.side_channel,
            "degradable": self.degradable,
        }


@dataclass(frozen=True)
class MachineSpec:
    """One architecture: its simulator, design model, and capabilities.

    Attributes
    ----------
    name:
        Registry key (``"serial"``, ``"wsa"``, ``"spa"``, ``"wsa-e"``).
    title:
        Human-readable architecture name.
    paper_section:
        Where the paper introduces the machine.
    engine_cls:
        The :class:`~repro.engines.streaming_core.StreamingEngineCore`
        subclass simulating the machine.
    capabilities:
        The simulator's :class:`MachineCapabilities`.
    parameters:
        Constructor keywords :meth:`create` accepts beyond the lattice
        model (the engine's own signature, minus ``model``).
    default_params:
        Defaults merged under the caller's keywords in :meth:`create`
        (used where the engine has no default of its own, e.g. the
        SPA's ``slice_width``).
    design_summary:
        Closed-form design-model summary at a technology and optional
        lattice size — feasibility, pins, area, predicted R — as a
        JSON-ready mapping (from ``core.wsa`` / ``core.spa`` /
        ``core.wsa_e`` / ``core.throughput``).
    predicted_ticks:
        Closed-form major-cycle count for ``generations`` updates on a
        constructed engine's geometry.  The simulator's measured
        ``stats.ticks`` must equal this exactly (property-tested).
    steady_updates_per_tick:
        Architectural peak updates per tick (one per PE); measured
        ``stats.updates_per_tick`` never exceeds it.
    design_curves:
        Constraint curves of the machine's design plane (section 6
        figures), or None when the machine has no free design plane.
    summary:
        Comparison-table row builder for
        :func:`repro.core.comparison.summarize_architectures`, or None
        for machines that don't appear in the section 6.3 tables (the
        plain serial pipeline is the P = 1 WSA).
    """

    name: str
    title: str
    paper_section: str
    engine_cls: type[StreamingEngineCore]
    capabilities: MachineCapabilities
    parameters: tuple[str, ...]
    design_summary: Callable[[ChipTechnology, int | None], Mapping[str, object]]
    predicted_ticks: Callable[[StreamingEngineCore, int], int]
    steady_updates_per_tick: Callable[[StreamingEngineCore], float]
    default_params: Mapping[str, object] = field(default_factory=dict)
    design_curves: Callable[[ChipTechnology], list[DesignCurve]] | None = None
    summary: Callable[[ChipTechnology, int], ArchitectureSummary] | None = None

    def create(self, model: SiteModel, **params: object) -> StreamingEngineCore:
        """Construct the machine's engine for a lattice model.

        Keywords are validated against :attr:`parameters` so every
        machine rejects unknown options with the same
        :class:`~repro.util.errors.ConfigError` instead of a per-class
        ``TypeError``.
        """
        unknown = sorted(set(params) - set(self.parameters))
        if unknown:
            raise ConfigError(
                f"machine {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: {', '.join(self.parameters)}"
            )
        merged: dict[str, object] = {**dict(self.default_params), **params}
        return self.engine_cls(model, **merged)  # type: ignore[arg-type]

    def describe(
        self,
        technology: ChipTechnology = PAPER_TECHNOLOGY,
        lattice_size: int | None = None,
    ) -> dict[str, object]:
        """Schema-versioned JSON-ready description of the machine."""
        return {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "paper_section": self.paper_section,
            "engine": self.engine_cls.__name__,
            "parameters": {
                "accepted": list(self.parameters),
                "defaults": dict(self.default_params),
            },
            "capabilities": self.capabilities.to_dict(),
            "design": dict(self.design_summary(technology, lattice_size)),
        }
