"""Picklable lattice-model descriptions for cross-process construction.

Worker processes cannot be handed a live model object cheaply (and must
not be, under the ``spawn`` start method): a :class:`ModelSpec` is a
small frozen record that each process turns into a real
:class:`~repro.lgca.hpp.HPPModel` / :class:`~repro.lgca.fhp.FHPModel`
locally — at full lattice shape for the golden run, or at a shard's
local-frame shape for a worker.

It is also the CLI's one lattice description: ``simulate``, ``run`` and
``viscosity`` build every model through :meth:`ModelSpec.build` and seed
it with :meth:`ModelSpec.initial_state`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lgca.automaton import SiteModel
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.util.errors import ConfigError
from repro.util.validation import check_positive, check_probability

__all__ = ["MODEL_KINDS", "ModelSpec"]

#: Model kinds the runtime can build, matching the CLI's ``--model`` names.
MODEL_KINDS = ("hpp", "fhp6", "fhp7", "fhp-sat")


@dataclass(frozen=True)
class ModelSpec:
    """A lattice-gas model, by value.

    Parameters
    ----------
    kind:
        One of :data:`MODEL_KINDS`.
    rows, cols:
        Whole-lattice shape.
    boundary:
        ``"periodic"``, ``"null"``, or ``"reflecting"`` (the supervised
        runtime additionally restricts this — see
        :class:`repro.runtime.supervisor.SupervisorConfig`).
    chirality:
        FHP chirality policy; ignored for HPP.
    """

    kind: str
    rows: int
    cols: int
    boundary: str = "periodic"
    chirality: str = "alternate"

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(
                f"kind={self.kind!r} must be one of {', '.join(MODEL_KINDS)}"
            )
        check_positive(self.rows, "rows", integer=True)
        check_positive(self.cols, "cols", integer=True)
        # Shape/boundary/chirality values are validated for real by the
        # model constructor; build the full-lattice model once to fail fast.
        self.build()

    @property
    def num_channels(self) -> int:
        """Channels per site for this model kind."""
        return {"hpp": 4, "fhp6": 6, "fhp7": 7, "fhp-sat": 7}[self.kind]

    def build(self, rows: int | None = None, cols: int | None = None) -> SiteModel:
        """Construct the model, optionally at an overridden (local) shape."""
        rows = self.rows if rows is None else rows
        cols = self.cols if cols is None else cols
        if self.kind == "hpp":
            return HPPModel(rows, cols, boundary=self.boundary)
        return FHPModel(
            rows,
            cols,
            rest_particles=self.kind in ("fhp7", "fhp-sat"),
            saturated=self.kind == "fhp-sat",
            boundary=self.boundary,
            chirality=self.chirality,
        )

    def initial_state(self, density: float, seed: int) -> np.ndarray:
        """The seeded uniform-random initial frame at ``density``."""
        check_probability(density, "density")
        rng = np.random.default_rng(seed)
        return uniform_random_state(
            self.rows, self.cols, self.num_channels, density, rng
        )
