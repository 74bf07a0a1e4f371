"""Kernel backends: steppers that hold the lattice they advance.

Two backends ship with the repo:

``"reference"``
    The verified per-site kernels (:mod:`repro.lgca.hpp`,
    :mod:`repro.lgca.fhp`): one ``uint8`` per site, table-lookup
    collision.  This is the golden semantics everything else is tested
    against.
``"bitplane"``
    The multi-spin coded kernels (:mod:`repro.lgca.bitplane`): one site
    per *bit* of a ``uint64`` word, collision as boolean plane algebra
    compiled from the same verified tables.  Bit-identical to the
    reference (enforced by the property tests) and much faster.

Every caller — :class:`repro.lgca.automaton.LatticeGasAutomaton`, the
engine simulators in :mod:`repro.engines`, the process shards in
:mod:`repro.runtime` and the CLI — drives a :class:`KernelStepper`
through one contract: :meth:`~KernelStepper.write` site rows in,
:meth:`~KernelStepper.advance` in place, :meth:`~KernelStepper.read`
rows out.  The stepper keeps its lattice in its own storage format
between calls (the bitplane stepper keeps it packed), so a shard
converts only the rows it exchanges.  ``read`` returns a fresh array,
and ``advance`` allocates nothing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

import numpy as np

from repro.lgca.bitplane import BitplaneKernel
from repro.lgca.bits import bounce_back_table
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "KernelStepper",
    "ReferenceStepper",
    "BitplaneStepper",
    "make_stepper",
    "stepper_class",
]

#: The backend used when none is requested.
DEFAULT_BACKEND = "reference"

#: Row selector for the whole lattice.
_ALL_ROWS = slice(None)


class KernelStepper(ABC):
    """A stepping kernel that holds the lattice it advances.

    Subclasses supply their storage conversion (:meth:`_write`,
    :meth:`read`) and one generation (:meth:`_tick`); the generation
    loop and its telemetry live here.  ``recorder`` (optional) receives
    per-generation kernel timings on the ``kernel.<name>.tick_seconds``
    timer and a ``kernel.<name>.generations`` count; handles and the
    clock are pre-bound so :meth:`advance` stays allocation-free, and
    the default :data:`~repro.telemetry.NULL_RECORDER` makes recording
    a no-op.
    """

    #: Backend name: the key in :data:`BACKENDS` and the telemetry prefix.
    name: ClassVar[str]

    def __init__(self, model: object, recorder: Recorder | None = None):
        self.model = model
        rec = recorder if recorder is not None else NULL_RECORDER
        self._clk = rec.clock
        self._tick_timer = rec.timer(f"kernel.{self.name}.tick_seconds")
        self._generations = rec.counter(f"kernel.{self.name}.generations")

    def write(self, rows: slice, values: np.ndarray) -> None:
        """Store uint8 site ``values`` into the lattice rows ``rows``.

        A whole-lattice write (``rows=slice(None)``) is validated by the
        model's ``check_state``; a row block must have its rows' shape
        and fit the model's channels.
        """
        model = self.model
        if rows == _ALL_ROWS:
            values = model.check_state(values)  # type: ignore[attr-defined]
        else:
            values = np.asarray(values)
            nrows: int = model.rows  # type: ignore[attr-defined]
            shape = (len(range(*rows.indices(nrows))), model.cols)  # type: ignore[attr-defined]
            channels: int = model.num_channels  # type: ignore[attr-defined]
            if values.shape != shape or values.max(initial=0) >= 1 << channels:
                raise ValueError(
                    f"rows {rows.start}:{rows.stop} take a {shape} block of "
                    f"{channels}-bit sites, not shape {values.shape} with "
                    f"max {values.max(initial=0)}"
                )
            values = values.astype(np.uint8, copy=False)
        self._write(rows, values)

    @abstractmethod
    def _write(self, rows: slice, values: np.ndarray) -> None:
        """Store pre-validated uint8 ``values`` into ``rows``."""

    @abstractmethod
    def read(self, rows: slice = _ALL_ROWS) -> np.ndarray:
        """The sites of ``rows`` as a fresh uint8 array."""

    @abstractmethod
    def _tick(self, t: int, rng: np.random.Generator | None) -> None:
        """Advance the held lattice one generation (collide at ``t``, propagate)."""

    @hot_path
    def advance(
        self,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Step the held lattice ``generations`` generations from time ``t0``."""
        clk = self._clk
        tick_timer = self._tick_timer
        for i in range(generations):
            t_start = clk()
            self._tick(t0 + i, rng)
            tick_timer.record(clk() - t_start)
        self._generations.add(generations)

    def run(
        self,
        state: np.ndarray,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """``state`` advanced ``generations`` steps from ``t0``, as a fresh array."""
        self.write(_ALL_ROWS, state)
        self.advance(generations, t0, rng)
        return self.read()


class ReferenceStepper(KernelStepper):
    """The verified per-site kernels behind the :class:`KernelStepper` contract.

    Semantically identical to the historical ``LatticeGasAutomaton.step``
    loop (collide via table lookup, solid sites bounce back the
    *pre-collision* state, then propagate).  The lattice lives in one
    ``uint8`` field; each generation collides it into a preallocated
    buffer and propagates back, so stepping does not allocate.
    """

    name = "reference"

    def __init__(
        self,
        model: object,
        obstacles: object = None,
        recorder: Recorder | None = None,
    ):
        super().__init__(model, recorder)
        rows, cols = model.rows, model.cols  # type: ignore[attr-defined]
        self._state = np.zeros((rows, cols), dtype=np.uint8)
        self._collided = np.empty((rows, cols), dtype=np.uint8)
        mask = getattr(obstacles, "mask", obstacles)
        if mask is not None and np.any(mask):
            self._solid: np.ndarray | None = np.asarray(mask, dtype=bool)
            nc: int = model.num_channels  # type: ignore[attr-defined]
            self._bounce = bounce_back_table(nc).astype(np.uint8)
            self._bounced = np.empty((rows, cols), dtype=np.uint8)
        else:
            self._solid = None

    def _write(self, rows: slice, values: np.ndarray) -> None:
        self._state[rows] = values

    def read(self, rows: slice = _ALL_ROWS) -> np.ndarray:
        return self._state[rows].copy()

    @hot_path
    def _tick(self, t: int, rng: np.random.Generator | None) -> None:
        state, collided = self._state, self._collided
        self.model.collide(state, t, rng, out=collided, check=False)  # type: ignore[attr-defined]
        if self._solid is not None:
            np.take(self._bounce, state, out=self._bounced)
            np.copyto(collided, self._bounced, where=self._solid)
        self.model.propagate(collided, out=state, check=False)  # type: ignore[attr-defined]


class BitplaneStepper(KernelStepper):
    """Multi-spin coded stepping behind the :class:`KernelStepper` contract.

    The lattice stays packed in one ``(C, rows, W)`` plane buffer: a
    write packs only the rows it is given, a read unpacks only the rows
    asked for, and each generation is word-level plane algebra in place.
    """

    name = "bitplane"

    def __init__(
        self,
        model: object,
        obstacles: object = None,
        recorder: Recorder | None = None,
    ):
        super().__init__(model, recorder)
        self.kernel = BitplaneKernel(model, obstacles)  # type: ignore[arg-type]
        self._planes = self.kernel.alloc_planes()

    def _write(self, rows: slice, values: np.ndarray) -> None:
        self._planes[:, rows] = self.kernel.pack(values)

    def read(self, rows: slice = _ALL_ROWS) -> np.ndarray:
        return self.kernel.unpack(self._planes[:, rows])

    @hot_path
    def _tick(self, t: int, rng: np.random.Generator | None) -> None:
        self.kernel.step_into(self._planes, self._planes, t, rng)


#: Every backend, by name.
BACKENDS: dict[str, type[KernelStepper]] = {
    cls.name: cls for cls in (BitplaneStepper, ReferenceStepper)
}


def stepper_class(backend: str) -> type[KernelStepper]:
    """The stepper class named ``backend``; unknown names raise ConfigError."""
    cls = BACKENDS.get(backend)
    if cls is None:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {', '.join(sorted(BACKENDS))}"
        )
    return cls


def make_stepper(
    model: object,
    obstacles: object = None,
    backend: str = DEFAULT_BACKEND,
    recorder: Recorder | None = None,
) -> KernelStepper:
    """Build the ``backend`` stepper for ``model`` (and optional obstacles)."""
    return stepper_class(backend)(model, obstacles, recorder=recorder)
