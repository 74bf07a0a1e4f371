"""Kernel backend registry: uniform selection of LGCA stepping engines.

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

Multi-core runs go through process shards (:mod:`repro.runtime`), each
of which steps its slab with one of these backends.

Both are exposed through the same :class:`KernelStepper` interface —
stateless functional kernels over site-state fields — so
:class:`repro.lgca.automaton.LatticeGasAutomaton`, the engine simulators
in :mod:`repro.engines`, and the CLI select a backend by name without
knowing its storage format.  Steppers preallocate their double buffers
at construction, so steady-state stepping performs no array allocation;
the arrays they return are views of internal buffers, invalidated by the
next call — callers that retain states must copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.lgca.bitplane import BitplaneKernel
from repro.lgca.bits import bounce_back_table
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path

__all__ = [
    "KernelStepper",
    "Backend",
    "ReferenceStepper",
    "BitplaneStepper",
    "register_backend",
    "get_backend",
    "available_backends",
    "make_stepper",
    "DEFAULT_BACKEND",
]

#: The backend used when none is requested.
DEFAULT_BACKEND = "reference"


@runtime_checkable
class KernelStepper(Protocol):
    """A stateless stepping kernel over site-state fields.

    Implementations hold preallocated working storage but no gas state:
    ``step``/``run`` are pure functions of their arguments (plus the RNG
    stream).  Returned arrays may alias internal buffers and are only
    valid until the next call.
    """

    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Advance ``state`` one generation (collide at time ``t``, propagate)."""
        ...

    def run(
        self,
        state: np.ndarray,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Advance ``state`` by ``generations`` steps starting at time ``t0``."""
        ...


@dataclass(frozen=True)
class Backend:
    """A named stepper factory in the registry.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"bitplane"``.
    description:
        One line for ``--help`` output and docs.
    factory:
        ``factory(model, obstacles)`` returning a :class:`KernelStepper`.
    """

    name: str
    description: str
    factory: Callable[..., KernelStepper]


class ReferenceStepper:
    """The verified per-site kernels behind the :class:`KernelStepper` interface.

    Semantically identical to the historical ``LatticeGasAutomaton.step``
    loop (collide via table lookup, solid sites bounce back the
    *pre-collision* state, then propagate), restructured around two
    preallocated state buffers so steady-state stepping does not
    allocate.

    ``recorder`` (optional) receives per-generation kernel timings on
    the ``kernel.reference.tick_seconds`` timer and a generation count;
    handles and the clock are pre-bound here so the hot loop stays
    allocation-free, and the default :data:`~repro.telemetry.NULL_RECORDER`
    makes recording a no-op.
    """

    def __init__(
        self,
        model: object,
        obstacles: object = None,
        recorder: Recorder | None = None,
    ):
        self.model = model
        rows, cols = model.rows, model.cols  # type: ignore[attr-defined]
        self._buffers = (
            np.empty((rows, cols), dtype=np.uint8),
            np.empty((rows, cols), dtype=np.uint8),
        )
        self._collided = np.empty((rows, cols), dtype=np.uint8)
        mask = getattr(obstacles, "mask", obstacles)
        if mask is not None and np.any(mask):
            self._solid: np.ndarray | None = np.asarray(mask, dtype=bool)
            nc: int = model.num_channels  # type: ignore[attr-defined]
            self._bounce = bounce_back_table(nc).astype(np.uint8)
            self._bounced = np.empty((rows, cols), dtype=np.uint8)
        else:
            self._solid = None
        self._out_sel = 0
        rec = recorder if recorder is not None else NULL_RECORDER
        self._clk = rec.clock
        self._tick_timer = rec.timer("kernel.reference.tick_seconds")
        self._generations = rec.counter("kernel.reference.generations")

    def _next_buffer(self, state: np.ndarray) -> np.ndarray:
        """The write target for the next generation, never ``state`` itself.

        The same ping-pong idiom as ``PipelineStage.process``: the two
        preallocated buffers alternate between calls, so chained steps
        (``s = stepper.step(stepper.step(s))`` or ``step`` then ``run``)
        never collide into the array they are reading.  Returned states
        are views of this pair, valid until the next-but-one call —
        callers that retain them must copy.
        """
        sel = self._out_sel
        if self._buffers[sel] is state:
            sel = 1 - sel
        self._out_sel = 1 - sel
        return self._buffers[sel]

    @hot_path
    def _advance(
        self,
        state: np.ndarray,
        out: np.ndarray,
        t: int,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """One pre-validated generation from ``state`` into ``out``."""
        clk = self._clk
        t_start = clk()
        collided = self._collided
        self.model.collide(state, t, rng, out=collided, check=False)  # type: ignore[attr-defined]
        if self._solid is not None:
            np.take(self._bounce, state, out=self._bounced)
            np.copyto(collided, self._bounced, where=self._solid)
        result = self.model.propagate(collided, out=out, check=False)  # type: ignore[attr-defined]
        self._tick_timer.record(clk() - t_start)
        self._generations.add(1)
        return result

    @hot_path
    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        return self._advance(state, self._next_buffer(state), t, rng)

    @hot_path
    def run(
        self,
        state: np.ndarray,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        cur: np.ndarray = state
        for i in range(generations):
            cur = self._advance(cur, self._next_buffer(cur), t0 + i, rng)
        return cur


class BitplaneStepper:
    """Multi-spin coded stepping behind the :class:`KernelStepper` interface.

    ``step`` pays a pack/unpack conversion per call; ``run`` packs once,
    advances all generations as word-level plane operations on two
    preallocated plane buffers, and unpacks once — that is the fast path
    the benchmarks measure.

    ``recorder`` (optional) receives per-generation kernel timings on
    the ``kernel.bitplane.tick_seconds`` timer through pre-bound
    handles; the default null recorder makes recording a no-op.
    """

    def __init__(
        self,
        model: object,
        obstacles: object = None,
        recorder: Recorder | None = None,
    ):
        self.model = model
        self.kernel = BitplaneKernel(model, obstacles)  # type: ignore[arg-type]
        self._planes = (self.kernel.alloc_planes(), self.kernel.alloc_planes())
        self._field = np.empty((model.rows, model.cols), dtype=np.uint8)  # type: ignore[attr-defined]
        rec = recorder if recorder is not None else NULL_RECORDER
        self._clk = rec.clock
        self._tick_timer = rec.timer("kernel.bitplane.tick_seconds")
        self._generations = rec.counter("kernel.bitplane.generations")

    @hot_path
    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        return self.run(state, 1, t, rng)

    @hot_path
    def run(
        self,
        state: np.ndarray,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        if generations == 0:
            return state
        clk = self._clk
        tick_timer = self._tick_timer
        src, dst = self._planes
        src[...] = self.kernel.pack(state)
        for i in range(generations):
            t_start = clk()
            self.kernel.step_into(src, dst, t0 + i, rng)
            tick_timer.record(clk() - t_start)
            src, dst = dst, src
        self._generations.add(generations)
        return self.kernel.unpack(src, out=self._field)


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add a backend to the registry (name must be unused); returns it.

    Raises
    ------
    ConfigError
        When the name is already registered — silently replacing a
        backend would let a stale import swap the semantics everything
        else was validated against.
    """
    if backend.name in _REGISTRY:
        raise ConfigError(
            f"backend {backend.name!r} is already registered; "
            f"registered backends: {', '.join(sorted(_REGISTRY))}"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a backend by name, with a helpful error listing the choices."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return backend


def available_backends() -> tuple[Backend, ...]:
    """All registered backends, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def make_stepper(
    model: object,
    obstacles: object = None,
    backend: str = DEFAULT_BACKEND,
    recorder: Recorder | None = None,
) -> KernelStepper:
    """Build a stepper for ``model`` (and optional obstacles) by backend name.

    Unknown names raise :class:`~repro.util.errors.ConfigError`.
    Every shipped stepper accepts ``recorder`` and reports its kernel
    timings through it; it is only forwarded when set, so third-party
    factories without the parameter keep working under the default
    null recorder.
    """
    chosen = get_backend(backend)
    if recorder is None:
        return chosen.factory(model, obstacles)
    return chosen.factory(model, obstacles, recorder=recorder)


register_backend(
    Backend(
        name="reference",
        description="verified per-site table-lookup kernels (golden semantics)",
        factory=ReferenceStepper,
    )
)
register_backend(
    Backend(
        name="bitplane",
        description="multi-spin coded kernels: 64 sites per word, boolean-algebra collision",
        factory=BitplaneStepper,
    )
)
