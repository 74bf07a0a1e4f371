"""Shared streaming core for the engine simulators.

Sections 3–6.3 of the paper describe four machines that differ in
*geometry* — lanes per stage, slice partitioning, where the delay line
lives — but share one operational skeleton: lattice frames enter as
raster site streams, ``k`` chained stages each collide sites and
reassemble neighborhoods through a delay line, and a pass advances the
lattice ``k`` generations while the accounting tallies ticks, main
memory traffic, side-channel traffic, and silicon.

:class:`StreamingEngineCore` implements that skeleton once — the
``run()`` loop, double buffering, kernel-backend selection, fault-hook
plumbing, and :class:`~repro.engines.stats.EngineRunStats` production —
and each architecture subclasses it with only its geometry: a name,
``ticks_per_pass``, storage/PE/chip counts, and (for the SPA) the
side-channel bits per stage pass.  Every cross-cutting feature added
here (backends, fault hooks, tickwise simulation) is inherited by all
engines uniformly, with uniform error messages.

The module also hosts :class:`PipelineStage` — the single-stage
collide + delay-line model every engine composes — and the backend
resolver; :mod:`repro.engines.pipeline` re-exports both for backward
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from repro.engines.pe import PostCollideHook, SiteUpdateRule, make_rule
from repro.engines.shiftreg import ShiftRegister
from repro.engines.stats import EngineRunStats
from repro.lgca.automaton import SiteModel
from repro.lgca.backends import (
    KernelStepper,
    get_backend,
    make_stepper,
)
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.hotpath import hot_path
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["PipelineStage", "StreamingEngineCore"]


def _make_engine_stepper(
    model: SiteModel,
    backend: str,
    post_collide: PostCollideHook | None,
    recorder: Recorder | None = None,
) -> KernelStepper | None:
    """Resolve an engine's frame-evolution backend.

    ``None`` means "stream every site through the PE stage" (the
    reference dataflow the engines exist to model).  Any other
    registered backend evolves frames with its stepper instead — the
    evolution is identical (the backends are bit-exact by contract and
    by test), only wall-clock speed changes.  Fault-injection hooks
    mutate values *inside* the stream, so they require the reference
    dataflow.
    """
    get_backend(backend)  # uniform name validation and error message
    if backend == "reference":
        return None
    if post_collide is not None:
        raise ValueError("fault-injection hooks require backend='reference'")
    return make_stepper(model, backend=backend, recorder=recorder)


@dataclass
class PipelineStage:
    """One pipeline stage: collide + delay-line neighborhood assembly.

    ``post_collide``, when given, transforms collided values as they
    leave the PE and enter the delay line — the stage-level
    fault-injection hook (see :mod:`repro.resilience.faults`).
    ``shiftreg_transform`` is forwarded to the tick-accurate delay line
    as its per-push fault hook (:class:`~repro.engines.shiftreg.ShiftRegister`).
    """

    rule: SiteUpdateRule
    post_collide: PostCollideHook | None = None
    shiftreg_transform: "Callable[[int, int], int] | None" = None

    def __post_init__(self) -> None:
        self._stencil = self.rule.stencil
        self._src, self._valid = self._stencil.gather_maps()
        self._reach = self._stencil.window_reach()
        rows, cols = self._stencil.rows, self._stencil.cols
        n = rows * cols
        self._r = (np.arange(n) // cols).astype(np.int64)
        self._c = (np.arange(n) % cols).astype(np.int64)
        # Working storage for the allocation-free vectorized stage;
        # (re)allocated lazily when the stream geometry/dtype is first seen.
        self._buf_key: tuple[int, np.dtype, np.dtype] | None = None
        self._out_sel = 0

    @property
    def latency_ticks(self) -> int:
        """Ticks between a site entering and its updated value leaving."""
        return self._reach

    @property
    def storage_sites(self) -> int:
        """Delay-line capacity: 2·reach + 1 = 2L + 3 for the hex stencil."""
        return self._stencil.window_sites()

    def collide_sites(
        self,
        values: np.ndarray,
        r: np.ndarray,
        c: np.ndarray,
        generation: int,
    ) -> np.ndarray:
        """Collide site values and apply the stage's fault hook (if any)."""
        collided = np.asarray(self.rule.collide(values, r, c, generation))
        if self.post_collide is not None:
            collided = np.asarray(self.post_collide(collided, r, c, generation))
        return collided

    def _stream_buffers(
        self, stream: np.ndarray, collided: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Working storage for :meth:`process`: (out, gather, bits).

        Setup region: buffers are allocated only when the stream
        geometry or dtype changes, never in steady-state stepping.  The
        two ``out`` buffers alternate between calls so chained stages
        (``stream = stage.process(stream, t)``) never write the array
        they are reading.
        """
        n = stream.size
        key = (n, stream.dtype, collided.dtype)
        if self._buf_key != key:
            self._out_pair = (  # repro: alloc-ok
                np.empty(n, dtype=stream.dtype),  # repro: alloc-ok
                np.empty(n, dtype=stream.dtype),  # repro: alloc-ok
            )
            self._gather = np.empty(n, dtype=collided.dtype)  # repro: alloc-ok
            self._bits = np.empty(n, dtype=stream.dtype)  # repro: alloc-ok
            self._valid_i = self._valid.astype(stream.dtype)  # repro: alloc-ok
            self._buf_key = key
            self._out_sel = 0
        out = self._out_pair[self._out_sel]
        self._out_sel = 1 - self._out_sel
        return out, self._gather, self._bits

    @hot_path
    def process(self, stream: np.ndarray, generation: int) -> np.ndarray:
        """Vectorized stage: one whole frame stream -> next generation.

        Allocation-free in steady state: the result is a view of an
        internal double buffer, valid until the next-but-one call —
        callers that retain it must copy.
        """
        stream = self._check_stream(stream)
        collided = self.collide_sites(stream, self._r, self._c, generation)
        out, gather, bits = self._stream_buffers(stream, collided)
        dtype = stream.dtype
        out.fill(0)
        for ch in range(self._stencil.num_moving_channels):
            np.take(collided, self._src[ch], out=gather)
            np.right_shift(gather, gather.dtype.type(ch), out=gather)
            np.copyto(bits, gather, casting="unsafe")
            np.bitwise_and(bits, self._valid_i[ch], out=bits)
            np.left_shift(bits, dtype.type(ch), out=bits)
            np.bitwise_or(out, bits, out=out)
        for ch in self._stencil.self_channels:
            np.copyto(bits, collided, casting="unsafe")
            np.bitwise_and(bits, dtype.type(1 << ch), out=bits)
            np.bitwise_or(out, bits, out=out)
        return out

    def process_tickwise(
        self,
        stream: np.ndarray,
        generation: int,
        capacity_override: int | None = None,
    ) -> np.ndarray:
        """Tick-accurate stage through a hard-capacity shift register.

        Functionally identical to :meth:`process`; raises
        :class:`repro.engines.shiftreg.WindowOverrunError` if the stencil
        ever needs more than the ``2L + 3`` window the paper budgets.
        ``capacity_override`` shrinks (or grows) the register — tests
        use it to show the window is *necessary*, not merely sufficient:
        one cell less and the stage provably cannot assemble its
        neighborhoods.
        """
        stream = self._check_stream(stream)
        n = stream.size
        cols = self._stencil.cols
        reach = self._reach
        capacity = (
            capacity_override
            if capacity_override is not None
            else self._stencil.window_sites()
        )
        line = ShiftRegister(capacity=capacity, push_transform=self.shiftreg_transform)
        out = np.zeros_like(stream)
        total_ticks = n + reach
        for tick in range(total_ticks):
            if tick < n:
                r, c = divmod(tick, cols)
                collided = int(
                    self.collide_sites(
                        np.array([stream[tick]]),
                        np.array([r]),
                        np.array([c]),
                        generation,
                    )[0]
                )
                line.push(collided)
            else:
                line.push(0)  # drain: the hardware clocks zeros through
            s_out = tick - reach
            if 0 <= s_out < n:
                r, c = divmod(s_out, cols)
                value = 0
                for ch in range(self._stencil.num_moving_channels):
                    src = self._stencil.source_index(r, c, ch)
                    if src is None:
                        continue
                    flat = src[0] * cols + src[1]
                    age = tick - flat  # newest push has flat index == tick
                    if (line.tap(age) >> ch) & 1:
                        value |= 1 << ch
                for ch in self._stencil.self_channels:
                    age = tick - s_out
                    if (line.tap(age) >> ch) & 1:
                        value |= 1 << ch
                out[s_out] = value
        return out

    def _check_stream(self, stream: np.ndarray) -> np.ndarray:
        stream = np.asarray(stream)
        expected = self._stencil.rows * self._stencil.cols
        if stream.shape != (expected,):
            raise ValueError(
                f"stream has shape {stream.shape}, expected ({expected},)"
            )
        return stream


class StreamingEngineCore:
    """Base class for the cycle-level engine simulators.

    Owns everything the four architectures share: parameter validation,
    the verified site-update rule and :class:`PipelineStage`, kernel
    backend resolution, and the pass loop in :meth:`run` that advances
    ``pipeline_depth`` generations per pass while accounting ticks,
    main-memory bits, side-channel bits, and silicon.

    Subclasses supply only their geometry by overriding:

    * :attr:`name` — engine identifier (required);
    * :meth:`ticks_per_pass` — pass duration (default: serial timing,
      ``n + span · latency``);
    * :attr:`storage_sites` / :attr:`num_pes` / :attr:`num_chips` —
      silicon accounting (default: one PE-chip per stage);
    * :meth:`side_bits_per_stage_pass` — side-channel traffic per stage
      pass (default 0; the SPA measures its slice-boundary exchange);
    * :meth:`_advance_stream` — how one stage transforms the stream
      (default: the shared stage's vectorized/tickwise paths);
    * :attr:`supports_tickwise` — clear it when the architecture has no
      tick-accurate model (the SPA's mutually skewed slice streams).

    Parameters
    ----------
    model:
        A reference model with ``boundary="null"`` and deterministic
        chirality (the engine reuses its verified collision tables).
    pipeline_depth:
        k — stages in series; each pass advances k generations.
    clock_hz:
        Major cycle rate for the stats.
    post_collide:
        Optional fault-injection hook applied at every PE output
        (see :class:`PipelineStage`).
    backend:
        Kernel backend evolving the frames (see
        :mod:`repro.lgca.backends`).  ``"reference"`` streams every site
        through the PE stage; ``"bitplane"`` computes the (identical)
        evolution with the multi-spin coded kernels — much faster for
        large frames.  Stats accounting is unchanged: it models the
        *hardware*, which is the same machine either way.  Fault hooks
        and tick-accurate simulation require the reference backend.
    recorder:
        Optional :class:`~repro.telemetry.Recorder`.  :meth:`run` emits
        run/pass spans and keeps its accounting on recorder counters
        (``engine.ticks``, ``engine.io_bits_main``, …), and the kernel
        stepper (non-reference backends) reports its per-generation
        timings through the same recorder.  The default
        :data:`~repro.telemetry.NULL_RECORDER` makes all of this free;
        the evolution is bit-identical either way.
    """

    #: whether :meth:`run` accepts ``tickwise=True`` on the reference backend
    supports_tickwise: ClassVar[bool] = True

    def __init__(
        self,
        model: SiteModel,
        pipeline_depth: int = 1,
        clock_hz: float = 10e6,
        post_collide: PostCollideHook | None = None,
        backend: str = "reference",
        recorder: Recorder | None = None,
    ):
        self.model = model
        self.pipeline_depth = check_positive(pipeline_depth, "pipeline_depth", integer=True)
        self.clock_hz = check_positive(clock_hz, "clock_hz")
        self.rule = make_rule(model)
        self.stage = PipelineStage(self.rule, post_collide=post_collide)
        self.backend = backend
        self.recorder: Recorder = recorder if recorder is not None else NULL_RECORDER
        self._stepper = _make_engine_stepper(model, backend, post_collide, recorder)

    # -- identity and geometry hooks --------------------------------------------

    @property
    def name(self) -> str:
        """Engine identifier used in stats and tables."""
        raise NotImplementedError

    @property
    def num_sites(self) -> int:
        """Total lattice sites per frame."""
        return self.model.rows * self.model.cols

    @property
    def storage_sites(self) -> int:
        """Total delay-line site values across all stages."""
        return self.pipeline_depth * self.stage.storage_sites

    @property
    def num_pes(self) -> int:
        """Total processing elements in the configuration."""
        return self.pipeline_depth

    @property
    def num_chips(self) -> int:
        """Chips the configuration occupies."""
        return self.pipeline_depth

    def ticks_per_pass(self, span: int) -> int:
        """Major clock ticks for one pass through ``span`` active stages."""
        return self.num_sites + span * self.stage.latency_ticks

    def side_bits_per_stage_pass(self) -> int:
        """Side-channel bits one stage moves per pass (0 unless partitioned)."""
        return 0

    # -- evolution ---------------------------------------------------------------

    @hot_path
    def _advance_stream(
        self, stream: np.ndarray, generation: int, tickwise: bool
    ) -> np.ndarray:
        """Transform the site stream through one stage (one generation)."""
        if tickwise:
            # Tick-accurate diagnostic path, not a streaming rate model.
            return self.stage.process_tickwise(stream, generation)  # repro: alloc-ok
        return self.stage.process(stream, generation)

    def run(
        self,
        frame: np.ndarray,
        generations: int,
        start_time: int = 0,
        tickwise: bool = False,
    ) -> tuple[np.ndarray, EngineRunStats]:
        """Advance ``generations`` (multiple passes if > ``pipeline_depth``).

        Returns the final frame and the run's
        :class:`~repro.engines.stats.EngineRunStats`.  All accounting
        lives on the recorder's ``engine.*`` counters — the stats are
        the counter deltas over this run, so a collecting recorder sees
        exactly the numbers the stats report (cumulatively, across
        runs), and the null recorder costs a few integer adds.
        """
        generations = check_nonnegative(generations, "generations", integer=True)
        if tickwise and not self.supports_tickwise:
            raise ValueError(
                f"{type(self).__name__} does not support tickwise simulation"
            )
        if tickwise and self._stepper is not None:
            raise ValueError("tickwise simulation requires backend='reference'")
        frame = self.model.check_state(frame)
        stream = frame.ravel().copy()
        n = self.num_sites
        d = self.model.bits_per_site
        shape = (self.model.rows, self.model.cols)
        per_pass_side = self.side_bits_per_stage_pass()
        rec = self.recorder
        ticks_c = rec.counter("engine.ticks")
        updates_c = rec.counter("engine.site_updates")
        io_c = rec.counter("engine.io_bits_main")
        side_c = rec.counter("engine.io_bits_side")
        passes_c = rec.counter("engine.passes")
        ticks0, updates0 = ticks_c.value, updates_c.value
        io0, side0 = io_c.value, side_c.value
        done = 0
        t = start_time
        with rec.span("engine.run", generation=start_time):
            while done < generations:
                span = min(self.pipeline_depth, generations - done)
                with rec.span("engine.pass", tick=ticks_c.value - ticks0, generation=t):
                    if self._stepper is not None:
                        stream = self._stepper.run(stream.reshape(shape), span, t).ravel()
                        t += span
                    else:
                        for _ in range(span):
                            stream = self._advance_stream(stream, t, tickwise)
                            t += 1
                ticks_c.add(self.ticks_per_pass(span))
                io_c.add(2 * d * n)  # read every site once, write every site once
                side_c.add(span * per_pass_side)
                updates_c.add(span * n)
                passes_c.add(1)
                done += span
        if generations > 0:
            # Detach from the stepper's (or the stage's) internal buffer.
            stream = stream.copy()
        stats = EngineRunStats(
            name=self.name,
            site_updates=updates_c.value - updates0,
            ticks=ticks_c.value - ticks0,
            io_bits_main=io_c.value - io0,
            io_bits_side=side_c.value - side0,
            storage_sites=self.storage_sites,
            num_pes=self.num_pes,
            num_chips=self.num_chips,
            clock_hz=self.clock_hz,
        )
        return stream.reshape(shape), stats
