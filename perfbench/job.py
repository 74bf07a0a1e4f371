"""One benchmark job: a user's path through the library, in a fresh interpreter.

    python3 perfbench/job.py '<JSON job spec>'

The driver (``run.py``) starts one job per measured run, so each run
pays what the user's command pays: interpreter start, imports, model
build, initial state, stepping and observables.  The calls, and their
order, are those of ``_cmd_simulate`` and ``_cmd_run`` in
``src/repro/cli.py``.  The seed only makes the initial state here; the
library sees the generated state.  The spec's ``role`` is one of:

``timed``
    The user path, untraced.  Returns timestamps on the system-wide
    monotonic clock (the driver stamps ``t_spawn`` on the same clock),
    the final-state digest, per-channel particle counts taken after the
    clock stops, and peak memory.
``traced``
    The same path with a span around every public call, then the
    per-layer extras: a replay through the bit-plane kernel's
    pack/collide/propagate/unpack calls, and for the supervised path a
    direct run of the same lattice and an in-process replay of its
    shards and checkpoints.  Every replay must reproduce the user path's
    final state bit for bit.  Writes one schema-v2 telemetry report.
``golden``
    The same initial state stepped with the ``reference`` backend.

The last line on stdout is the job's JSON result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from workloads import Workload

#: Kernel replays repeat until this many generations are sampled, so the
#: 90th percentile of per-generation time has at least 10 samples beyond it.
MIN_GENERATION_SAMPLES = 100

_NULL_SPAN = contextlib.nullcontext()


def _now() -> float:
    return time.perf_counter()


def _peak_rss_kb(who: int = resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_maxrss


def digest(state) -> str:
    """SHA-256 of a final state's bytes (the bit-for-bit check)."""
    return hashlib.sha256(state.tobytes()).hexdigest()


def channel_counts(state, num_channels: int) -> list[int]:
    """Particles per velocity channel: mass and momentum follow exactly."""
    import numpy as np

    return [int(np.count_nonzero(state & (1 << ch))) for ch in range(num_channels)]


class Tracer:
    """Spans around the user path's public calls; a no-op when untraced.

    The ``job`` span starts at the driver's spawn time and the
    ``import`` span at the job's first line, both earlier than the
    recorder, so their start (and the import's end) are set on the
    records after they open.
    """

    def __init__(self, traced: bool, t_spawn: float, t_main: float):
        self.traced = traced
        self.t_spawn = t_spawn
        self.t_main = t_main
        self.recorder = None
        self._job = None

    def imported(self, t_imported: float) -> None:
        if not self.traced:
            return
        from repro.telemetry import PERF_COUNTER, InMemoryRecorder

        rec = self.recorder = InMemoryRecorder(clock=PERF_COUNTER)
        self._job = rec.span("job")
        self._job.__enter__().start = self.t_spawn
        with rec.span("import") as imp:
            pass
        imp.start, imp.end = self.t_main, t_imported

    def span(self, name: str, generation: int | None = None):
        if not self.traced:
            return _NULL_SPAN
        return self.recorder.span(name, generation=generation)

    def end_job(self) -> None:
        if self._job is not None:
            self._job.__exit__(None, None, None)
            self._job = None


@contextlib.contextmanager
def _traced_make_stepper(tracer: Tracer):
    """Put a ``backends.make_stepper`` span inside ``automaton.init``.

    ``LatticeGasAutomaton`` looks ``make_stepper`` up in its module at
    construction, so wrapping the module attribute times the backend's
    stepper build (flip-term compile and ``verify_plane_logic``) without
    editing the library.  Traced jobs only; restored on exit.
    """
    import repro.lgca.backends as backends

    make_stepper = backends.make_stepper

    def traced(*args, **kwargs):
        with tracer.span("backends.make_stepper"):
            return make_stepper(*args, **kwargs)

    backends.make_stepper = traced
    try:
        yield
    finally:
        backends.make_stepper = make_stepper


def _build_model(w: Workload):
    """The model exactly as ``_cmd_simulate`` constructs it."""
    from repro.lgca.fhp import FHPModel

    return FHPModel(
        w.rows,
        w.cols,
        rest_particles=w.model in ("fhp7", "fhp-sat"),
        saturated=w.model == "fhp-sat",
        boundary="periodic",
    )


def _initial_state(w: Workload, seed: int):
    import numpy as np

    from repro.lgca.flows import uniform_random_state

    rng = np.random.default_rng(seed)
    return uniform_random_state(w.rows, w.cols, w.num_channels, w.density, rng)


# -- the user paths ---------------------------------------------------------------


def simulate_path(w: Workload, seed: int, tracer: Tracer, marks: dict) -> dict:
    """``repro simulate --engine none``, call for call."""
    import numpy as np

    from repro import machines  # noqa: F401 - _cmd_simulate imports it
    from repro.lgca.automaton import LatticeGasAutomaton
    from repro.lgca.flows import uniform_random_state
    from repro.util.tables import Table

    marks["t_imported"] = _now()
    tracer.imported(marks["t_imported"])

    rng = np.random.default_rng(seed)
    hwm = _peak_rss_kb()
    with tracer.span("model.build"):
        model = _build_model(w)
    marks["build_peak_rss_kb"] = _peak_rss_kb() - hwm
    with tracer.span("flows.init"):
        state = uniform_random_state(w.rows, w.cols, model.num_channels, w.density, rng)
    with tracer.span("automaton.init"):
        auto = LatticeGasAutomaton(model, state.copy(), backend=w.backend)
    with tracer.span("observables.mass"):
        mass0 = auto.particle_count()
    with tracer.span("observables.momentum"):
        p0 = auto.momentum()
    marks["t_first"] = _now()
    with tracer.span("automaton.run"):
        auto.run(w.steps)
    marks["t_run_end"] = _now()
    with tracer.span("observables.mass"):
        mass_end = auto.particle_count()
    with tracer.span("observables.momentum"):
        p_end = auto.momentum()
    table = Table("Simulation", ["quantity", "value"])
    table.add_row("model", w.model)
    table.add_row("grid", f"{w.rows} x {w.cols} (periodic)")
    table.add_row("steps", w.steps)
    table.add_row("mass (t=0 -> end)", f"{mass0} -> {mass_end}")
    table.add_row("momentum drift", f"{np.abs(p_end - p0).max():.2e}")
    table.print()
    with tracer.span("check.digest"):
        marks["digest"] = digest(auto.state)
    marks["t_end"] = _now()
    marks["mass0"], marks["mass_end"] = int(mass0), int(mass_end)
    return {"model": model, "initial": state, "final": auto.state}


def supervised_path(
    w: Workload, seed: int, tracer: Tracer, marks: dict, checkpoint_dir: str
) -> dict:
    """``repro run --supervised``, call for call, on a generated initial state."""
    from repro.lgca.automaton import LatticeGasAutomaton  # noqa: F401 - _cmd_run imports it
    from repro.runtime import ModelSpec, SupervisorConfig, supervised_run
    from repro.util.backoff import BackoffPolicy
    from repro.util.tables import Table

    marks["t_imported"] = _now()
    tracer.imported(marks["t_imported"])

    hwm = _peak_rss_kb()
    with tracer.span("model.build"):
        spec = ModelSpec(kind=w.model, rows=w.rows, cols=w.cols, boundary="periodic")
    marks["build_peak_rss_kb"] = _peak_rss_kb() - hwm
    with tracer.span("flows.init"):
        initial = spec.initial_state(w.density, seed)
    with tracer.span("supervisor.config"):
        # The CLI's defaults for every flag the workload does not set.
        config = SupervisorConfig(
            spec=spec,
            generations=w.steps,
            num_workers=w.workers,
            backend=w.backend,
            fallback_backend="reference",
            density=w.density,
            seed=seed,
            initial_state=initial,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=w.checkpoint_interval,
            watchdog_timeout=10.0,
            backoff=BackoffPolicy(
                max_retries=3, base_delay=0.1, multiplier=2.0, max_delay=2.0, jitter=0.1
            ),
            max_total_restarts=8,
            breaker_threshold=3,
            breaker_cooldown=30.0,
        )
    marks["t_first"] = _now()
    with tracer.span("supervisor.run"):
        state, report = supervised_run(config)
    marks["t_run_end"] = _now()
    table = Table("Supervised run", ["quantity", "value"])
    table.add_row("grid", f"{w.rows} x {w.cols} (periodic)")
    table.add_row("generations", f"{report.generations_completed}/{report.generations}")
    table.add_row("outcome", report.outcome)
    table.add_row("restarts", len(report.restarts))
    table.add_row("wall time", f"{report.wall_time_seconds:.2f}s")
    table.print()
    if state is not None:
        with tracer.span("check.digest"):
            marks["digest"] = digest(state)
    marks["t_end"] = _now()
    marks["outcome"] = report.outcome
    marks["worker_processes"] = w.workers + len(report.restarts)
    return {"spec": spec, "initial": initial, "final": state}


# -- traced extras ------------------------------------------------------------------


def bytes_per_generation(model) -> int:
    """Computed bytes the bit-plane kernel streams per generation.

    Counts whole-plane NumPy passes of ``collide_into`` and
    ``propagate_into`` (each operand read and each result written once,
    no cache reuse between calls) for the model's compiled flip terms,
    times the bytes of one plane.  A model, not a measurement.
    """
    from repro.lgca.bitplane import num_words, split_chirality_terms
    from repro.lgca.fhp import _COL_OFFSET_EVEN, _COL_OFFSET_ODD

    left, right = model.collision_tables
    common, only_left, only_right = split_chirality_terms(left, right)
    channels = model.num_channels

    def term_passes(terms) -> int:
        # copy of the first literal, then scratch &= literal, acc |= scratch
        return sum(2 + 3 * (len(t.pos) + len(t.neg) - 1) + 3 * len(t.flip_channels) for t in terms)

    collide = 2 * channels + channels + term_passes(common) + 3 * channels
    for side in (only_left, only_right):
        if side:
            collide += channels + term_passes(side) + 6 * channels
    propagate = 0.0
    for even, odd in zip(_COL_OFFSET_EVEN, _COL_OFFSET_ODD):
        # a column shift is shift + carry shift + OR (7 passes), a copy 2;
        # parity-dependent shifts run on half planes; then a row move (2).
        propagate += sum(0.5 * (7 if dc else 2) for dc in (even, odd)) + 2
    propagate += 2 * (channels - 6)
    plane_bytes = model.rows * num_words(model.cols) * 8
    return int((collide + propagate) * plane_bytes)


def kernel_replay(model, initial, final, steps: int, tracer: Tracer) -> None:
    """Re-run the evolution through the bit-plane kernel's own calls, timed.

    Builds the kernel the ``bitplane`` stepper builds for ``model`` and
    splits each generation into collide and propagate, as
    ``BitplaneKernel.step_into`` does, with pack before and unpack
    after.  Each replay must end on ``final``.
    """
    import numpy as np

    from repro.lgca.bitplane import BitplaneKernel

    rec = tracer.recorder
    kernel = BitplaneKernel(model)
    mid = kernel.alloc_planes()
    out = np.empty_like(final)
    replays = math.ceil(MIN_GENERATION_SAMPLES / steps)
    rec.counter("bitplane.replays").add(replays)
    rec.counter("bitplane.bytes_per_gen").add(bytes_per_generation(model))
    with tracer.span("kernel.replay"):
        for _ in range(replays):
            dst = kernel.alloc_planes()
            with tracer.span("bitplane.pack"):
                src = kernel.pack(initial)
            for t in range(steps):
                with tracer.span("bitplane.step", generation=t):
                    with tracer.span("bitplane.collide"):
                        kernel.collide_into(src, mid, t)
                    with tracer.span("bitplane.propagate"):
                        kernel.propagate_into(mid, dst)
                src, dst = dst, src
            with tracer.span("bitplane.unpack"):
                kernel.unpack(src, out=out)
            if not np.array_equal(out, final):
                raise AssertionError("kernel replay diverged from the user path's final state")


def direct_baseline(w: Workload, spec, initial, final, tracer: Tracer):
    """The single-process direct run of the supervised lattice (the speed-up base)."""
    import numpy as np

    from repro.lgca.automaton import LatticeGasAutomaton

    with tracer.span("direct.baseline"):
        with tracer.span("model.build"):
            model = spec.build()
        with tracer.span("automaton.init"):
            auto = LatticeGasAutomaton(model, initial, backend=w.backend)
        with tracer.span("observables.mass"):
            auto.particle_count()
        with tracer.span("observables.momentum"):
            auto.momentum()
        with tracer.span("automaton.run"):
            auto.run(w.steps)
        with tracer.span("observables.mass"):
            auto.particle_count()
        with tracer.span("observables.momentum"):
            auto.momentum()
    if not np.array_equal(auto.state, final):
        raise AssertionError("direct run diverged from the supervised run")
    return model


def shard_replay(w: Workload, spec, initial, final, tracer: Tracer, checkpoint_dir: str) -> None:
    """Drive the supervised run's shards in-process, as its workers do.

    One :class:`ShardRunner` and one durable :class:`CheckpointStore` per
    shard; each generation exchanges boundary rows through
    ``boundary_rows``/``set_halos`` and steps every shard, checkpointing
    at the workload's interval.  Per-shard busy time lands in
    ``shard.<i>.*`` timers so the driver can find the busiest shard.
    """
    import numpy as np

    from repro.resilience.checkpoint import CheckpointStore
    from repro.runtime.sharding import ShardRunner, plan_shards

    rec = tracer.recorder
    clock = rec.clock
    halo_bytes = rec.counter("sharding.halo_bytes")
    ckpt_bytes = rec.counter("checkpoint.bytes")

    @contextlib.contextmanager
    def busy(name: str, shard: int, generation: int):
        start = clock()
        with tracer.span(name, generation=generation):
            yield
        rec.timer(f"shard.{shard}.busy_seconds").record(clock() - start)

    shards = plan_shards(w.rows, w.workers)
    with tracer.span("shard.replay"):
        with tracer.span("sharding.init"):
            runners = [
                ShardRunner(
                    spec.build(rows=s.local_rows),
                    s,
                    initial[s.row_start : s.row_stop],
                    backend=w.backend,
                )
                for s in shards
            ]
        stores = [
            CheckpointStore(
                interval=w.checkpoint_interval,
                keep=3,
                directory=Path(checkpoint_dir) / f"worker-{i:02d}",
            )
            for i in range(len(shards))
        ]

        def checkpoint(i: int) -> None:
            runner = runners[i]
            with busy("checkpoint.save", i, runner.time):
                stores[i].save(runner.time, runner.interior)
            ckpt_bytes.add(runner.interior.nbytes)

        for i in range(len(runners)):
            checkpoint(i)  # every worker checkpoints its initial slab
        n = len(runners)
        for g in range(w.steps):
            edges = []
            for i, runner in enumerate(runners):
                with busy("sharding.boundary_rows", i, g):
                    edges.append(runner.boundary_rows())
            for i, runner in enumerate(runners):
                above = edges[(i - 1) % n][1]
                below = edges[(i + 1) % n][0]
                with busy("sharding.halo", i, g):
                    runner.set_halos(above, below)
                halo_bytes.add(above.nbytes + below.nbytes)
            for i, runner in enumerate(runners):
                with busy("sharding.step", i, g):
                    runner.step()
                if stores[i].due(runner.time):
                    checkpoint(i)
    assembled = np.concatenate([r.interior for r in runners])
    if not np.array_equal(assembled, final):
        raise AssertionError("in-process shards diverged from the supervised run")


# -- roles ------------------------------------------------------------------------


def run_golden(w: Workload, seed: int) -> dict:
    from repro.lgca.automaton import LatticeGasAutomaton

    initial = _initial_state(w, seed)
    counts0 = channel_counts(initial, w.num_channels)
    auto = LatticeGasAutomaton(_build_model(w), initial, backend="reference")
    auto.run(w.steps)
    return {
        "digest": digest(auto.state),
        "counts0": counts0,
        "counts_end": channel_counts(auto.state, w.num_channels),
    }


def run_user_path(spec: dict, t_main: float) -> dict:
    """The timed or traced role: the user path, then its checks."""
    w = Workload(**spec["workload"])
    traced = spec["role"] == "traced"
    tracer = Tracer(traced, spec["t_spawn"], t_main)
    marks: dict = {"t_spawn": spec["t_spawn"], "t_main": t_main}
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(_traced_make_stepper(tracer))
        if w.path == "simulate":
            out = simulate_path(w, spec["seed"], tracer, marks)
        else:
            checkpoint_dir = str(Path(spec["scratch_dir"]) / "supervisor")
            out = supervised_path(w, spec["seed"], tracer, marks, checkpoint_dir)
        tracer.end_job()
        # Untimed from here: peak memory, then the conservation inputs.
        marks["rss_kb"] = _peak_rss_kb()
        marks["children_rss_kb"] = _peak_rss_kb(resource.RUSAGE_CHILDREN)
        final = out["final"]
        if final is not None:
            marks["counts_end"] = channel_counts(final, w.num_channels)
        if traced:
            _traced_extras(w, spec, tracer, out, marks)
    return marks


def _traced_extras(w: Workload, spec: dict, tracer: Tracer, out: dict, marks: dict) -> None:
    """The per-layer replays, then the one telemetry report of this job."""
    from repro.telemetry import TelemetryReport

    rec = tracer.recorder
    rec.counter("model.build_peak_rss_bytes").add(1024 * max(0, marks["build_peak_rss_kb"]))
    if out["final"] is not None:
        if w.path == "simulate":
            model = out["model"]
        else:
            model = direct_baseline(w, out["spec"], out["initial"], out["final"], tracer)
            replay_dir = str(Path(spec["scratch_dir"]) / "replay")
            shard_replay(w, out["spec"], out["initial"], out["final"], tracer, replay_dir)
        kernel_replay(model, out["initial"], out["final"], w.steps, tracer)
    report = TelemetryReport.from_recorder(
        rec,
        meta={"command": "perfbench", "workload": w.name, "seed": spec["seed"], "run_id": spec["run_id"]},
        producer="perfbench/job",
    )
    for entry in report.spans:
        entry["run"] = spec["run_id"]
    report.write_json(spec["report_path"])


def run_job(spec: dict) -> dict:
    """Run one job in this process; ``main`` is the fresh-interpreter entry."""
    t_main = _now()
    if spec["role"] == "golden":
        return run_golden(Workload(**spec["workload"]), spec["seed"])
    return run_user_path(spec, t_main)


def main(argv: list[str]) -> int:
    result = run_job(json.loads(argv[1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
