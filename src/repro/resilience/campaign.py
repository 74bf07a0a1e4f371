"""Fault-injection campaign runner.

A campaign sweeps fault kind × location × generation over small lattice
runs and classifies every trial by comparing the faulted run against a
golden (fault-free) evolution:

* ``detected-corrected`` — a monitor fired and the final state still
  matches the golden run (recovery worked, or the anomaly was purely
  a performance event like a brown-out);
* ``detected-aborted`` — monitors detected an unrecoverable fault and
  the run stopped cleanly instead of emitting wrong data;
* ``detected-uncorrected`` — detected, recovery attempted, output still
  wrong (should be empty; its presence is a recovery bug);
* ``masked`` — the fault never changed an observable bit (e.g. a
  stuck-at forcing a bit to the value it already had);
* ``silent-data-corruption`` — the final state is wrong and nothing
  noticed.  The whole point of the subsystem is that this bucket is
  **empty with monitors on and populated with monitors off**, which the
  CI smoke job asserts.

Everything is seeded: the same :class:`CampaignConfig` produces a
byte-identical JSON report on every run (no clocks, no unseeded RNG,
``sort_keys`` serialization).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.engines.memory import MainMemory
from repro.engines.pe import make_rule
from repro.engines.pipeline import PipelineStage
from repro.machines import create as create_machine
from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.resilience.faults import FaultInjector, FaultSpec, UnreliableRowChannel
from repro.resilience.monitors import Detection, TMRVoter
from repro.resilience.recovery import (
    BackoffPolicy,
    ReliableRowTransport,
    ResilientAutomatonRunner,
    assemble_raw,
)
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError, FaultDetectedError
from repro.util.tables import Table
from repro.util.timeout import WallClockTimeout, wall_clock_limit

__all__ = [
    "OUTCOMES",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "CampaignConfig",
    "Trial",
    "TrialResult",
    "build_trials",
    "run_trial",
    "run_campaign",
    "report_json",
    "render_report",
]

SCHEMA_NAME = "repro-fault-campaign"
SCHEMA_VERSION = 2

#: Classification buckets, in report order.  ``aborted`` is the runner's
#: own self-defense: a trial whose injection stalled the run past the
#: configured wall-clock limit was killed by the campaign's timeout
#: guard rather than classified by comparison.
OUTCOMES = (
    "detected-corrected",
    "detected-aborted",
    "detected-uncorrected",
    "masked",
    "silent-data-corruption",
    "aborted",
)


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one campaign (all defaulted for the CI smoke run)."""

    seed: int = 0
    rows: int = 16
    cols: int = 16
    generations: int = 8
    density: float = 0.3
    checkpoint_interval: int = 4
    monitors: bool = True
    trial_timeout_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.rows % 2:
            raise ConfigError(
                f"rows={self.rows} must be even (periodic FHP trials)"
            )
        if self.rows < 6 or self.cols < 5:
            raise ConfigError(
                f"rows={self.rows}, cols={self.cols} is too small: fault sites "
                "are drawn from [2, n-2), so rows must be >= 6 and cols >= 5"
            )
        if self.generations < 4:
            raise ConfigError(
                f"generations={self.generations} must be >= 4 so faults can "
                "fire away from the run's edges"
            )
        if not 0.0 < self.density < 1.0:
            raise ConfigError(f"density={self.density} must be in (0, 1)")
        if self.trial_timeout_seconds <= 0:
            raise ConfigError(
                f"trial_timeout_seconds={self.trial_timeout_seconds} "
                "must be positive"
            )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "seed": self.seed,
            "rows": self.rows,
            "cols": self.cols,
            "generations": self.generations,
            "density": self.density,
            "checkpoint_interval": self.checkpoint_interval,
            "monitors": self.monitors,
            "trial_timeout_seconds": self.trial_timeout_seconds,
        }


@dataclass(frozen=True)
class Trial:
    """One campaign point: the fault(s) to inject and the monitor profile.

    ``profile`` names the detection/recovery mechanism the monitored arm
    uses — the taxonomy's monitor/recovery matrix, one row per trial:

    ==================== ============================================
    profile              mechanism
    ==================== ============================================
    parity+conservation  row tags + invariants on the automaton, row
                         recompute / checkpoint rollback
    conservation-only    invariants alone, checkpoint rollback+replay
    tmr                  triple-modular-redundancy vote at the PE
    duplex               tickwise-vs-vectorized lockstep comparison,
                         recompute on mismatch
    transport            seq/CRC tags + retransmit with backoff
    ==================== ============================================
    """

    name: str
    specs: tuple[FaultSpec, ...]
    profile: str


@dataclass(frozen=True)
class TrialResult:
    """Classification and evidence for one executed trial."""

    trial: Trial
    outcome: str
    landed: bool
    aborted: bool
    matches_golden: bool
    detections: tuple[Detection, ...]
    corrections: int = 0
    notes: str = ""

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "trial": self.trial.name,
            "profile": self.trial.profile,
            "faults": [s.to_dict() for s in self.trial.specs],
            "outcome": self.outcome,
            "landed": self.landed,
            "aborted": self.aborted,
            "matches_golden": self.matches_golden,
            "detections": [d.to_dict() for d in self.detections],
            "corrections": self.corrections,
            "notes": self.notes,
        }


def _classify(
    *, aborted: bool, landed: bool, detected: bool, matches_golden: bool
) -> str:
    if aborted:
        return "detected-aborted"
    if not landed:
        return "masked"
    if detected and matches_golden:
        return "detected-corrected"
    if detected:
        return "detected-uncorrected"
    if matches_golden:
        return "masked"
    return "silent-data-corruption"


def build_trials(config: CampaignConfig) -> list[Trial]:
    """The deterministic fault sweep for ``config`` (seeded placement).

    Covers every (kind, location) pair the injector implements, with
    sites drawn from the lattice interior and generations from the run's
    interior so edge effects never mask a fault by construction.
    """
    rng = np.random.default_rng(config.seed)

    def site() -> tuple[int, int, int]:
        r = int(rng.integers(2, config.rows - 2))
        c = int(rng.integers(2, config.cols - 2))
        ch = int(rng.integers(0, 6))
        return r, c, ch

    def gen() -> int:
        return int(rng.integers(1, config.generations - 1))

    trials: list[Trial] = []

    def add(name: str, profile: str, *specs: FaultSpec) -> None:
        trials.append(Trial(name=name, specs=tuple(specs), profile=profile))

    r, c, ch = site()
    add(
        "mem-flip",
        "parity+conservation",
        FaultSpec("mem-flip", "bit_flip", "memory", gen(), row=r, col=c, channel=ch),
    )
    r, c, ch = site()
    add(
        "mem-flip-rollback",
        "conservation-only",
        FaultSpec(
            "mem-flip-rollback", "bit_flip", "memory", gen(), row=r, col=c, channel=ch
        ),
    )
    r, c, ch = site()
    add(
        "mem-stuck",
        "parity+conservation",
        FaultSpec(
            "mem-stuck",
            "stuck_at",
            "memory",
            gen(),
            row=r,
            col=c,
            channel=ch,
            stuck_value=1,
            duration=2,
        ),
    )
    r, c, ch = site()
    add(
        "pe-flip",
        "tmr",
        FaultSpec("pe-flip", "bit_flip", "pe", gen(), row=r, col=c, channel=ch),
    )
    _, _, ch = site()
    add(
        "pe-stuck",
        "tmr",
        FaultSpec(
            "pe-stuck",
            "stuck_at",
            "pe",
            gen(),
            channel=ch,
            stuck_value=0,
            duration=2,
        ),
    )
    r, c, ch = site()
    add(
        "sr-flip",
        "duplex",
        FaultSpec("sr-flip", "bit_flip", "shiftreg", gen(), row=r, col=c, channel=ch),
    )
    g = gen()
    row = int(rng.integers(1, config.rows - 1))
    add("host-drop", "transport", FaultSpec("host-drop", "drop_row", "host", g, row=row))
    g = gen()
    row = int(rng.integers(1, config.rows - 1))
    add(
        "host-dup",
        "transport",
        FaultSpec("host-dup", "duplicate_row", "host", g, row=row),
    )
    g = gen()
    row = int(rng.integers(1, config.rows - 1))
    _, c, ch = site()
    add(
        "host-flip",
        "transport",
        FaultSpec("host-flip", "bit_flip", "host", g, row=row, col=c, channel=ch),
    )
    g = gen()
    row = int(rng.integers(1, config.rows - 1))
    add(
        "host-stall",
        "transport",
        # The stall surfaces on retransmit, so it rides with a drop.
        FaultSpec("host-stall-drop", "drop_row", "host", g, row=row),
        FaultSpec("host-stall", "stall", "host", g, duration=2),
    )
    g = gen()
    row = int(rng.integers(1, config.rows - 1))
    add(
        "host-stall-hard",
        "transport",
        FaultSpec("host-stall-hard-drop", "drop_row", "host", g, row=row),
        # Longer than the retry budget: the transport must abort.
        FaultSpec("host-stall-hard", "stall", "host", g, duration=16),
    )
    g = gen()
    add(
        "host-brownout",
        "transport",
        FaultSpec(
            "host-brownout", "brownout", "host", g, duration=1, bandwidth_factor=0.5
        ),
    )
    return trials


def _gas_model(config: CampaignConfig, boundary: str) -> FHPModel:
    return FHPModel(
        config.rows, config.cols, boundary=boundary, chirality="alternate"
    )


def _initial_state(config: CampaignConfig) -> np.ndarray:
    rng = np.random.default_rng(config.seed + 0x5EED)
    return uniform_random_state(config.rows, config.cols, 6, config.density, rng)


def _run_memory_trial(
    config: CampaignConfig, trial: Trial, monitored: bool
) -> TrialResult:
    """Memory faults go through the automaton + MainMemory read path."""
    model = _gas_model(config, "periodic")
    init = _initial_state(config)
    golden = LatticeGasAutomaton(model, init).run(config.generations)
    injector = FaultInjector(trial.specs)
    runner = ResilientAutomatonRunner(
        LatticeGasAutomaton(model, init),
        injector,
        use_parity=monitored and trial.profile != "conservation-only",
        use_conservation=monitored,
        checkpoint_interval=config.checkpoint_interval,
        memory=MainMemory(),
    )
    final = runner.run(config.generations)
    rep = runner.report
    return TrialResult(
        trial=trial,
        outcome=_classify(
            aborted=rep.aborted,
            landed=bool(injector.landed),
            detected=rep.detected,
            matches_golden=bool(np.array_equal(final, golden)) and not rep.aborted,
        ),
        landed=bool(injector.landed),
        aborted=rep.aborted,
        matches_golden=bool(np.array_equal(final, golden)) and not rep.aborted,
        detections=tuple(rep.detections),
        corrections=rep.corrections,
        notes=f"rollbacks={rep.rollbacks} row_recomputes={rep.row_recomputes}",
    )


def _run_pe_trial(
    config: CampaignConfig, trial: Trial, monitored: bool
) -> TrialResult:
    """PE faults go through the serial pipeline engine's collide hook."""
    model = _gas_model(config, "null")
    init = _initial_state(config)
    golden, _ = create_machine("serial", model).run(init, config.generations)
    injector = FaultInjector(trial.specs)
    hook = injector.post_collide_hook()
    detections: tuple[Detection, ...] = ()
    if monitored:
        voter = TMRVoter(hook)
        engine = create_machine(
            "serial", model, post_collide=voter.as_post_collide()
        )
        final, _ = engine.run(init, config.generations)
        detections = tuple(voter.detections)
    else:
        engine = create_machine("serial", model, post_collide=hook)
        final, _ = engine.run(init, config.generations)
    matches = bool(np.array_equal(final, golden))
    return TrialResult(
        trial=trial,
        outcome=_classify(
            aborted=False,
            landed=bool(injector.landed),
            detected=bool(detections),
            matches_golden=matches,
        ),
        landed=bool(injector.landed),
        aborted=False,
        matches_golden=matches,
        detections=detections,
        corrections=len(detections) if monitored else 0,
    )


def _run_shiftreg_trial(
    config: CampaignConfig, trial: Trial, monitored: bool
) -> TrialResult:
    """Delay-line faults: tickwise stage, duplex-checked when monitored.

    The monitored arm runs the tick-accurate stage in lockstep with the
    vectorized stage (dual modular redundancy — the delay line is inside
    the tickwise path only, so a flip there makes the two disagree);
    on mismatch it recomputes the generation, which succeeds because a
    transient flip does not recur.
    """
    model = _gas_model(config, "null")
    init = _initial_state(config)
    rule = make_rule(model)
    clean_stage = PipelineStage(rule)
    injector = FaultInjector(trial.specs)
    golden = init.ravel().copy()
    for g in range(config.generations):
        golden = clean_stage.process(golden, g)
    golden = golden.copy()  # detach from the stage's internal double buffer
    stream = init.ravel().copy()
    detections: list[Detection] = []
    corrections = 0
    for g in range(config.generations):
        transform = injector.shiftreg_transform(config.cols, g)
        stage = (
            PipelineStage(rule, shiftreg_transform=transform)
            if transform is not None
            else clean_stage
        )
        out = stage.process_tickwise(stream, g)
        if monitored:
            reference = clean_stage.process(stream, g)
            if not np.array_equal(out, reference):
                bad = np.nonzero(out != reference)[0]
                rows = tuple(sorted({int(i) // config.cols for i in bad}))
                detections.append(
                    Detection(
                        monitor="duplex",
                        generation=g,
                        detail=f"tickwise/vectorized mismatch at "
                        f"{bad.size} site(s)",
                        rows=rows,
                    )
                )
                # Recompute: the transient already fired, so a clean
                # tickwise pass reproduces the reference bit-exactly.
                out = clean_stage.process_tickwise(stream, g)
                corrections += 1
        stream = out
    matches = bool(np.array_equal(stream, golden))
    return TrialResult(
        trial=trial,
        outcome=_classify(
            aborted=False,
            landed=bool(injector.landed),
            detected=bool(detections),
            matches_golden=matches,
        ),
        landed=bool(injector.landed),
        aborted=False,
        matches_golden=matches,
        detections=tuple(detections),
        corrections=corrections,
    )


def _run_host_trial(
    config: CampaignConfig, trial: Trial, monitored: bool
) -> TrialResult:
    """Host faults hit one frame transfer in the middle of a run."""
    model = _gas_model(config, "periodic")
    init = _initial_state(config)
    golden = LatticeGasAutomaton(model, init).run(config.generations)
    transfer_gen = trial.specs[0].generation
    injector = FaultInjector(trial.specs)
    auto = LatticeGasAutomaton(model, init)
    auto.run(transfer_gen)
    channel = UnreliableRowChannel(auto.state, injector, generation=transfer_gen)
    detections: tuple[Detection, ...] = ()
    aborted = False
    notes = ""
    if monitored:
        transport = ReliableRowTransport(channel, policy=BackoffPolicy())
        try:
            frame, treport = transport.receive()
            detections = tuple(treport.detections)
            notes = (
                f"retransmits={treport.retransmits} "
                f"bandwidth={treport.realized_bandwidth_factor:.2f}"
            )
            auto.state = frame
        except FaultDetectedError as exc:
            aborted = True
            detections = tuple(exc.detections)
            notes = str(exc)
    else:
        auto.state = assemble_raw(channel)
    if not aborted:
        auto.run(config.generations - transfer_gen)
    matches = (not aborted) and bool(np.array_equal(auto.state, golden))
    return TrialResult(
        trial=trial,
        outcome=_classify(
            aborted=aborted,
            landed=bool(injector.landed),
            detected=bool(detections),
            matches_golden=matches,
        ),
        landed=bool(injector.landed),
        aborted=aborted,
        matches_golden=matches,
        detections=detections,
        corrections=len(detections) if monitored and not aborted else 0,
        notes=notes,
    )


_RUNNERS = {
    "memory": _run_memory_trial,
    "pe": _run_pe_trial,
    "shiftreg": _run_shiftreg_trial,
    "host": _run_host_trial,
}


def run_trial(config: CampaignConfig, trial: Trial) -> TrialResult:
    """Execute one trial under the campaign's monitor setting.

    Every trial runs under a wall-clock guard
    (:func:`repro.util.timeout.wall_clock_limit`): an injection that
    stalls the run — a hang in a recovery path, a retransmit loop that
    never converges — is killed at ``trial_timeout_seconds`` and
    classified ``aborted`` instead of hanging the whole campaign.  The
    note records the configured limit (not the elapsed time) so the
    report stays byte-reproducible.
    """
    location = trial.specs[0].location
    try:
        with wall_clock_limit(config.trial_timeout_seconds):
            return _RUNNERS[location](config, trial, config.monitors)
    except WallClockTimeout:
        return TrialResult(
            trial=trial,
            outcome="aborted",
            landed=False,
            aborted=True,
            matches_golden=False,
            detections=(),
            notes=(
                f"trial exceeded the wall-clock limit of "
                f"{config.trial_timeout_seconds:g}s and was aborted"
            ),
        )


def run_campaign(
    config: CampaignConfig | None = None,
    recorder: Recorder | None = None,
) -> dict[str, object]:
    """Run the full sweep; returns the versioned report dict.

    The report is deterministic for a given config — serialize with
    ``json.dumps(report, sort_keys=True)`` for a byte-stable artifact.
    When a ``recorder`` is supplied, per-trial wall time, outcome
    counters, and one ``faults.trial`` event per trial are attached to
    it as a side channel; the report itself is built purely from the
    trial results, so telemetry never perturbs its bytes.
    """
    config = config or CampaignConfig()
    rec = recorder if recorder is not None else NULL_RECORDER
    clk = rec.clock
    trial_timer = rec.timer("faults.trial_seconds")
    trials_c = rec.counter("faults.trials")
    detections_c = rec.counter("faults.detections")
    results: list[TrialResult] = []
    for trial in build_trials(config):
        t_start = clk()
        result = run_trial(config, trial)
        trial_timer.record(clk() - t_start)
        trials_c.add(1)
        detections_c.add(len(result.detections))
        rec.event(
            "faults.trial",
            trial=trial.name,
            profile=trial.profile,
            outcome=result.outcome,
            landed=result.landed,
            detections=len(result.detections),
            corrections=result.corrections,
        )
        results.append(result)
    summary = {outcome: 0 for outcome in OUTCOMES}
    for result in results:
        summary[result.outcome] += 1
        rec.counter(f"faults.outcome.{result.outcome}").add(1)
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "trials": [r.to_dict() for r in results],
        "summary": summary,
    }


def report_json(report: dict[str, object]) -> str:
    """The canonical byte-stable serialization of a campaign report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_report(report: dict[str, object]) -> str:
    """Fixed-width text rendering of a campaign report."""
    config = report["config"]
    monitors = "on" if config["monitors"] else "off"
    table = Table(
        title=(
            f"Fault campaign: seed={config['seed']} "
            f"{config['rows']}x{config['cols']} "
            f"G={config['generations']} monitors={monitors}"
        ),
        columns=["trial", "kind", "location", "gen", "outcome", "det", "notes"],
    )
    for entry in report["trials"]:
        primary = entry["faults"][-1]
        table.add_row(
            entry["trial"],
            primary["kind"],
            primary["location"],
            primary["generation"],
            entry["outcome"],
            len(entry["detections"]),
            entry["notes"],
        )
    lines = [table.render(), ""]
    summary = report["summary"]
    lines.append(
        "summary: "
        + "  ".join(f"{outcome}={summary[outcome]}" for outcome in OUTCOMES)
    )
    return "\n".join(lines) + "\n"
