"""Runtime corruption detectors for lattice evolutions.

Three pluggable monitors, ordered by what they can see:

* :class:`ParityMonitor` — per-row parity/checksum tags of the stored
  lattice.  Catches corruption *at rest* (memory upsets between
  generations) and names the corrupted rows, enabling row-granular
  recomputation instead of a full rollback.
* :class:`ConservationMonitor` — exact mass and momentum drift against
  the gas's invariants (periodic boundary).  Catches *any* single bit
  flip in a conserved channel within one generation, because a flip
  changes the particle count by exactly ±1 and LGCA microdynamics are
  reversible — a wrong bit never heals itself.
* :class:`TMRVoter` — triple-modular-redundancy voting across three PE
  replicas.  Catches (and corrects, inline) faults inside the update
  computation itself, which no state-side monitor can attribute.

All monitors return :class:`Detection` records and never raise; policy
(rollback, abort) lives in :mod:`repro.resilience.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lgca.automaton import SiteModel
from repro.lgca.observables import conserved_totals
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "Detection",
    "row_parity_tags",
    "ParityMonitor",
    "ConservationMonitor",
    "FusedMonitor",
    "TMRVoter",
    "BandwidthMonitor",
]


@dataclass(frozen=True)
class Detection:
    """One monitor finding.

    Attributes
    ----------
    monitor:
        Which monitor fired (``"parity"``, ``"conservation"``, …).
    generation:
        Lattice generation the check ran at.
    detail:
        Human-readable description of what diverged.
    rows:
        Affected lattice rows when the monitor can localize (parity
        can; conservation cannot).
    """

    monitor: str
    generation: int
    detail: str
    rows: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "monitor": self.monitor,
            "generation": self.generation,
            "detail": self.detail,
            "rows": list(self.rows),
        }


def row_parity_tags(state: np.ndarray) -> np.ndarray:
    """Per-row integrity tags of a site-state frame or of its bit-planes.

    ``state`` is a ``(rows, cols)`` site field or ``(C, rows, W)``
    packed bit-planes (:func:`repro.lgca.bitplane.pack_state`, the shard
    checkpoint format).  The tag of a row is the uint64 sum of every
    word in it — its site bytes, or its plane words across all channels
    — in one vectorized pass over the frame, the budget that keeps
    whole-frame monitoring under the bench's 10% overhead ceiling.

    Site bytes are < 2^16, so their row sums never wrap; uint64 plane
    words do, and the sum is then taken modulo 2^64.  That still
    catches every single-word change: a word changed from ``a`` to
    ``b`` shifts the sum by ``b - a``, and since both are in
    ``[0, 2^64)``, ``0 < |b - a| < 2^64`` is never a multiple of 2^64.
    So every single-event corruption is caught and localized to its
    row; only a multi-word forgery with exactly cancelling deltas in
    one row aliases, which the single-event fault model excludes.
    """
    state = np.asarray(state)
    if state.ndim == 3:
        return state.sum(axis=(0, 2), dtype=np.uint64)
    return state.sum(axis=1, dtype=np.uint64)


class ParityMonitor:
    """Tag rows after each verified-good generation; verify on re-read."""

    name = "parity"

    def __init__(self) -> None:
        self._tags: np.ndarray | None = None

    def tag(self, state: np.ndarray) -> None:
        """Record tags for a frame known (or assumed) good."""
        self._tags = row_parity_tags(state)

    def check(self, state: np.ndarray, generation: int) -> list[Detection]:
        """Compare the frame against the last recorded tags."""
        if self._tags is None:
            return []
        tags = row_parity_tags(state)
        bad = np.nonzero(tags != self._tags)[0]
        if not bad.size:
            return []
        rows = tuple(int(r) for r in bad)
        return [
            Detection(
                monitor=self.name,
                generation=generation,
                detail=f"row parity mismatch in rows {list(rows)}",
                rows=rows,
            )
        ]


class ConservationMonitor:
    """Flag mass/momentum drift of a periodic (closed) lattice gas.

    With periodic boundaries both invariants are exact integers /
    exact algebraic sums, so the tolerance only absorbs float roundoff
    in the hexagonal momentum components.
    """

    name = "conservation"

    def __init__(self, model: SiteModel, momentum_atol: float = 1e-6):
        boundary = getattr(model, "boundary", "periodic")
        if boundary != "periodic":
            raise ValueError(
                "conservation monitoring needs a closed (periodic) lattice; "
                f"model has boundary={boundary!r}"
            )
        self.model = model
        self.momentum_atol = momentum_atol
        self._mass: int | None = None
        self._momentum: np.ndarray | None = None

    def arm(self, state: np.ndarray) -> None:
        """Record the invariants of the initial (trusted) state."""
        self._mass, self._momentum = conserved_totals(state, self.model.velocities)

    def rearm(self, state: np.ndarray) -> None:
        """Re-record invariants after a trusted restore (checkpoints)."""
        self.arm(state)

    def check(self, state: np.ndarray, generation: int) -> list[Detection]:
        """Compare the frame's invariants against the armed values."""
        if self._mass is None or self._momentum is None:
            return []
        detections = []
        mass, momentum = conserved_totals(state, self.model.velocities)
        if mass != self._mass:
            detections.append(
                Detection(
                    monitor=self.name,
                    generation=generation,
                    detail=f"mass drift: {self._mass} -> {mass} "
                    f"({mass - self._mass:+d} particles)",
                )
            )
        drift = float(np.abs(momentum - self._momentum).max())
        if drift > self.momentum_atol:
            detections.append(
                Detection(
                    monitor=self.name,
                    generation=generation,
                    detail=f"momentum drift |dp|={drift:.3e} "
                    f"exceeds {self.momentum_atol:.1e}",
                )
            )
        return detections


def _popcount(words: np.ndarray) -> np.ndarray:
    """Per-word particle counts; numpy's native popcount when present."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    lut = np.array([bin(w).count("1") for w in range(256)], dtype=np.uint8)
    return np.take(lut, words)


class FusedMonitor:
    """Hot-loop detector: light per-generation sweep, periodic full sweep.

    The two-pass parity + conservation configuration costs two LUT
    passes plus a histogram per generation — measurable against the
    automaton's highly vectorized step.  This monitor keeps the same
    detection guarantee at a fraction of the cost:

    * every generation (:meth:`observe`): total mass via a single
      popcount reduction — any single bit flip moves total mass by
      exactly ±1 and reversible microdynamics never heal it, so every
      single-event upset is still flagged within one generation — plus
      fresh per-row word-sum tags so :meth:`check_at_rest` stays
      available to callers that re-read frames from storage;
    * every ``sweep_interval`` generations, a full histogram sweep also
      compares exact momentum, catching mass-preserving word
      substitutions (a particle moved between channels) within a
      bounded window.

    Emitted detections reuse the ``"parity"`` / ``"conservation"``
    monitor names, so downstream classification is unchanged.

    ``recorder`` (optional) measures the monitor itself: per-generation
    check cost on the ``resilience.monitor.observe_seconds`` timer,
    light/full sweep counters, and one ``resilience.detection`` event
    per finding — the overhead numbers in ``docs/OBSERVABILITY.md``
    come from these.  Detections are returned exactly as before either
    way.
    """

    def __init__(
        self,
        model: SiteModel,
        momentum_atol: float = 1e-6,
        sweep_interval: int = 4,
        recorder: Recorder | None = None,
    ):
        if sweep_interval < 1:
            raise ValueError(f"sweep_interval={sweep_interval} must be >= 1")
        # Shares the periodic-boundary requirement (and raises the same
        # error) as the full monitor it embeds for the periodic sweep.
        self._full = ConservationMonitor(model, momentum_atol=momentum_atol)
        self.model = model
        self.sweep_interval = sweep_interval
        self._mass: int | None = None
        self._tags: np.ndarray | None = None
        self._since_sweep = 0
        rec = recorder if recorder is not None else NULL_RECORDER
        self._recorder = rec
        self._clk = rec.clock
        self._observe_timer = rec.timer("resilience.monitor.observe_seconds")
        self._light_sweeps = rec.counter("resilience.monitor.light_sweeps")
        self._full_sweeps = rec.counter("resilience.monitor.full_sweeps")
        self._detections_c = rec.counter("resilience.monitor.detections")

    def arm(self, state: np.ndarray) -> None:
        """Record invariants and tags of the initial (trusted) state."""
        self._full.arm(state)
        self._mass = int(_popcount(np.asarray(state)).sum(dtype=np.int64))
        self._tags = row_parity_tags(state)
        self._since_sweep = 0

    def rearm(self, state: np.ndarray) -> None:
        """Re-record after a trusted restore (checkpoints)."""
        self.arm(state)

    def observe(self, state: np.ndarray, generation: int) -> list[Detection]:
        """Post-step check: light mass sweep, periodic full sweep.

        Also refreshes the per-row tags, so one call per generation
        keeps :meth:`check_at_rest` usable between generations.
        """
        if self._mass is None:
            return []
        t_start = self._clk()
        detections: list[Detection] = []
        self._since_sweep += 1
        if self._since_sweep >= self.sweep_interval:
            self._since_sweep = 0
            self._full_sweeps.add(1)
            detections.extend(self._full.check(state, generation))
        else:
            self._light_sweeps.add(1)
            mass = int(_popcount(np.asarray(state)).sum(dtype=np.int64))
            if mass != self._mass:
                detections.append(
                    Detection(
                        monitor="conservation",
                        generation=generation,
                        detail=f"mass drift: {self._mass} -> {mass} "
                        f"({mass - self._mass:+d} particles)",
                    )
                )
        self._tags = row_parity_tags(state)
        self._observe_timer.record(self._clk() - t_start)
        if detections:
            self._detections_c.add(len(detections))
            for d in detections:
                self._recorder.event(
                    "resilience.detection",
                    monitor=d.monitor,
                    generation=d.generation,
                    detail=d.detail,
                )
        return detections

    def check_at_rest(
        self, state: np.ndarray, generation: int
    ) -> list[Detection]:
        """Verify a frame against the tags of the last observed state."""
        if self._tags is None:
            return []
        tags = row_parity_tags(state)
        bad = np.nonzero(tags != self._tags)[0]
        if not bad.size:
            return []
        rows = tuple(int(r) for r in bad)
        return [
            Detection(
                monitor="parity",
                generation=generation,
                detail=f"row parity mismatch in rows {list(rows)}",
                rows=rows,
            )
        ]


class TMRVoter:
    """Majority-vote three PE replicas, one of which may be faulty.

    Wraps a (possibly fault-injecting) transform as replica 0 against
    two clean replicas; the bitwise majority of three words corrects any
    fault confined to one replica, and every disagreement is recorded as
    a :class:`Detection` — TMR is the one monitor that both detects
    *and* corrects in the same clock.
    """

    name = "tmr"

    def __init__(self, faulty_hook):
        self.faulty_hook = faulty_hook
        self.detections: list[Detection] = []

    @staticmethod
    def vote(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Bitwise majority of three equally-shaped word arrays."""
        return (a & b) | (a & c) | (b & c)

    def as_post_collide(self):
        """A :data:`~repro.engines.pe.PostCollideHook` running the vote.

        The stage hands us the *clean* collided values (replicas 1, 2);
        replica 0 passes through the faulty transform.  The returned
        values are the vote — i.e. clean unless two replicas fail
        together, which the single-event fault model excludes.
        """

        def hook(values: np.ndarray, r: np.ndarray, c: np.ndarray, t: int) -> np.ndarray:
            replica0 = np.asarray(self.faulty_hook(values.copy(), r, c, t))
            voted = self.vote(replica0, values, values)
            disagree = np.nonzero(replica0 != values)[0]
            if disagree.size:
                rows = tuple(sorted({int(np.asarray(r).ravel()[i]) for i in disagree[:8]}))
                self.detections.append(
                    Detection(
                        monitor=self.name,
                        generation=t,
                        detail=f"replica disagreement at {disagree.size} site(s), "
                        "outvoted 2-to-1",
                        rows=rows,
                    )
                )
            return voted

        return hook


class BandwidthMonitor:
    """Flag host-interface bandwidth brown-outs.

    Compares a transfer's realized bandwidth factor against a floor;
    a brown-out is a *performance* fault — data stays intact, so the
    recovery action is accounting (stretched wall clock), not rollback.
    """

    name = "bandwidth"

    def __init__(self, floor: float = 0.9):
        if not 0.0 < floor <= 1.0:
            raise ValueError(f"floor={floor} must be in (0, 1]")
        self.floor = floor

    def check_transfer(
        self, realized_factor: float, generation: int
    ) -> list[Detection]:
        """One detection when the realized factor dips below the floor."""
        if realized_factor >= self.floor:
            return []
        return [
            Detection(
                monitor=self.name,
                generation=generation,
                detail=f"host bandwidth at {realized_factor:.0%} of nominal "
                f"(floor {self.floor:.0%})",
            )
        ]
