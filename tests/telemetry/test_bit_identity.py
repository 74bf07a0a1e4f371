"""Recording must never change the physics: bit-identity on vs off.

Every instrumented layer promises that attaching a collecting recorder
is a pure side channel.  These tests run each kernel backend and each
registered engine twice — once under the default null recorder, once
under an ``InMemoryRecorder`` — and require bit-identical final states,
while also checking that the instrumented run really did record
something (so the identity is not vacuous).
"""

import numpy as np
import pytest

from repro import machines
from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.runtime import ModelSpec
from repro.telemetry import InMemoryRecorder

GENS = 8

def evolve(spec, backend, recorder=None):
    auto = LatticeGasAutomaton(
        spec.build(),
        spec.initial_state(0.3, 42),
        backend=backend,
        recorder=recorder,
    )
    auto.run(GENS)
    return auto.state


class TestKernelBackends:
    @pytest.mark.parametrize("kind", ["hpp", "fhp6"])
    @pytest.mark.parametrize("backend", ["reference", "bitplane"])
    def test_recording_is_bit_identical(self, kind, backend):
        spec = ModelSpec(kind=kind, rows=24, cols=16, boundary="periodic")
        rec = InMemoryRecorder()
        silent = evolve(spec, backend)
        recorded = evolve(spec, backend, recorder=rec)
        assert np.array_equal(silent, recorded)
        # The instrumented run actually measured the kernel.
        assert rec.counter(f"kernel.{backend}.generations").value == GENS
        assert rec.timers  # at least one kernel timer collected


class TestEngines:
    ROWS, COLS = 16, 16

    def frame(self):
        return uniform_random_state(
            self.ROWS, self.COLS, 4, 0.3, np.random.default_rng(7)
        )

    @pytest.mark.parametrize("name", machines.names())
    def test_recording_is_bit_identical(self, name):
        model = HPPModel(self.ROWS, self.COLS, boundary="null")
        frame = self.frame()
        rec = InMemoryRecorder()
        silent_state, silent_stats = machines.create(name, model).run(frame, GENS)
        state, stats = machines.create(name, model, recorder=rec).run(frame, GENS)
        assert np.array_equal(silent_state, state)
        assert stats.to_dict() == silent_stats.to_dict()
        # Stats were derived from the recorder's counters.
        assert rec.counter("engine.ticks").value == stats.ticks
        assert rec.counter("engine.site_updates").value == stats.site_updates
        spans = [s.name for s in rec.spans]
        assert "engine.run" in spans and "engine.pass" in spans
