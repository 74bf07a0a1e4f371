"""Stepper contract tests and the bitplane/reference equivalence properties.

The load-bearing guarantee of the backend system is that every backend
computes the *same evolution* — the hypothesis properties here drive
both backends for several generations over random states, every
boundary condition, obstacle maps, and every chirality policy, and
require bit-identical trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.lgca.backends import BACKENDS, KernelStepper, make_stepper
from repro.lgca.bitplane import num_words, pack_state, unpack_state
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.telemetry import InMemoryRecorder
from repro.util.errors import ConfigError

GENERATIONS = 8  # enough for propagation to wrap small lattices


class TestRegistry:
    def test_unknown_backend_lists_choices_sorted(self):
        match = "unknown backend 'vectorized'; available: bitplane, reference"
        with pytest.raises(ConfigError, match=match):
            make_stepper(HPPModel(4, 4), backend="vectorized")

    def test_make_stepper_satisfies_protocol(self):
        model = HPPModel(4, 4)
        for name, cls in BACKENDS.items():
            stepper = make_stepper(model, backend=name)
            assert isinstance(stepper, KernelStepper) and type(stepper) is cls

    def test_automaton_rejects_unknown_backend(self):
        model = HPPModel(4, 4)
        state = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="unknown backend"):
            LatticeGasAutomaton(model, state, backend="nope")



def _trajectories_equal(model, state, *, obstacles=None, seed=None):
    """Step both backends side by side; assert bit-identity each generation."""

    def rng():
        return np.random.default_rng(seed) if seed is not None else None

    ref = LatticeGasAutomaton(model, state, obstacles=obstacles, rng=rng())
    bit = LatticeGasAutomaton(
        model, state, obstacles=obstacles, rng=rng(), backend="bitplane"
    )
    for t in range(GENERATIONS):
        np.testing.assert_array_equal(
            ref.step(), bit.step(), err_msg=f"diverged at generation {t}"
        )
    # the block-run path packs once and steps in plane space throughout
    ref2 = LatticeGasAutomaton(model, state, obstacles=obstacles, rng=rng())
    bit2 = LatticeGasAutomaton(
        model, state, obstacles=obstacles, rng=rng(), backend="bitplane"
    )
    np.testing.assert_array_equal(ref2.run(GENERATIONS), bit2.run(GENERATIONS))


def _state(seed, rows, cols, channels, density=0.35):
    return uniform_random_state(
        rows, cols, channels, density, np.random.default_rng(seed)
    )


# Sizes straddle the 64-column word boundary: below one word, exact,
# one over, and multi-word with a partial tail.
col_strategy = st.sampled_from([3, 17, 63, 64, 65, 100, 130])
boundary_strategy = st.sampled_from(["periodic", "null", "reflecting"])


class TestBitplaneEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(2, 12),
        cols=col_strategy,
        boundary=boundary_strategy,
    )
    def test_hpp(self, seed, rows, cols, boundary):
        model = HPPModel(rows, cols, boundary=boundary)
        _trajectories_equal(model, _state(seed, rows, cols, 4))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([2, 4, 6, 10]),
        cols=col_strategy,
        boundary=boundary_strategy,
        rest=st.booleans(),
    )
    def test_fhp_alternate(self, seed, rows, cols, boundary, rest):
        model = FHPModel(rows, cols, boundary=boundary, rest_particles=rest)
        _trajectories_equal(model, _state(seed, rows, cols, model.num_channels))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        chirality=st.sampled_from(["left", "right"]),
    )
    def test_fhp_fixed_chirality(self, seed, chirality):
        model = FHPModel(6, 65, chirality=chirality)
        _trajectories_equal(model, _state(seed, 6, 65, 6))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rng_seed=st.integers(0, 2**31 - 1),
    )
    def test_fhp_random_chirality(self, seed, rng_seed):
        """Both backends must consume the RNG stream identically."""
        model = FHPModel(6, 70, chirality="random")
        _trajectories_equal(model, _state(seed, 6, 70, 6), seed=rng_seed)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fhp_saturated(self, seed):
        model = FHPModel(6, 66, rest_particles=True, saturated=True)
        _trajectories_equal(model, _state(seed, 6, 66, 7))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        obstacle_seed=st.integers(0, 2**31 - 1),
        boundary=boundary_strategy,
    )
    def test_obstacles(self, seed, obstacle_seed, boundary):
        rows, cols = 8, 67
        mask = np.random.default_rng(obstacle_seed).random((rows, cols)) < 0.15
        model = HPPModel(rows, cols, boundary=boundary)
        _trajectories_equal(model, _state(seed, rows, cols, 4),
                            obstacles=ObstacleMap(mask))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fhp_obstacles(self, seed):
        rows, cols = 8, 64
        mask = np.random.default_rng(seed + 1).random((rows, cols)) < 0.15
        model = FHPModel(rows, cols, rest_particles=True)
        _trajectories_equal(model, _state(seed, rows, cols, 7),
                            obstacles=ObstacleMap(mask))


#: Column counts straddling the 64-column word boundary.
CONTRACT_COLS = (3, 63, 64, 65, 130)


def _fhp7(cols):
    return FHPModel(6, cols, rest_particles=True), _state(cols, 6, cols, 7)


def _arrays(obj):
    """Every array an object holds as an attribute."""
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


class TestStepperContracts:
    """write / advance / read, the one contract of every backend."""

    def test_reference_run_does_not_mutate_input(self):
        for cols in CONTRACT_COLS:
            model, state = _fhp7(cols)
            before = state.copy()
            make_stepper(model).run(state, 5)
            np.testing.assert_array_equal(state, before, err_msg=f"cols={cols}")

    def test_bitplane_run_does_not_mutate_input(self):
        for cols in CONTRACT_COLS:
            model, state = _fhp7(cols)
            before = state.copy()
            make_stepper(model, backend="bitplane").run(state, 5)
            np.testing.assert_array_equal(state, before, err_msg=f"cols={cols}")

    def test_read_never_shares_memory(self):
        for backend in BACKENDS:
            for cols in CONTRACT_COLS:
                model, state = _fhp7(cols)
                stepper = make_stepper(model, backend=backend)
                ran = stepper.run(state, 2)
                reads = [ran, stepper.read(), stepper.read(slice(1, 3))]
                held = _arrays(stepper)
                if backend == "bitplane":
                    held += _arrays(stepper.kernel)
                for i, out in enumerate(reads):
                    others = [state, *held, *reads[i + 1 :]]
                    assert not any(np.shares_memory(out, a) for a in others), (backend, cols)
                reads[1][...] = 0  # mutating a read leaves the held lattice alone
                np.testing.assert_array_equal(stepper.read(), ran)

    def test_write_read_round_trips(self):
        for backend in BACKENDS:
            for cols in CONTRACT_COLS:
                model, state = _fhp7(cols)
                stepper = make_stepper(model, backend=backend)
                stepper.write(slice(None), state)
                np.testing.assert_array_equal(stepper.read(), state)
                block = _state(cols + 1, 2, cols, 7)
                stepper.write(slice(2, 4), block)
                np.testing.assert_array_equal(stepper.read(slice(2, 4)), block)
                expected = state.copy()
                expected[2:4] = block
                np.testing.assert_array_equal(
                    stepper.read(), expected, err_msg=f"{backend} cols={cols}"
                )

    def test_write_rejects_bad_rows(self):
        for backend in BACKENDS:
            model, _ = _fhp7(65)
            stepper = make_stepper(model, backend=backend)
            with pytest.raises(ValueError, match="block"):
                stepper.write(slice(0, 2), np.zeros((3, 65), dtype=np.uint8))
            with pytest.raises(ValueError, match="block"):
                stepper.write(slice(0, 2), np.full((2, 65), 128, dtype=np.uint8))
            with pytest.raises(ValueError, match="shape"):
                stepper.write(slice(None), np.zeros((5, 65), dtype=np.uint8))

    def test_write_planes_read_planes_round_trip(self):
        """Packed rows in and out: the one format of halos and checkpoints."""
        for backend in BACKENDS:
            for cols in CONTRACT_COLS:
                model, state = _fhp7(cols)
                stepper = make_stepper(model, backend=backend)
                stepper.write(slice(None), state)
                planes = stepper.read_planes()
                assert planes.dtype == np.uint64
                np.testing.assert_array_equal(planes, pack_state(state, 7))
                block = pack_state(_state(cols + 1, 2, cols, 7), 7)
                stepper.write_planes(slice(2, 4), block)
                np.testing.assert_array_equal(stepper.read_planes(slice(2, 4)), block)
                expected = state.copy()
                expected[2:4] = unpack_state(block, cols)
                block[:] = 0  # the stepper keeps no reference to its input
                np.testing.assert_array_equal(
                    stepper.read(), expected, err_msg=f"{backend} cols={cols}"
                )

    def test_write_planes_rejects_bad_shapes(self):
        for backend in BACKENDS:
            for cols in CONTRACT_COLS:
                model, state = _fhp7(cols)
                stepper = make_stepper(model, backend=backend)
                stepper.write(slice(None), state)
                w = num_words(cols)
                for bad in (
                    np.zeros((7, 3, w), dtype=np.uint64),  # too many rows
                    np.zeros((6, 2, w), dtype=np.uint64),  # too few channels
                    np.zeros((7, 2, w + 1), dtype=np.uint64),  # too many words
                    np.zeros((7, 2 * cols), dtype=np.uint8),  # site rows
                    np.zeros((7, 2, w), dtype=np.uint8),  # not words
                ):
                    with pytest.raises(ValueError, match="planes"):
                        stepper.write_planes(slice(0, 2), bad)
                np.testing.assert_array_equal(stepper.read(), state)

    def test_run_equals_repeated_step(self):
        for backend in BACKENDS:
            for cols in CONTRACT_COLS:
                model, state = _fhp7(cols)
                stepper = make_stepper(model, backend=backend)
                stepper.write(slice(None), state)
                for t in range(5):
                    stepper.advance(1, t)
                ran = make_stepper(model, backend=backend).run(state, 5)
                np.testing.assert_array_equal(
                    stepper.read(), ran, err_msg=f"{backend} cols={cols}"
                )

    def test_bitplane_counts_plane_pass_bytes(self):
        """The counter is generations x passes x plane bytes, per call."""
        rec = InMemoryRecorder()
        model, state = _fhp7(65)
        stepper = make_stepper(model, backend="bitplane", recorder=rec)
        stepper.run(state, 3)
        stepper.advance(4, 3)
        kernel = stepper.kernel
        expected = 7 * kernel.passes_per_generation * kernel.plane_bytes
        assert rec.counter("kernel.bitplane.plane_pass_bytes").value == expected
        # fhp7 propagate: 20 passes for the moving channels, 1 rest copy;
        # a plane is 6 rows of 2 words.
        assert expected == 7 * (kernel.program.passes + 21) * 6 * 2 * 8

    def test_automaton_time_advances_once_per_run(self):
        model = HPPModel(6, 6)
        auto = LatticeGasAutomaton(model, _state(0, 6, 6, 4), backend="bitplane")
        auto.run(7)
        assert auto.time == 7

    def test_mass_conserved_periodic(self):
        from repro.lgca.observables import total_mass

        model = FHPModel(8, 65)
        auto = LatticeGasAutomaton(model, _state(5, 8, 65, 6), backend="bitplane")
        mass0 = auto.particle_count()
        auto.run(20)
        assert total_mass(auto.state, 6) == mass0
