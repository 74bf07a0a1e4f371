"""Tests for row-slab sharding: geometry invariants and bit-identity.

Process shards are the repo's one multi-core path, so the bit-identity
matrix lives here: for every model, boundary, chirality policy, worker
count and backend, the sharded evolution must equal the whole-lattice
reference run, including uneven slab splits and obstacles that straddle
a shard boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import BOUNDARY_ROWS, Shard, ShardRunner, plan_shards
from repro.util.errors import ConfigError


class TestPlanShards:
    @pytest.mark.parametrize("rows,workers", [(16, 1), (16, 2), (17, 3), (24, 4), (9, 2)])
    def test_slabs_tile_the_lattice(self, rows, workers):
        shards = plan_shards(rows, workers)
        assert shards[0].row_start == 0
        assert shards[-1].row_stop == rows
        for a, b in zip(shards, shards[1:]):
            assert a.row_stop == b.row_start

    @pytest.mark.parametrize("rows,workers", [(16, 2), (17, 3), (23, 5), (64, 7)])
    def test_local_frames_start_even_and_are_even_tall(self, rows, workers):
        for shard in plan_shards(rows, workers):
            # Even global start row: local row parity == global row parity,
            # which the hexagonal propagation offsets key on.
            assert (shard.row_start - shard.halo_top) % 2 == 0
            # Even height: a periodic FHP sub-model must be constructible.
            assert shard.local_rows % 2 == 0
            assert 1 <= shard.halo_top <= BOUNDARY_ROWS
            assert 1 <= shard.halo_bottom <= BOUNDARY_ROWS

    @settings(max_examples=25, deadline=None)
    @given(workers=st.integers(1, 16), data=st.data())
    def test_rejects_too_many_workers(self, workers, data):
        rows = data.draw(st.integers(1, BOUNDARY_ROWS * workers - 1))
        with pytest.raises(ConfigError, match="at least"):
            plan_shards(rows, workers)

    def test_local_row_indices_wrap(self):
        shard = plan_shards(16, 2)[1]  # bottom slab wraps past the edge
        idx = shard.local_row_indices(16)
        assert len(idx) == shard.local_rows
        assert idx[shard.halo_top] == shard.row_start
        assert idx[-1] == (shard.row_stop + shard.halo_bottom - 1) % 16


def _evolve_sharded(spec, init, generations, workers, backend, obstacles=None):
    """In-process sharded evolution via ShardRunner + manual halo routing.

    ``backend="mixed"`` alternates ``reference`` and ``bitplane`` across
    shards, as a circuit-breaker respawn can: halos cross between
    backends as uint8 rows, so the mix must stay bit-identical.
    """
    shards = plan_shards(spec.rows, workers)
    runners = []
    for shard in shards:
        mask = (
            None
            if obstacles is None
            else obstacles[shard.local_row_indices(spec.rows)]
        )
        runners.append(
            ShardRunner(
                spec.build(rows=shard.local_rows),
                shard,
                init[shard.row_start : shard.row_stop].copy(),
                backend=(
                    ("reference", "bitplane")[shard.index % 2]
                    if backend == "mixed"
                    else backend
                ),
                obstacles_mask=mask,
            )
        )
    periodic = spec.boundary == "periodic"
    n = len(runners)
    for _ in range(generations):
        rows = [r.boundary_rows() for r in runners]
        for i, runner in enumerate(runners):
            above = rows[i - 1][1] if (i > 0 or periodic) else None
            below = rows[(i + 1) % n][0] if (i < n - 1 or periodic) else None
            runner.set_halos(above, below)
            runner.step()
    return np.concatenate([r.interior for r in runners], axis=0)


class TestShardRunnerBitIdentity:
    @pytest.mark.parametrize("kind", ["hpp", "fhp6", "fhp7"])
    @pytest.mark.parametrize("boundary", ["periodic", "null"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_whole_lattice_run(self, kind, boundary, workers):
        spec = ModelSpec(kind=kind, rows=18, cols=13, boundary=boundary)
        init = spec.initial_state(0.35, 5)
        auto = LatticeGasAutomaton(spec.build(), init.copy())
        auto.run(9)
        sharded = _evolve_sharded(spec, init, 9, workers, "reference")
        assert np.array_equal(sharded, auto.state)

    def test_bitplane_backend_matches(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        init = spec.initial_state(0.3, 2)
        auto = LatticeGasAutomaton(spec.build(), init.copy(), backend="bitplane")
        auto.run(8)
        sharded = _evolve_sharded(spec, init, 8, 2, "bitplane")
        assert np.array_equal(sharded, auto.state)

    def test_obstacles_match(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        init = spec.initial_state(0.3, 3)
        mask = np.zeros((16, 16), dtype=bool)
        mask[7:9, 4:12] = True  # a bar crossing the shard boundary
        init[mask] = 0
        auto = LatticeGasAutomaton(
            spec.build(), init.copy(), obstacles=ObstacleMap(mask)
        )
        auto.run(8)
        sharded = _evolve_sharded(spec, init, 8, 2, "reference", obstacles=mask)
        assert np.array_equal(sharded, auto.state)


#: (kind, chirality) for every model the matrix draws: HPP, and FHP with
#: and without rest particles under each deterministic chirality policy.
MODEL_VARIANTS = [("hpp", "alternate")] + [
    (kind, chirality)
    for kind in ("fhp6", "fhp7")
    for chirality in ("alternate", "left", "right")
]
MATRIX_GENERATIONS = 6  # enough for halo errors to reach slab interiors


def _reference_run(spec, init, generations, obstacles=None):
    """The whole-lattice golden evolution."""
    auto = LatticeGasAutomaton(
        spec.build(),
        init.copy(),
        obstacles=None if obstacles is None else ObstacleMap(obstacles),
    )
    auto.run(generations)
    return auto.state


class TestShardMatrix:
    """Sharded runs are bit-identical to the whole-lattice reference."""

    @pytest.mark.parametrize("backend", ["reference", "bitplane", "mixed"])
    @pytest.mark.parametrize(
        "kind,chirality",
        MODEL_VARIANTS,
        ids=[k if k == "hpp" else f"{k}-{c}" for k, c in MODEL_VARIANTS],
    )
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(4, 25),
        cols=st.sampled_from([17, 63, 65, 130]),
        boundary=st.sampled_from(["periodic", "null"]),
        workers=st.sampled_from([1, 2, 3, 5]),
    )
    def test_bit_identical_to_whole_lattice(
        self, kind, chirality, backend, seed, rows, cols, boundary, workers
    ):
        if kind != "hpp" and boundary == "periodic":
            rows += rows % 2  # periodic FHP needs even rows; null keeps odd ones
        workers = min(workers, rows // BOUNDARY_ROWS)
        spec = ModelSpec(
            kind=kind, rows=rows, cols=cols, boundary=boundary, chirality=chirality
        )
        init = spec.initial_state(0.35, seed)
        sharded = _evolve_sharded(spec, init, MATRIX_GENERATIONS, workers, backend)
        np.testing.assert_array_equal(
            sharded,
            _reference_run(spec, init, MATRIX_GENERATIONS),
            err_msg=f"{kind}/{chirality} {rows}x{cols} {boundary} "
            f"workers={workers} backend={backend}",
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        workers=st.sampled_from([2, 3, 5]),
        backend=st.sampled_from(["reference", "bitplane"]),
        boundary=st.sampled_from(["periodic", "null"]),
    )
    def test_obstacle_bar_crossing_shard_boundary(
        self, seed, workers, backend, boundary
    ):
        spec = ModelSpec(kind="fhp6", rows=22, cols=65, boundary=boundary)
        edge = plan_shards(spec.rows, workers)[0].row_stop
        mask = np.zeros((spec.rows, spec.cols), dtype=bool)
        mask[edge - 2 : edge + 2, 10:50] = True  # straddles shards 0 and 1
        init = spec.initial_state(0.35, seed)
        init[mask] = 0
        sharded = _evolve_sharded(
            spec, init, MATRIX_GENERATIONS, workers, backend, obstacles=mask
        )
        np.testing.assert_array_equal(
            sharded, _reference_run(spec, init, MATRIX_GENERATIONS, obstacles=mask)
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        obstacle_seed=st.integers(0, 2**31 - 1),
        workers=st.sampled_from([2, 3, 5]),
        backend=st.sampled_from(["reference", "bitplane"]),
        boundary=st.sampled_from(["periodic", "null"]),
    )
    def test_scattered_obstacles_across_shards(
        self, seed, obstacle_seed, workers, backend, boundary
    ):
        spec = ModelSpec(kind="hpp", rows=10, cols=67, boundary=boundary)
        mask = np.random.default_rng(obstacle_seed).random((10, 67)) < 0.15
        init = spec.initial_state(0.35, seed)
        init[mask] = 0
        sharded = _evolve_sharded(
            spec, init, MATRIX_GENERATIONS, workers, backend, obstacles=mask
        )
        np.testing.assert_array_equal(
            sharded, _reference_run(spec, init, MATRIX_GENERATIONS, obstacles=mask)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        workers=st.sampled_from([2, 3]),
        backend=st.sampled_from(["reference", "bitplane"]),
    )
    def test_fhp_saturated_obstacles_across_shards(self, seed, workers, backend):
        spec = ModelSpec(kind="fhp-sat", rows=8, cols=64)
        mask = np.random.default_rng(seed + 1).random((8, 64)) < 0.15
        init = spec.initial_state(0.35, seed)
        init[mask] = 0
        sharded = _evolve_sharded(
            spec, init, MATRIX_GENERATIONS, workers, backend, obstacles=mask
        )
        np.testing.assert_array_equal(
            sharded, _reference_run(spec, init, MATRIX_GENERATIONS, obstacles=mask)
        )


class TestShardRunnerValidation:
    def test_rejects_wrong_local_model_shape(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        shard = plan_shards(16, 2)[0]
        with pytest.raises(ConfigError, match="rows"):
            ShardRunner(
                spec.build(),  # full-lattice model, not the local frame
                shard,
                np.zeros((shard.slab_rows, 16), dtype=np.uint8),
            )

    def test_rejects_wrong_slab_shape(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        shard = plan_shards(16, 2)[0]
        with pytest.raises(ConfigError, match="slab"):
            ShardRunner(
                spec.build(rows=shard.local_rows),
                shard,
                np.zeros((3, 16), dtype=np.uint8),
            )

    def test_boundary_rows_are_copies(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        shard = plan_shards(16, 2)[0]
        runner = ShardRunner(
            spec.build(rows=shard.local_rows),
            shard,
            spec.initial_state(0.3, 1)[shard.row_start : shard.row_stop],
        )
        top, _ = runner.boundary_rows()
        top[:] = 0xFF
        assert not np.array_equal(runner.interior[:BOUNDARY_ROWS], top)


class TestShardRunnerStaysPacked:
    def test_steady_state_allocates_less_than_one_packed_slab(self):
        """Halo refresh + step never repacks the slab.

        A bitplane shard holds its slab packed; per generation it
        converts only its halo rows.  Eight generations must peak below
        the slab's packed size (C planes of ``slab_rows x W`` words): a
        per-generation pack, unpack or copy of the local frame alone
        exceeds it.
        """
        import tracemalloc

        from repro.lgca.bitplane import num_words

        spec = ModelSpec(kind="fhp7", rows=128, cols=640)
        shard = plan_shards(spec.rows, 2)[0]
        runner = ShardRunner(
            spec.build(rows=shard.local_rows),
            shard,
            spec.initial_state(0.3, 4)[shard.row_start : shard.row_stop],
            backend="bitplane",
        )
        above, below = runner.boundary_rows()
        runner.set_halos(above, below)
        runner.step()  # first-call caches off the books
        packed_slab = 7 * shard.slab_rows * num_words(spec.cols) * 8
        tracemalloc.start()
        try:
            for _ in range(8):
                runner.set_halos(above, below)
                runner.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runner.time == 9
        assert peak < packed_slab, (peak, packed_slab)


class TestModelSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ModelSpec(kind="fhp9", rows=8, cols=8)

    def test_fails_fast_on_bad_geometry(self):
        # Periodic FHP needs even rows; the spec builds once to fail fast.
        with pytest.raises(Exception):
            ModelSpec(kind="fhp6", rows=9, cols=8, boundary="periodic")

    def test_channels(self):
        assert ModelSpec(kind="hpp", rows=8, cols=8).num_channels == 4
        assert ModelSpec(kind="fhp6", rows=8, cols=8).num_channels == 6
        assert ModelSpec(kind="fhp7", rows=8, cols=8).num_channels == 7

    def test_initial_state_is_seeded(self):
        spec = ModelSpec(kind="fhp6", rows=8, cols=8)
        assert np.array_equal(spec.initial_state(0.3, 9), spec.initial_state(0.3, 9))
