"""Tests for row-slab sharding: geometry invariants and bit-identity.

Process shards are the repo's one multi-core path, so the bit-identity
matrix lives here: for every model, boundary, chirality policy, worker
count, backend and block depth ``k``, the sharded evolution — halos
exchanged once per block, as the workers do — must equal the
whole-lattice reference run, including uneven slab splits and obstacles
that straddle a shard boundary or sit at a null edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import slabs
from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.runtime.modelspec import ModelSpec
from repro.resilience.checkpoint import CheckpointStore
from repro.runtime.sharding import (
    ShardRunner,
    block_stop,
    load_slab,
    local_obstacles,
    plan_shards,
)
from repro.util.errors import ConfigError

#: Block depths the matrix runs at (``HALO_GENERATIONS`` patched per run).
MATRIX_DEPTHS = (1, 2, 3, 5)


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
            assert shard.depth <= shard.halo_top <= shard.exchange_rows
            assert shard.depth <= shard.halo_bottom <= shard.exchange_rows

    @settings(max_examples=60, deadline=None)
    @given(
        workers=st.integers(1, 16),
        halo_generations=st.integers(1, 12),
        data=st.data(),
    )
    def test_halos_are_at_least_one_block_deep(self, workers, halo_generations, data):
        rows = data.draw(st.integers(slabs.MIN_SLAB_ROWS * workers, 300))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slabs, "HALO_GENERATIONS", halo_generations)
            shards = plan_shards(rows, workers)
        k = min(halo_generations, rows // workers - 1)
        for shard in shards:
            assert shard.depth == k >= 1
            assert k <= shard.halo_top <= k + 1
            assert k <= shard.halo_bottom <= k + 1
            assert (shard.row_start - shard.halo_top) % 2 == 0
            assert shard.local_rows % 2 == 0
            # Every slab can supply a full k + 1 row boundary exchange.
            assert shard.slab_rows >= shard.exchange_rows == k + 1

    @settings(max_examples=25, deadline=None)
    @given(workers=st.integers(1, 16), data=st.data())
    def test_rejects_too_many_workers(self, workers, data):
        rows = data.draw(st.integers(1, slabs.MIN_SLAB_ROWS * workers - 1))
        with pytest.raises(ConfigError, match="at least"):
            plan_shards(rows, workers)

    def test_local_row_indices_wrap(self):
        shard = plan_shards(16, 2)[1]  # bottom slab wraps past the edge
        idx = shard.local_row_indices(16)
        assert len(idx) == shard.local_rows
        assert idx[shard.halo_top] == shard.row_start
        assert idx[-1] == (shard.row_stop + shard.halo_bottom - 1) % 16

    @pytest.mark.parametrize("boundary", ["periodic", "null"])
    def test_local_obstacles_clear_halos_past_a_null_edge(self, boundary):
        mask = np.ones((16, 5), dtype=bool)
        top, bottom = plan_shards(16, 2)
        for shard in (top, bottom):
            local = local_obstacles(mask, shard, boundary == "periodic")
            assert local.shape == (shard.local_rows, 5)
        top_local = local_obstacles(mask, top, boundary == "periodic")
        bottom_local = local_obstacles(mask, bottom, boundary == "periodic")
        # The inner halos (facing the other shard) always see the mask.
        assert top_local[top.halo_top :].all()
        assert bottom_local[: bottom.interior.stop].all()
        outer = [top_local[: top.halo_top], bottom_local[bottom.interior.stop :]]
        assert all(o.all() if boundary == "periodic" else not o.any() for o in outer)


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(1, 9),
        target=st.integers(1, 60),
        interval=st.integers(1, 20),
    )
    def test_blocks_tile_the_run_and_stop_at_checkpoints(self, depth, target, interval):
        starts, t = [], 0
        while t < target:
            starts.append(t)
            stop = block_stop(t, depth, target, interval)
            assert t < stop <= min(t + depth, target)
            # A block never steps across a checkpoint generation.
            assert not any(g % interval == 0 for g in range(t + 1, stop))
            t = stop
        assert t == target
        # So every checkpoint generation is a block start: a restore
        # from any of them replays whole blocks.
        assert set(range(0, target, interval)) <= set(starts)

    def test_runner_rejects_a_block_deeper_than_its_halos(self):
        spec = ModelSpec(kind="hpp", rows=8, cols=8)
        shard = plan_shards(8, 2)[0]
        assert shard.depth == 3
        runner = ShardRunner(
            spec.build(rows=shard.local_rows),
            shard,
            spec.initial_state(0.3, 1)[shard.row_start : shard.row_stop],
        )
        with pytest.raises(ValueError, match="deep"):
            runner.advance(4)


def _evolve_sharded(
    spec, init, generations, workers, backend, obstacles=None, checkpoint_interval=64
):
    """In-process sharded evolution via ShardRunner + manual halo routing.

    Steps in blocks, exactly as the workers do: :func:`block_stop` picks
    each block (``checkpoint_interval`` only bounds the blocks here),
    neighbours exchange ``k + 1`` boundary rows once per block, and
    each runner advances the whole block in one call.

    ``backend="mixed"`` alternates ``reference`` and ``bitplane`` across
    shards: halos cross as packed plane rows, a format that must be the
    same whatever backend reads or writes it, so the mix must stay
    bit-identical.
    """
    shards = plan_shards(spec.rows, workers)
    periodic = spec.boundary == "periodic"
    runners = []
    for shard in shards:
        mask = None if obstacles is None else local_obstacles(obstacles, shard, periodic)
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
    n = len(runners)
    t = 0
    while t < generations:
        stop = block_stop(t, shards[0].depth, generations, checkpoint_interval)
        rows = [r.boundary_rows() for r in runners]
        for i, runner in enumerate(runners):
            above = rows[i - 1][1] if (i > 0 or periodic) else None
            below = rows[(i + 1) % n][0] if (i < n - 1 or periodic) else None
            runner.set_halos(above, below)
            runner.advance(stop - t)
        t = stop
    assert all(r.time == generations for r in runners)
    return np.concatenate([r.interior for r in runners], axis=0)


def _evolve_at_depths(spec, init, generations, workers, backend, **kwargs):
    """``{k: sharded result}`` with ``HALO_GENERATIONS`` patched to each k."""
    results = {}
    for k in MATRIX_DEPTHS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slabs, "HALO_GENERATIONS", k)
            results[k] = _evolve_sharded(
                spec, init, generations, workers, backend, **kwargs
            )
    return results


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
MATRIX_GENERATIONS = 11  # two full blocks and a partial one at k = 5


def _reference_run(spec, init, generations, obstacles=None):
    """The whole-lattice golden evolution."""
    auto = LatticeGasAutomaton(
        spec.build(),
        init.copy(),
        obstacles=None if obstacles is None else ObstacleMap(obstacles),
    )
    auto.run(generations)
    return auto.state


def _assert_all_depths_match(golden, results, context=""):
    for k, sharded in results.items():
        np.testing.assert_array_equal(sharded, golden, err_msg=f"k={k} {context}")


class TestShardMatrix:
    """Sharded runs are bit-identical to the whole-lattice reference.

    Every example runs at each block depth in :data:`MATRIX_DEPTHS`
    (``HALO_GENERATIONS`` patched; slabs shorter than ``k + 1`` rows cap
    it) against one reference run.
    """

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
        checkpoint_interval=st.sampled_from([1, 3, 4, 64]),
    )
    def test_bit_identical_to_whole_lattice(
        self,
        kind,
        chirality,
        backend,
        seed,
        rows,
        cols,
        boundary,
        workers,
        checkpoint_interval,
    ):
        if kind != "hpp" and boundary == "periodic":
            rows += rows % 2  # periodic FHP needs even rows; null keeps odd ones
        workers = min(workers, rows // slabs.MIN_SLAB_ROWS)
        spec = ModelSpec(
            kind=kind, rows=rows, cols=cols, boundary=boundary, chirality=chirality
        )
        init = spec.initial_state(0.35, seed)
        _assert_all_depths_match(
            _reference_run(spec, init, MATRIX_GENERATIONS),
            _evolve_at_depths(
                spec,
                init,
                MATRIX_GENERATIONS,
                workers,
                backend,
                checkpoint_interval=checkpoint_interval,
            ),
            f"{kind}/{chirality} {rows}x{cols} {boundary} workers={workers} "
            f"backend={backend} interval={checkpoint_interval}",
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
        mask[[0, -1], 20:40] = True  # and bars along both lattice edges
        init = spec.initial_state(0.35, seed)
        init[mask] = 0
        _assert_all_depths_match(
            _reference_run(spec, init, MATRIX_GENERATIONS, obstacles=mask),
            _evolve_at_depths(
                spec, init, MATRIX_GENERATIONS, workers, backend, obstacles=mask
            ),
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        obstacle_seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["hpp", "fhp6", "fhp7"]),
        workers=st.sampled_from([2, 3, 5]),
        backend=st.sampled_from(["reference", "bitplane"]),
        boundary=st.sampled_from(["periodic", "null"]),
    )
    def test_scattered_obstacles_across_shards(
        self, seed, obstacle_seed, kind, workers, backend, boundary
    ):
        """Random obstacles everywhere, the null edges' rows included.

        On a null lattice a particle leaving through an edge must find no
        obstacle in the halo beyond it, or it bounces back into the slab
        during a block.
        """
        spec = ModelSpec(kind=kind, rows=20, cols=67, boundary=boundary)
        mask = np.random.default_rng(obstacle_seed).random((20, 67)) < 0.15
        init = spec.initial_state(0.35, seed)
        init[mask] = 0
        _assert_all_depths_match(
            _reference_run(spec, init, MATRIX_GENERATIONS, obstacles=mask),
            _evolve_at_depths(
                spec, init, MATRIX_GENERATIONS, workers, backend, obstacles=mask
            ),
            f"{kind} {boundary} workers={workers} backend={backend}",
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        workers=st.sampled_from([2, 3]),
        backend=st.sampled_from(["reference", "bitplane"]),
        boundary=st.sampled_from(["periodic", "null"]),
    )
    def test_fhp_saturated_obstacles_across_shards(self, seed, workers, backend, boundary):
        spec = ModelSpec(kind="fhp-sat", rows=12, cols=64, boundary=boundary)
        mask = np.random.default_rng(seed + 1).random((12, 64)) < 0.15
        init = spec.initial_state(0.35, seed)
        init[mask] = 0
        _assert_all_depths_match(
            _reference_run(spec, init, MATRIX_GENERATIONS, obstacles=mask),
            _evolve_at_depths(
                spec, init, MATRIX_GENERATIONS, workers, backend, obstacles=mask
            ),
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
        assert top.shape == (spec.num_channels, shard.exchange_rows, 1)
        held = runner.packed_interior()[:, : shard.exchange_rows]
        np.testing.assert_array_equal(top, held)
        top[:] = 0xFF
        assert not np.array_equal(runner.packed_interior()[:, : shard.exchange_rows], top)


class TestShardRunnerStaysPacked:
    def test_steady_state_allocates_less_than_one_packed_slab(self):
        """Halo refresh + a block of steps never repacks the slab.

        A bitplane shard holds its slab packed; per block it converts
        only its ``k + 1``-row halos.  Eight blocks of ``k = 8``
        generations must peak below the slab's packed size (C planes of
        ``slab_rows x W`` words): a per-block pack, unpack or copy of
        the local frame alone exceeds it.
        """
        import tracemalloc

        from repro.lgca.bitplane import num_words

        spec = ModelSpec(kind="fhp7", rows=256, cols=640)
        shard = plan_shards(spec.rows, 2)[0]
        assert shard.depth == 8
        runner = ShardRunner(
            spec.build(rows=shard.local_rows),
            shard,
            spec.initial_state(0.3, 4)[shard.row_start : shard.row_stop],
            backend="bitplane",
        )
        above, below = runner.boundary_rows()
        runner.set_halos(above, below)
        runner.advance(shard.depth)  # first-call caches off the books
        packed_slab = 7 * shard.slab_rows * num_words(spec.cols) * 8
        tracemalloc.start()
        try:
            for _ in range(8):
                runner.set_halos(above, below)
                runner.advance(shard.depth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runner.time == 9 * shard.depth
        assert peak < packed_slab, (peak, packed_slab)


class TestPackedCheckpoints:
    """Shard checkpoints are packed planes, restorable by either backend."""

    @pytest.mark.parametrize("writer", ["reference", "bitplane"])
    @pytest.mark.parametrize("reader", ["reference", "bitplane"])
    @pytest.mark.parametrize("kind", ["hpp", "fhp7"])
    def test_restore_on_either_backend_continues_bit_identically(
        self, tmp_path, writer, reader, kind
    ):
        spec = ModelSpec(kind=kind, rows=16, cols=70)
        shard = plan_shards(16, 1)[0]
        init = spec.initial_state(0.3, 8)
        model = spec.build(rows=shard.local_rows)

        def run(runner, generations):
            while runner.time < generations:
                top, bottom = runner.boundary_rows()
                runner.set_halos(bottom, top)  # one periodic shard
                stop = block_stop(runner.time, shard.depth, generations, 64)
                runner.advance(stop - runner.time)

        first = ShardRunner(model, shard, init, backend=writer)
        run(first, 5)
        planes = first.packed_interior()
        assert planes.dtype == np.uint64
        assert planes.shape == (spec.num_channels, 16, 2)
        CheckpointStore(directory=tmp_path).save(first.time, planes)
        generation, slab = load_slab(tmp_path, spec.cols)
        assert generation == 5
        np.testing.assert_array_equal(slab, first.interior)
        second = ShardRunner(model, shard, slab, backend=reader, time=generation)
        run(second, 12)
        np.testing.assert_array_equal(second.interior, _reference_run(spec, init, 12))


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
