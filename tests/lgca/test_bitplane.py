"""Unit tests for the multi-spin coded (bit-plane) kernels."""

import dataclasses

import numpy as np
import pytest

from repro.lgca import bitplane
from repro.lgca.automaton import ObstacleMap
from repro.lgca.backends import make_stepper
from repro.lgca.bitplane import (
    WORD_BITS,
    BitplaneKernel,
    FlipTerm,
    alternate_chirality_planes,
    compile_program,
    num_words,
    pack_plane,
    pack_state,
    split_chirality_terms,
    unpack_plane,
    unpack_state,
    verify_plane_logic,
)
from repro.lgca.collision import CollisionTable
from repro.lgca.fhp import (
    FHPModel,
    fhp6_collision_tables,
    fhp7_collision_tables,
    fhp_saturated_tables,
)
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel, hpp_collision_table

# Column counts probing word boundaries: below one word, exactly one
# word, one bit over, mid-word tails, exact multiples.
EDGE_COLS = [1, 5, 63, 64, 65, 100, 128, 130]


def random_bits(rows, cols, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=(rows, cols)).astype(np.uint8)


class TestPackUnpack:
    def test_num_words(self):
        assert num_words(1) == 1
        assert num_words(64) == 1
        assert num_words(65) == 2
        assert num_words(128) == 2
        assert num_words(129) == 3
        with pytest.raises(ValueError):
            num_words(0)

    @pytest.mark.parametrize("cols", EDGE_COLS)
    def test_plane_roundtrip(self, cols):
        bits = random_bits(7, cols)
        words = pack_plane(bits)
        assert words.shape == (7, num_words(cols))
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_plane(words, cols), bits)

    @pytest.mark.parametrize("cols", EDGE_COLS)
    def test_tail_padding_is_zero(self, cols):
        words = pack_plane(np.ones((3, cols), dtype=np.uint8))
        rem = cols % WORD_BITS
        if rem:
            tail = int(words[0, -1])
            assert tail == (1 << rem) - 1  # high bits clear

    def test_bit_layout(self):
        # bit j of word w is column 64*w + j
        bits = np.zeros((1, 130), dtype=np.uint8)
        bits[0, 0] = 1
        bits[0, 63] = 1
        bits[0, 64] = 1
        bits[0, 129] = 1
        words = pack_plane(bits)
        assert int(words[0, 0]) == 1 | (1 << 63)
        assert int(words[0, 1]) == 1
        assert int(words[0, 2]) == 1 << 1

    @pytest.mark.parametrize("cols", EDGE_COLS)
    @pytest.mark.parametrize("channels", [4, 6, 7])
    def test_state_roundtrip(self, cols, channels):
        rng = np.random.default_rng(cols * 31 + channels)
        state = rng.integers(0, 1 << channels, size=(9, cols)).astype(np.uint8)
        planes = pack_state(state, channels)
        assert planes.shape == (channels, 9, num_words(cols))
        assert np.array_equal(unpack_state(planes, cols), state)

    def test_unpack_state_out_parameter(self):
        state = np.arange(16, dtype=np.uint8).reshape(2, 8)
        planes = pack_state(state, 4)
        out = np.empty((2, 8), dtype=np.uint8)
        result = unpack_state(planes, 8, out=out)
        assert result is out
        assert np.array_equal(out, state)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            pack_plane(np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            unpack_plane(np.zeros((2, 2), dtype=np.uint64), 300)


ALL_TABLES = [
    hpp_collision_table(),
    *fhp6_collision_tables(),
    *fhp7_collision_tables(),
    *fhp_saturated_tables(),
]


def single_table_program(table):
    """A table's program: one table splits into common terms only."""
    return compile_program(
        *split_chirality_terms(table, table), num_channels=table.num_channels
    )


class TestFlipTerms:
    def test_hpp_terms(self):
        table = hpp_collision_table()
        terms, only_left, only_right = split_chirality_terms(table, table)
        assert only_left == only_right == ()
        # exactly the two head-on states change
        assert {t.state for t in terms} == {0b0101, 0b1010}
        for t in terms:
            assert t.flips == 0b1111
            assert t.flip_channels == (0, 1, 2, 3)
            assert len(t.pos) == 2 and len(t.neg) == 2

    def test_every_term_has_a_positive_literal(self):
        for table in ALL_TABLES:
            for term in split_chirality_terms(table, table)[0]:
                assert term.pos, f"{table.name} state {term.state:#x}"

    @pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.name)
    def test_compiled_logic_matches_table(self, table):
        verify_plane_logic(single_table_program(table), table)

    def test_verify_rejects_wrong_terms(self):
        table = hpp_collision_table()
        terms, _, _ = split_chirality_terms(table, table)
        broken = (FlipTerm(state=terms[0].state, flips=0b0001, pos=terms[0].pos,
                           neg=terms[0].neg, flip_channels=(0,)),) + terms[1:]
        program = compile_program(broken, num_channels=4)
        with pytest.raises(ValueError, match="diverges"):
            verify_plane_logic(program, table)

    def test_chirality_split_covers_both_tables(self):
        left, right = fhp6_collision_tables()
        common, only_left, only_right = split_chirality_terms(left, right)
        # triads are chirality-independent, head-on pairs are not
        assert {t.state for t in common} == {0b010101, 0b101010}
        # three distinct head-on states: {0,3}, {1,4}, {2,5}
        assert {t.state for t in only_left} == {0b001001, 0b010010, 0b100100}
        assert len(only_left) == len(only_right) == 3
        program = compile_program(common, only_left, only_right, num_channels=6)
        assert program.uses_mask
        verify_plane_logic(program, left, right)
        # Swapped tables must fail the mask-zero (right) check.
        with pytest.raises(ValueError, match="diverges"):
            verify_plane_logic(program, left, left)

    def test_chirality_split_channel_mismatch(self):
        left, _ = fhp6_collision_tables()
        _, right7 = fhp7_collision_tables()
        with pytest.raises(ValueError):
            split_chirality_terms(left, right7)


#: Whole-plane passes of one collide: the term-by-term accumulation took
#: 28, 138, 379 and 1479; the factored program must not regress past these.
PROGRAM_PASSES = {"hpp": 15, "fhp6": 62, "fhp7": 162, "fhp-sat": 841}


def build_model(name, rows, cols, **kwargs):
    if name == "hpp":
        kwargs.pop("chirality", None)
        return HPPModel(rows, cols, **kwargs)
    return FHPModel(
        rows,
        cols,
        rest_particles=name in ("fhp7", "fhp-sat"),
        saturated=name == "fhp-sat",
        **kwargs,
    )


class TestProgram:
    @pytest.mark.parametrize("name", sorted(PROGRAM_PASSES))
    def test_passes_per_collide(self, name):
        kernel = BitplaneKernel(build_model(name, 8, 8))
        assert kernel.program.passes <= PROGRAM_PASSES[name]
        assert kernel.passes_per_generation > kernel.program.passes

    def test_single_chirality_needs_no_mask(self):
        for chirality in ("left", "right"):
            kernel = BitplaneKernel(FHPModel(8, 8, chirality=chirality))
            assert not kernel.program.uses_mask

    @pytest.mark.parametrize("name", ["hpp", "fhp6", "fhp7", "fhp-sat"])
    def test_corrupted_program_rejected_at_build(self, name, monkeypatch):
        """One flip channel changed in one term: the kernel must not build."""
        split = bitplane.split_chirality_terms

        def corrupted(left, right):
            common, only_left, only_right = split(left, right)
            term = common[0]
            flips = term.flips ^ 1  # channel 0 flipped wrongly
            bad = dataclasses.replace(
                term,
                flips=flips,
                flip_channels=tuple(ch for ch in range(8) if (flips >> ch) & 1),
            )
            return (bad,) + common[1:], only_left, only_right

        monkeypatch.setattr(bitplane, "split_chirality_terms", corrupted)
        with pytest.raises(ValueError, match="diverges"):
            BitplaneKernel(build_model(name, 8, 8))

    @pytest.mark.parametrize("rows", [6, 7])
    @pytest.mark.parametrize("cols", [3, 63, 64, 65, 130])
    def test_alternate_masks_built_packed(self, rows, cols):
        model = FHPModel(rows, cols, chirality="alternate", boundary="null")
        planes = alternate_chirality_planes(rows, cols)
        for t in (0, 1):
            assert np.array_equal(planes[t], pack_plane(model.chirality_field(t)))


#: Every model and chirality policy the bit-plane kernel compiles.
POLICIES = [("hpp", None)] + [
    (name, chirality)
    for name in ("fhp6", "fhp7", "fhp-sat")
    for chirality in ("alternate", "random", "left", "right")
]

#: Live planes of the widest band (C = 7 with obstacles: 32) stay below
#: this, so a budget of 3 rows of it gives bands of 3 to 7 rows.
_MAX_LIVE_PLANES = 40

#: Rows of the banded lattices: even, as periodic FHP needs, and not a
#: multiple of any band height the budget above gives.
BANDED_ROWS = 22


def banded_budget(cols, band):
    if band == "one-row":
        return 1
    return 3 * _MAX_LIVE_PLANES * num_words(cols) * 8


def assert_banded_run_matches_reference(model, solid, steps=6, seed=0):
    rng_state = np.random.default_rng(seed)
    state = uniform_random_state(
        model.rows, model.cols, model.num_channels, 0.4, rng_state
    )
    if solid is not None:
        state[solid] = 0
    results = []
    for backend in ("reference", "bitplane"):
        stepper = make_stepper(model, solid, backend=backend)
        results.append(stepper.run(state, steps, rng=np.random.default_rng(seed + 1)))
    assert np.array_equal(results[1], results[0])


def assert_split(kernel, band):
    if band == "one-row":
        assert kernel.band_rows == 1
    else:
        assert 1 < kernel.band_rows < BANDED_ROWS
        assert BANDED_ROWS % kernel.band_rows, "the last band must be partial"


class TestBands:
    """Collide bands of one row, and several with a partial last band."""

    @pytest.mark.parametrize("band", ["one-row", "multi-row"])
    @pytest.mark.parametrize("cols", [63, 64, 65, 130])
    @pytest.mark.parametrize("name,chirality", POLICIES, ids=lambda p: str(p))
    def test_banded_run_matches_reference(self, name, chirality, cols, band, monkeypatch):
        monkeypatch.setattr(bitplane, "BAND_BUDGET_BYTES", banded_budget(cols, band))
        model = build_model(name, BANDED_ROWS, cols, chirality=chirality)
        kernel = BitplaneKernel(model)
        assert_split(kernel, band)
        assert_banded_run_matches_reference(model, None)

    @pytest.mark.parametrize("band", ["one-row", "multi-row"])
    @pytest.mark.parametrize("boundary", ["periodic", "null", "reflecting"])
    @pytest.mark.parametrize("name", ["hpp", "fhp6", "fhp7", "fhp-sat"])
    def test_banded_run_with_edges_and_obstacles(self, name, boundary, band, monkeypatch):
        cols = 65
        monkeypatch.setattr(bitplane, "BAND_BUDGET_BYTES", banded_budget(cols, band))
        model = build_model(name, BANDED_ROWS, cols, boundary=boundary)
        mask = np.random.default_rng(9).random((BANDED_ROWS, cols)) < 0.15
        kernel = BitplaneKernel(model, obstacles=mask)
        assert_split(kernel, band)
        assert_banded_run_matches_reference(model, mask)


class TestKernel:
    @pytest.mark.parametrize("boundary", ["periodic", "null", "reflecting"])
    @pytest.mark.parametrize("cols", [30, 63, 64, 65, 130])
    def test_hpp_propagate_matches_reference(self, boundary, cols):
        model = HPPModel(12, cols, boundary=boundary)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(12, cols, 4, 0.4, np.random.default_rng(3))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.propagate_into(planes, out)
        assert np.array_equal(kernel.unpack(out), model.propagate(state))

    @pytest.mark.parametrize("boundary", ["periodic", "null", "reflecting"])
    @pytest.mark.parametrize("cols", [30, 64, 65, 100])
    def test_fhp_propagate_matches_reference(self, boundary, cols):
        model = FHPModel(12, cols, boundary=boundary, rest_particles=True)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(12, cols, 7, 0.4, np.random.default_rng(4))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.propagate_into(planes, out)
        assert np.array_equal(kernel.unpack(out), model.propagate(state))

    def test_hpp_collide_matches_reference(self):
        model = HPPModel(10, 70)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(10, 70, 4, 0.5, np.random.default_rng(5))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.collide_into(planes, out)
        assert np.array_equal(kernel.unpack(out), model.collide(state))

    @pytest.mark.parametrize("chirality", ["alternate", "left", "right"])
    def test_fhp_collide_matches_reference(self, chirality):
        model = FHPModel(10, 70, chirality=chirality)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(10, 70, 6, 0.5, np.random.default_rng(6))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        for t in (0, 1, 2):
            kernel.collide_into(planes, out, t=t)
            assert np.array_equal(kernel.unpack(out), model.collide(state, t))

    def test_obstacle_bounce_back(self):
        mask = np.zeros((8, 70), dtype=bool)
        mask[3, 40] = True
        model = HPPModel(8, 70)
        kernel = BitplaneKernel(model, obstacles=ObstacleMap(mask))
        state = np.zeros((8, 70), dtype=np.uint8)
        state[3, 40] = 0b0001  # +x particle sitting on the solid site
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.collide_into(planes, out)
        collided = kernel.unpack(out)
        assert collided[3, 40] == 0b0100  # reversed, not scattered

    def test_rejects_unknown_model(self):
        class NotAModel:
            pass

        with pytest.raises(TypeError):
            BitplaneKernel(NotAModel())

    def test_obstacle_shape_mismatch(self):
        model = HPPModel(8, 8)
        with pytest.raises(ValueError):
            BitplaneKernel(model, obstacles=np.ones((4, 4), dtype=bool))

    def test_step_into_is_allocation_free(self):
        """Steady-state stepping must not allocate new arrays."""
        import tracemalloc

        model = FHPModel(32, 100)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(32, 100, 6, 0.3, np.random.default_rng(7))
        a = kernel.pack(state)
        b = kernel.alloc_planes()
        kernel.step_into(a, b, 0)
        kernel.step_into(b, a, 1)
        tracemalloc.start()
        for t in range(6):
            kernel.step_into(a, b, t)
            a, b = b, a
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # numpy scalar boxes etc. are tolerated; array-sized blocks are not
        assert peak < 16_000, f"stepping allocated {peak} bytes"
