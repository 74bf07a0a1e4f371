"""Unit + property tests for the FHP lattice gas."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lgca.bits import popcount
from repro.lgca.fhp import (
    FHPModel,
    FHP_VELOCITIES,
    fhp6_collision_tables,
    fhp7_collision_tables,
)
from repro.lgca.observables import total_mass, total_momentum

REST = 1 << 6


class TestFHP6Tables:
    def test_head_on_rotates(self):
        left, right = fhp6_collision_tables()
        pair = 0b001001  # channels {0, 3}
        assert left(pair) == 0b010010  # {1, 4}
        assert right(pair) == 0b100100  # {5, 2}

    def test_three_body_swaps(self):
        left, right = fhp6_collision_tables()
        assert left(0b010101) == 0b101010
        assert left(0b101010) == 0b010101
        assert right(0b010101) == 0b101010

    def test_other_states_pass_through(self):
        left, _ = fhp6_collision_tables()
        # single particles, 60-degree pairs, 4+ particle states
        for s in (0b000001, 0b000011, 0b011011, 0b111111, 0b110111):
            assert left(s) == s

    def test_tables_are_permutations(self):
        for t in fhp6_collision_tables():
            assert sorted(t.table.tolist()) == list(range(64))

    def test_left_right_are_inverses_on_pairs(self):
        left, right = fhp6_collision_tables()
        for i in range(3):
            pair = (1 << i) | (1 << (i + 3))
            assert right(left(pair)) == pair

    def test_conservation_machine_checked(self):
        # CollisionTable construction runs the full 64-state check;
        # reaching here means it passed.  Double-check one state by hand.
        left, _ = fhp6_collision_tables()
        out = left(0b001001)
        p_in = FHP_VELOCITIES[0] + FHP_VELOCITIES[3]
        p_out = FHP_VELOCITIES[1] + FHP_VELOCITIES[4]
        assert np.allclose(p_in, p_out, atol=1e-12)
        assert popcount(out, 6) == 2


class TestFHP7Tables:
    def test_rest_spectator_head_on(self):
        left, _ = fhp7_collision_tables()
        pair = 0b001001 | REST
        assert left(pair) == (0b010010 | REST)

    def test_rest_creation_annihilation(self):
        left, _ = fhp7_collision_tables()
        # mover 0 + rest -> channels {5, 1}
        mover = (1 << 0) | REST
        split = (1 << 5) | (1 << 1)
        assert left(mover) == split
        assert left(split) == mover

    def test_tables_are_permutations(self):
        for t in fhp7_collision_tables():
            assert sorted(t.table.tolist()) == list(range(128))

    def test_three_body_with_rest(self):
        left, _ = fhp7_collision_tables()
        assert left(0b010101 | REST) == (0b101010 | REST)


class TestFHPModel:
    def test_rejects_odd_rows_periodic(self):
        with pytest.raises(ValueError, match="even"):
            FHPModel(5, 8)

    def test_odd_rows_ok_non_periodic(self):
        FHPModel(5, 8, boundary="null")

    @pytest.mark.parametrize("boundary", ["periodic", "null", "reflecting"])
    def test_construction_allocates_no_per_site_index_tables(self, boundary):
        """Propagation shifts slices, so building a model allocates no
        O(N) side tables; only reflecting walls keep one uint8 bounce-back
        mask per moving channel (6 bytes per site)."""
        import tracemalloc

        rows = cols = 1024
        tracemalloc.start()
        FHPModel(rows, cols, boundary=boundary)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_site = 6 if boundary == "reflecting" else 0
        assert peak < per_site * rows * cols + (1 << 20), peak

    def test_rejects_bad_chirality(self):
        with pytest.raises(ValueError, match="chirality"):
            FHPModel(4, 4, chirality="spin")

    def test_metadata(self):
        assert FHPModel(4, 4).bits_per_site == 6
        assert FHPModel(4, 4, rest_particles=True).bits_per_site == 7

    def test_chirality_field_alternate_flips_with_time(self):
        m = FHPModel(4, 4, chirality="alternate")
        f0 = m.chirality_field(0)
        f1 = m.chirality_field(1)
        assert np.array_equal(f0, ~f1)

    def test_chirality_field_fixed(self):
        m = FHPModel(4, 4, chirality="left")
        assert m.chirality_field(3).all()
        m = FHPModel(4, 4, chirality="right")
        assert not m.chirality_field(3).any()

    def test_chirality_random_needs_rng(self):
        m = FHPModel(4, 4, chirality="random")
        with pytest.raises(ValueError, match="rng"):
            m.chirality_field(0)

    def test_chirality_random_uses_rng(self):
        m = FHPModel(64, 64, chirality="random")
        f = m.chirality_field(0, np.random.default_rng(0))
        frac = f.mean()
        assert 0.4 < frac < 0.6

    def test_propagation_even_row_directions(self):
        m = FHPModel(8, 8)
        # channel 2 (up-left) from even row 4: (4,2) -> (3,1)
        s = np.zeros((8, 8), dtype=np.uint8)
        s[4, 2] = 1 << 2
        out = m.propagate(s)
        assert out[3, 1] == 1 << 2

    def test_propagation_odd_row_directions(self):
        m = FHPModel(8, 8)
        # channel 2 (up-left) from odd row 3: (3,2) -> (2,2)
        s = np.zeros((8, 8), dtype=np.uint8)
        s[3, 2] = 1 << 2
        out = m.propagate(s)
        assert out[2, 2] == 1 << 2

    def test_six_step_cycle_returns_home(self):
        """A single particle turning through all 6 directions traverses a
        closed hexagon: propagate once per direction, end at start."""
        m = FHPModel(16, 16)
        r, c = 8, 8
        pos = (r, c)
        for direction in range(6):
            s = np.zeros((16, 16), dtype=np.uint8)
            s[pos] = 1 << direction
            out = m.propagate(s)
            pos = tuple(np.argwhere(out)[0])
        assert pos == (r, c)

    def test_rest_particle_stays(self):
        m = FHPModel(6, 6, rest_particles=True)
        s = np.zeros((6, 6), dtype=np.uint8)
        s[3, 3] = REST
        out = m.propagate(s)
        assert out[3, 3] == REST

    def test_propagation_periodic_is_permutation(self):
        rng = np.random.default_rng(1)
        m = FHPModel(6, 6)
        s = rng.integers(0, 64, size=(6, 6)).astype(np.uint8)
        out = m.propagate(s)
        for ch in range(6):
            assert ((s >> ch) & 1).sum() == ((out >> ch) & 1).sum()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["alternate", "left", "right"]))
    def test_conservation_periodic(self, seed, chirality):
        rng = np.random.default_rng(seed)
        m = FHPModel(8, 8, chirality=chirality)
        s = rng.integers(0, 64, size=(8, 8)).astype(np.uint8)
        mass0 = total_mass(s, 6)
        mom0 = total_momentum(s, m.velocities)
        for t in range(4):
            s = m.step(s, t)
        assert total_mass(s, 6) == mass0
        assert np.allclose(total_momentum(s, m.velocities), mom0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    def test_conservation_rest_particles(self, seed):
        rng = np.random.default_rng(seed)
        m = FHPModel(8, 8, rest_particles=True)
        s = rng.integers(0, 128, size=(8, 8)).astype(np.uint8)
        mass0 = total_mass(s, 7)
        mom0 = total_momentum(s, m.velocities)
        for t in range(4):
            s = m.step(s, t)
        assert total_mass(s, 7) == mass0
        assert np.allclose(total_momentum(s, m.velocities), mom0, atol=1e-9)

    def test_random_chirality_conserves(self):
        rng = np.random.default_rng(9)
        m = FHPModel(8, 8, chirality="random")
        s = rng.integers(0, 64, size=(8, 8)).astype(np.uint8)
        mass0 = total_mass(s, 6)
        mom0 = total_momentum(s, m.velocities)
        for t in range(6):
            s = m.step(s, t, rng)
        assert total_mass(s, 6) == mass0
        assert np.allclose(total_momentum(s, m.velocities), mom0, atol=1e-9)

    def test_null_boundary_mass_nonincreasing(self):
        rng = np.random.default_rng(2)
        m = FHPModel(6, 6, boundary="null")
        s = rng.integers(0, 64, size=(6, 6)).astype(np.uint8)
        masses = [total_mass(s, 6)]
        for t in range(6):
            s = m.step(s, t)
            masses.append(total_mass(s, 6))
        assert all(a >= b for a, b in zip(masses, masses[1:]))

    def test_reflecting_conserves_mass(self):
        rng = np.random.default_rng(5)
        m = FHPModel(6, 6, boundary="reflecting")
        s = rng.integers(0, 64, size=(6, 6)).astype(np.uint8)
        mass0 = total_mass(s, 6)
        for t in range(8):
            s = m.step(s, t)
        assert total_mass(s, 6) == mass0

    def test_reflecting_wall_reverses_direction(self):
        m = FHPModel(6, 6, boundary="reflecting")
        s = np.zeros((6, 6), dtype=np.uint8)
        s[2, 5] = 1 << 0  # +x at right wall
        out = m.propagate(s)
        assert out[2, 5] == 1 << 3  # reversed in place
