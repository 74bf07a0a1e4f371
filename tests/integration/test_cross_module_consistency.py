"""Cross-module consistency: independent implementations must agree.

The geometry module, the LGCA propagation kernels, the engine stencils,
and the pebbling graph each encode the lattice neighborhoods separately
(by design — the engines are *checked against* the reference, not built
from it).  These tests pin them to each other.
"""

import numpy as np
import pytest

from repro.engines.pe import make_rule
from repro.lattice.geometry import HexagonalLattice, OrthogonalLattice
from repro.lgca.fhp import FHPModel
from repro.lgca.hpp import HPPModel, HPP_OFFSETS
from repro.pebbling.graph import ComputationGraph


class TestFHPGeometryAgreement:
    @pytest.mark.parametrize(
        "boundary, rows, cols, rest_particles",
        [
            ("null", 8, 8, False),
            ("null", 7, 1, False),
            ("null", 5, 65, False),
            ("null", 7, 9, True),
            ("periodic", 8, 8, False),
            ("periodic", 6, 65, True),
            ("periodic", 4, 1, False),
            ("reflecting", 8, 8, False),
            ("reflecting", 7, 65, True),
        ],
    )
    def test_propagation_matches_hexagonal_lattice(
        self, boundary, rows, cols, rest_particles
    ):
        """A particle sent along direction ch from (r, c) lands exactly
        where HexagonalLattice says it should: at ``neighbor`` inside the
        grid; off the grid, lost (null), wrapped by ``offsets`` modulo the
        shape (periodic), or back at (r, c) reversed (reflecting)."""
        model = FHPModel(
            rows, cols, rest_particles=rest_particles, boundary=boundary
        )
        hex_ = HexagonalLattice(rows, cols)
        channels = 7 if rest_particles else 6
        for r in range(rows):
            for c in range(cols):
                for ch in range(channels):
                    state = np.zeros((rows, cols), dtype=np.uint8)
                    state[r, c] = 1 << ch
                    expected = np.zeros_like(state)
                    if ch == 6:
                        expected[r, c] = 1 << 6  # the rest particle stays
                    elif boundary == "periodic":
                        dr, dc = hex_.offsets(r)[ch]
                        expected[(r + dr) % rows, (c + dc) % cols] = 1 << ch
                    elif (target := hex_.neighbor((r, c), ch)) is not None:
                        expected[target] = 1 << ch
                    elif boundary == "reflecting":
                        expected[r, c] = 1 << ((ch + 3) % 6)
                    out = model.propagate(state)
                    assert np.array_equal(out, expected), (r, c, ch)

    def test_engine_stencil_matches_geometry(self):
        """The engine's stream stencil inverts the lattice neighbor map:
        source_index(target, ch) == origin for every edge."""
        rows, cols = 6, 7
        model = FHPModel(rows, cols, boundary="null")
        hex_ = HexagonalLattice(rows, cols)
        stencil = make_rule(model).stencil
        for r in range(rows):
            for c in range(cols):
                for ch in range(6):
                    target = hex_.neighbor((r, c), ch)
                    if target is None:
                        continue
                    assert stencil.source_index(target[0], target[1], ch) == (r, c)


class TestHPPGeometryAgreement:
    def test_offsets_match_velocities(self):
        """Storage offsets and physical velocities agree: +x moves +col,
        +y moves -row."""
        model = HPPModel(4, 4)
        for ch, (dr, dc) in enumerate(HPP_OFFSETS):
            vx, vy = model.velocities[ch]
            assert dc == int(vx)
            assert dr == -int(vy)


class TestGraphMatchesModelDependencies:
    def test_graph_predecessors_match_orthogonal_neighborhood(self):
        """The pebbling graph's arcs are exactly the lattice N(x) the
        models' update rules read."""
        lattice = OrthogonalLattice((4, 5))
        graph = ComputationGraph(lattice, generations=2)
        for site_idx in range(lattice.num_sites):
            site = lattice.site(site_idx)
            v = graph.vertex(site, 1)
            pred_sites = {graph.site_of(int(u)) for u in graph.predecessors(v)}
            assert pred_sites == set(lattice.neighborhood(site))

    def test_graph_in_degree_matches_stencil_size(self):
        """HPP's stencil touches exactly the graph's in-degree sites."""
        lattice = OrthogonalLattice((6, 6))
        graph = ComputationGraph(lattice, generations=1)
        interior = graph.vertex((3, 3), 1)
        assert graph.in_degree(interior) == 5  # self + 4 — HPP's full stencil


class TestNDHPPMatchesOrthogonalLattice:
    def test_propagation_follows_lattice_axes(self):
        from repro.lgca.ndim import NDHPPModel

        lattice = OrthogonalLattice((4, 4, 4))
        model = NDHPPModel((4, 4, 4), boundary="null")
        origin = (2, 2, 2)
        for ch in range(6):
            axis, step = ch // 2, 1 if ch % 2 == 0 else -1
            state = np.zeros((4, 4, 4), dtype=np.uint8)
            state[origin] = 1 << ch
            out = model.propagate(state)
            expected = list(origin)
            expected[axis] += step
            assert out[tuple(expected)] == 1 << ch
            assert lattice.distance(origin, tuple(expected)) == 1
