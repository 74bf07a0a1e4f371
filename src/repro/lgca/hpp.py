"""The HPP lattice gas (Hardy, Pomeau, de Pazzis 1973) — reference [4].

Four unit-velocity channels on an orthogonal lattice.  The only
interaction is the head-on two-body collision: two particles meeting
nose-to-nose with the perpendicular pair empty scatter into the
perpendicular pair.  The paper notes this model "does not lead to
isotropic solutions" — benchmark E12 demonstrates exactly that by
propagating a density pulse and comparing against FHP.

Channel numbering (physical axes; the storage grid is matrix-indexed
with row increasing downward, so +y is row−1):

====  =========  ============
bit   velocity   (drow, dcol)
====  =========  ============
0     +x         (0, +1)
1     +y         (−1, 0)
2     −x         (0, −1)
3     −y         (+1, 0)
====  =========  ============
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lgca.bits import pack_channels, shift_plane_into, unpack_channels
from repro.lgca.collision import CollisionTable
from repro.util.validation import check_positive

__all__ = ["HPP_VELOCITIES", "HPP_OFFSETS", "hpp_collision_table", "HPPModel"]

#: (4, 2) physical velocity vectors (vx, vy) per channel.
HPP_VELOCITIES = np.array(
    [
        (1.0, 0.0),
        (0.0, 1.0),
        (-1.0, 0.0),
        (0.0, -1.0),
    ]
)

#: (4, 2) storage-grid offsets (drow, dcol) per channel.
HPP_OFFSETS = [(0, 1), (-1, 0), (0, -1), (1, 0)]

_HEAD_ON_X = 0b0101  # particles in +x and -x
_HEAD_ON_Y = 0b1010  # particles in +y and -y


def hpp_collision_table() -> CollisionTable:
    """The verified 16-entry HPP collision table.

    Exactly two states change: the x head-on pair becomes the y head-on
    pair and vice versa.  The rule is an involution.
    """
    table = np.arange(16, dtype=np.uint16)
    table[_HEAD_ON_X] = _HEAD_ON_Y
    table[_HEAD_ON_Y] = _HEAD_ON_X
    return CollisionTable(name="hpp", table=table, velocities=HPP_VELOCITIES)


@dataclass
class HPPModel:
    """Collision + propagation kernels for the HPP gas on a ``rows x cols`` grid.

    This class is *stateless with respect to the gas* — it transforms
    state fields.  :class:`repro.lgca.automaton.LatticeGasAutomaton`
    couples a model with a state, boundary, and obstacle map.

    Parameters
    ----------
    rows, cols:
        Grid shape.
    boundary:
        ``"periodic"`` (toroidal), ``"null"`` (particles leaving the edge
        vanish, none enter), or ``"reflecting"`` (bounce-back walls).
    """

    rows: int
    cols: int
    boundary: str = "periodic"

    def __post_init__(self) -> None:
        self.rows = check_positive(self.rows, "rows", integer=True)
        self.cols = check_positive(self.cols, "cols", integer=True)
        if self.boundary not in ("periodic", "null", "reflecting"):
            raise ValueError(
                f"boundary={self.boundary!r} must be periodic, null, or reflecting"
            )
        self._table = hpp_collision_table()

    # -- public metadata ----------------------------------------------------

    @property
    def num_channels(self) -> int:
        return 4

    @property
    def bits_per_site(self) -> int:
        """D of the paper's pin constraint for this model."""
        return 4

    @property
    def velocities(self) -> np.ndarray:
        return HPP_VELOCITIES.copy()

    @property
    def collision_table(self) -> CollisionTable:
        return self._table

    def check_state(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state)
        if state.shape != (self.rows, self.cols):
            raise ValueError(
                f"state shape {state.shape} != grid shape {(self.rows, self.cols)}"
            )
        if state.max(initial=0) >= 16:
            raise ValueError("HPP states must fit in 4 bits")
        return state.astype(np.uint8, copy=False)

    # -- dynamics -----------------------------------------------------------

    def collide(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
        *,
        out: np.ndarray | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Apply the collision table at every site.

        ``t`` and ``rng`` are accepted for interface parity with
        :class:`repro.lgca.fhp.FHPModel`; HPP is deterministic.
        ``out`` (which must not alias ``state``) receives the result
        without allocating; ``check=False`` skips input validation when
        the caller has already validated (one ``step()`` validates once).
        """
        if check:
            state = self.check_state(state)
        result = self._table(state, out=out)
        assert isinstance(result, np.ndarray)
        return result

    def propagate(
        self,
        state: np.ndarray,
        *,
        out: np.ndarray | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Move every particle one lattice unit along its velocity.

        ``out`` (not aliasing ``state``) receives the packed result;
        channel-plane scratch is reused across calls, so steady-state
        stepping does not allocate.
        """
        if check:
            state = self.check_state(state)
        ch_in = unpack_channels(state, 4, out=self._scratch("ch_in"))
        ch_out = self._scratch("ch_out")
        for bit, (dr, dc) in enumerate(HPP_OFFSETS):
            shift_plane_into(ch_in[bit], ch_out[bit], dr, dc, self.boundary)
        if self.boundary == "reflecting":
            _reflect_edges_square(ch_in, ch_out)
        if out is None:
            out = np.zeros_like(state)
        return pack_channels(ch_out, out=out, check=False)

    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One generation: collide, then propagate (validates input once)."""
        state = self.check_state(state)
        return self.propagate(self.collide(state, t, rng, check=False), check=False)

    def _scratch(self, key: str) -> np.ndarray:
        """Lazily allocated per-model channel-plane scratch buffers."""
        buffers = getattr(self, "_scratch_buffers", None)
        if buffers is None:
            buffers = {}
            self._scratch_buffers: dict[str, np.ndarray] = buffers
        buf = buffers.get(key)
        if buf is None:
            buf = np.empty((4, self.rows, self.cols), dtype=np.uint8)
            buffers[key] = buf
        return buf


def _reflect_edges_square(channels_in: np.ndarray, channels_out: np.ndarray) -> None:
    """Bounce-back at the four walls for HPP channel planes (in place).

    A particle that would cross a wall stays at its wall site with its
    velocity reversed — the standard no-slip wall for lattice gases.
    """
    # +x particles at the right wall come back as -x particles there.
    channels_out[2][:, -1] |= channels_in[0][:, -1]
    # -x at left wall -> +x.
    channels_out[0][:, 0] |= channels_in[2][:, 0]
    # +y (row-1) at top wall -> -y.
    channels_out[3][0, :] |= channels_in[1][0, :]
    # -y (row+1) at bottom wall -> +y.
    channels_out[1][-1, :] |= channels_in[3][-1, :]
