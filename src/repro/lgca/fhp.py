"""The FHP lattice gas (Frisch, Hasslacher, Pomeau) — reference [3].

Six unit-velocity channels on a hexagonal lattice (plus an optional rest
particle, the 7-bit variant), the model the paper singles out because "in
a two-dimensional hexagonally connected lattice, it has been shown that
the Navier-Stokes equation is satisfied in the limit of large lattice
size".

Collision rules implemented:

* **FHP-6 (FHP-I)** — head-on two-body collisions ``{i, i+3}`` scatter to
  the pair rotated ±60° (the chirality must be chosen per collision; the
  driver alternates it deterministically or draws it pseudo-randomly),
  and symmetric three-body collisions ``{i, i+2, i+4} <-> {i+1, i+3, i+5}``.
* **FHP-7 (FHP-II)** — FHP-6 rules with the rest particle as a spectator,
  plus the rest-particle pair creation/annihilation
  ``{rest, i} <-> {i-1, i+1}``.

Each fixed-chirality table is a *permutation* of the state space (checked
in tests) and conserves mass and momentum (checked at construction by
:class:`repro.lgca.collision.CollisionTable`).

Storage layout: the hexagonal lattice lives on a rectangular grid with
odd rows shifted half a cell right (see
:class:`repro.lattice.geometry.HexagonalLattice`).  Channel order is
counter-clockwise from +x; see ``FHP_VELOCITIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lattice.geometry import FHP_DIRECTIONS
from repro.lgca.bits import pack_channels, shift_plane_into, unpack_channels
from repro.lgca.collision import CollisionTable
from repro.util.errors import ConfigError
from repro.util.validation import check_positive

__all__ = [
    "FHP_VELOCITIES",
    "fhp6_collision_tables",
    "fhp7_collision_tables",
    "fhp_saturated_tables",
    "FHPModel",
]

#: (6, 2) physical velocity vectors per moving channel (ccw from +x).
FHP_VELOCITIES = FHP_DIRECTIONS

#: Velocity table for the 7-bit model: 6 movers + rest particle (bit 6).
FHP7_VELOCITIES = np.vstack([FHP_DIRECTIONS, [(0.0, 0.0)]])

#: storage-grid row offset per channel (identical for both row parities).
_ROW_OFFSET = [0, -1, -1, 0, 1, 1]
#: storage-grid column offset per channel for even source rows.
_COL_OFFSET_EVEN = [1, 0, -1, -1, -1, 0]
#: ... and for odd source rows (odd rows shifted half a cell right).
_COL_OFFSET_ODD = [1, 1, 0, -1, 0, 1]

_REST_BIT = 1 << 6
_TRIAD_A = 0b010101  # channels {0, 2, 4}
_TRIAD_B = 0b101010  # channels {1, 3, 5}


def _rotate_moving(state: int, amount: int) -> int:
    """Rotate the 6 moving-channel bits of ``state`` by ``amount`` (ccw)."""
    moving = state & 0b111111
    amount %= 6
    rotated = ((moving << amount) | (moving >> (6 - amount))) & 0b111111
    return (state & ~0b111111) | rotated


def fhp6_collision_tables() -> tuple[CollisionTable, CollisionTable]:
    """The two fixed-chirality FHP-I tables ``(left, right)``.

    ``left`` rotates head-on pairs +60° (counter-clockwise), ``right``
    −60°.  Averaging the two chiralities restores the hexagonal-lattice
    parity symmetry the hydrodynamic limit needs.
    """
    tables = []
    for name, chirality in (("fhp6/left", 1), ("fhp6/right", -1)):
        table = np.arange(64, dtype=np.uint16)
        # Rotation maps head-on classes onto head-on classes, so assigning
        # all six {i, i+3} pairs covers every colliding two-body state.
        for i in range(6):
            pair = (1 << i) | (1 << ((i + 3) % 6))
            table[pair] = _rotate_moving(pair, chirality)
        table[_TRIAD_A] = _TRIAD_B
        table[_TRIAD_B] = _TRIAD_A
        tables.append(
            CollisionTable(name=name, table=table, velocities=FHP_VELOCITIES)
        )
    return tables[0], tables[1]


def fhp7_collision_tables() -> tuple[CollisionTable, CollisionTable]:
    """The two fixed-chirality FHP-II tables (rest particle at bit 6)."""
    tables = []
    for name, chirality in (("fhp7/left", 1), ("fhp7/right", -1)):
        table = np.arange(128, dtype=np.uint16)
        for rest in (0, _REST_BIT):
            # Head-on pairs, rest particle (if any) is a spectator.
            for i in range(3):
                pair = (1 << i) | (1 << (i + 3))
                table[pair | rest] = _rotate_moving(pair, chirality) | rest
            # Symmetric three-body, rest spectator.
            table[_TRIAD_A | rest] = _TRIAD_B | rest
            table[_TRIAD_B | rest] = _TRIAD_A | rest
        # Rest-particle creation/annihilation: {rest, i} <-> {i-1, i+1}.
        for i in range(6):
            mover = (1 << i) | _REST_BIT
            split = (1 << ((i - 1) % 6)) | (1 << ((i + 1) % 6))
            table[mover] = split
            table[split] = mover
        tables.append(
            CollisionTable(name=name, table=table, velocities=FHP7_VELOCITIES)
        )
    return tables[0], tables[1]


def fhp_saturated_tables() -> tuple[CollisionTable, CollisionTable]:
    """Collision-saturated 7-bit tables in the spirit of FHP-III.

    FHP-III maximizes the collision rate by letting *every* state that
    shares its (mass, momentum) invariants with another state scatter.
    We realize that deterministically: states are grouped into
    equivalence classes by exact (particle count, momentum vector); each
    class of size > 1 is permuted by one cyclic step of its canonical
    ordering (``left``) or the inverse step (``right``).  Both tables
    are permutations of the state space, conserve mass and momentum
    exactly (by construction — and re-verified at table construction),
    and leave *no* collision on the table: every state that can legally
    change, does.

    The resulting gas has a strictly higher collision rate — and
    therefore lower viscosity and higher achievable Reynolds number per
    site — than FHP-I/II, which is exactly why Frisch et al. introduced
    the saturated variant.  The specific in-class pairing differs from
    the historical FHP-III listing (any in-class permutation shares the
    conservation laws); benchmarks quote collision rates, not the exact
    microdynamics.
    """
    momenta = np.zeros((128, 2), dtype=np.float64)
    masses = np.zeros(128, dtype=np.int64)
    for state in range(128):
        for ch in range(6):
            if (state >> ch) & 1:
                momenta[state] += FHP_DIRECTIONS[ch]
                masses[state] += 1
        if state & _REST_BIT:
            masses[state] += 1
    # group states by (mass, rounded momentum)
    classes: dict[tuple[int, int, int], list[int]] = {}
    for state in range(128):
        key = (
            int(masses[state]),
            int(round(momenta[state, 0] * 2)),  # momenta are multiples of 1/2
            int(round(momenta[state, 1] / (math.sqrt(3) / 2))),
        )
        classes.setdefault(key, []).append(state)
    left = np.arange(128, dtype=np.uint16)
    right = np.arange(128, dtype=np.uint16)
    for members in classes.values():
        if len(members) < 2:
            continue
        for i, state in enumerate(members):
            left[state] = members[(i + 1) % len(members)]
            right[state] = members[(i - 1) % len(members)]
    return (
        CollisionTable(name="fhp-sat/left", table=left, velocities=FHP7_VELOCITIES),
        CollisionTable(name="fhp-sat/right", table=right, velocities=FHP7_VELOCITIES),
    )


@dataclass
class FHPModel:
    """Collision + propagation kernels for the FHP gas.

    Parameters
    ----------
    rows, cols:
        Storage-grid shape.  ``rows`` must be even when ``boundary`` is
        periodic (the hexagonal row-offset pattern must tile the torus).
    rest_particles:
        Use the 7-bit FHP-II variant instead of the 6-bit FHP-I.
    boundary:
        ``"periodic"``, ``"null"``, or ``"reflecting"`` (bounce-back).
    chirality:
        ``"alternate"`` — deterministic checkerboard-in-time chirality
        (what a deterministic VLSI engine does, and what the equivalence
        tests against the engine simulators rely on); ``"random"`` —
        per-site i.i.d. chirality from the driver's RNG; ``"left"`` /
        ``"right"`` — fixed.
    """

    rows: int
    cols: int
    rest_particles: bool = False
    boundary: str = "periodic"
    chirality: str = "alternate"
    saturated: bool = False

    def __post_init__(self) -> None:
        self.rows = check_positive(self.rows, "rows", integer=True)
        self.cols = check_positive(self.cols, "cols", integer=True)
        if self.boundary not in ("periodic", "null", "reflecting"):
            raise ValueError(
                f"boundary={self.boundary!r} must be periodic, null, or reflecting"
            )
        if self.boundary == "periodic" and self.rows % 2:
            raise ConfigError(
                "periodic FHP lattices need an even number of rows "
                "(the half-cell row offset must tile the torus)"
            )
        if self.chirality not in ("alternate", "random", "left", "right"):
            raise ValueError(
                f"chirality={self.chirality!r} must be alternate, random, left, or right"
            )
        if self.saturated:
            if not self.rest_particles:
                raise ValueError(
                    "the collision-saturated table is 7-bit; set rest_particles=True"
                )
            self._left, self._right = fhp_saturated_tables()
        elif self.rest_particles:
            self._left, self._right = fhp7_collision_tables()
        else:
            self._left, self._right = fhp6_collision_tables()
        if self.boundary == "reflecting":
            self._tgt_invalid = self._target_invalid_masks()

    # -- public metadata ----------------------------------------------------

    @property
    def num_channels(self) -> int:
        return 7 if self.rest_particles else 6

    @property
    def bits_per_site(self) -> int:
        """Site state width D (the paper budgets D=8 for FHP + flags)."""
        return self.num_channels

    @property
    def velocities(self) -> np.ndarray:
        return (FHP7_VELOCITIES if self.rest_particles else FHP_VELOCITIES).copy()

    @property
    def collision_tables(self) -> tuple[CollisionTable, CollisionTable]:
        return self._left, self._right

    def check_state(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state)
        if state.shape != (self.rows, self.cols):
            raise ValueError(
                f"state shape {state.shape} != grid shape {(self.rows, self.cols)}"
            )
        limit = 1 << self.num_channels
        if state.max(initial=0) >= limit:
            raise ValueError(f"FHP states must fit in {self.num_channels} bits")
        return state.astype(np.uint8, copy=False)

    # -- chirality ----------------------------------------------------------

    def chirality_field(
        self, t: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Boolean field: True where the *left* table applies at time ``t``."""
        if self.chirality == "left":
            return np.ones((self.rows, self.cols), dtype=bool)
        if self.chirality == "right":
            return np.zeros((self.rows, self.cols), dtype=bool)
        if self.chirality == "random":
            if rng is None:
                raise ValueError("chirality='random' requires an rng")
            return rng.integers(0, 2, size=(self.rows, self.cols)).astype(bool)
        # "alternate": site-checkerboard XOR time parity.  Deterministic,
        # zero storage in hardware (one XOR of coordinate/time parities),
        # and unbiased over any two consecutive steps.
        r = np.arange(self.rows)[:, None]
        c = np.arange(self.cols)[None, :]
        return ((r + c + t) % 2).astype(bool)

    # -- dynamics -----------------------------------------------------------

    def _chirality_mask(
        self, t: int, rng: np.random.Generator | None
    ) -> np.ndarray:
        """Like :meth:`chirality_field`, but cached for the deterministic
        policies so steady-state stepping does not allocate.  Callers must
        not mutate the result."""
        if self.chirality == "random":
            return self.chirality_field(t, rng)
        cache = getattr(self, "_chirality_cache", None)
        if cache is None:
            cache = {}
            self._chirality_cache: dict[int, np.ndarray] = cache
        key = t % 2 if self.chirality == "alternate" else 0
        mask = cache.get(key)
        if mask is None:
            mask = self.chirality_field(t, rng)
            mask.setflags(write=False)
            cache[key] = mask
        return mask

    def collide(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
        *,
        out: np.ndarray | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Apply FHP collisions with the configured chirality policy.

        ``out`` (which must not alias ``state``) receives the result
        without allocating; ``check=False`` skips input validation when
        the caller has already validated.
        """
        if check:
            state = self.check_state(state)
        left_mask = self._chirality_mask(t, rng)
        out_left = self._left(state, out=self._scratch("collide_left", state.dtype))
        out_right = self._right(state, out=self._scratch("collide_right", state.dtype))
        if out is None:
            out = np.empty_like(state)
        np.copyto(out, out_right)
        np.copyto(out, out_left, where=left_mask)
        return out

    def propagate(
        self,
        state: np.ndarray,
        *,
        out: np.ndarray | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Move every particle along its velocity on the hexagonal grid.

        ``out`` (not aliasing ``state``) receives the packed result;
        channel-plane scratch is reused across calls.
        """
        if check:
            state = self.check_state(state)
        channels = unpack_channels(
            state, self.num_channels, out=self._scratch("ch_in", np.uint8)
        )
        planes = self._scratch("ch_out", np.uint8)
        stage = self._scratch("stage", np.uint8)
        if self.rest_particles:
            np.copyto(planes[6], channels[6])  # rest particles stay put
        for ch in range(6):
            dc_even, dc_odd = _COL_OFFSET_EVEN[ch], _COL_OFFSET_ODD[ch]
            # The column offset depends on the *source* row's parity, so
            # even and odd rows shift separately before the row move.
            if dc_even == dc_odd:
                shift_plane_into(channels[ch], stage, 0, dc_even, self.boundary)
            else:
                shift_plane_into(
                    channels[ch][0::2], stage[0::2], 0, dc_even, self.boundary
                )
                shift_plane_into(
                    channels[ch][1::2], stage[1::2], 0, dc_odd, self.boundary
                )
            shift_plane_into(stage, planes[ch], _ROW_OFFSET[ch], 0, self.boundary)
        if self.boundary == "reflecting":
            bounced = self._scratch("bounced", np.uint8)[0]
            for ch in range(6):
                opposite = (ch + 3) % 6
                np.bitwise_and(channels[ch], self._tgt_invalid[ch], out=bounced)
                planes[opposite] |= bounced
        if out is None:
            out = np.zeros_like(state)
        return pack_channels(planes, out=out, check=False)

    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One generation: collide (at time ``t``), then propagate
        (validates input once, not per sub-kernel)."""
        state = self.check_state(state)
        return self.propagate(self.collide(state, t, rng, check=False), check=False)

    def _scratch(self, key: str, dtype: np.dtype | type) -> np.ndarray:
        """Lazily allocated per-model scratch buffers (keyed by use)."""
        buffers = getattr(self, "_scratch_buffers", None)
        if buffers is None:
            buffers = {}
            self._scratch_buffers: dict[tuple[str, np.dtype], np.ndarray] = buffers
        dt = np.dtype(dtype)
        buf = buffers.get((key, dt))
        if buf is None:
            if key in ("ch_in", "ch_out"):
                shape: tuple[int, ...] = (self.num_channels, self.rows, self.cols)
            elif key == "bounced":
                shape = (1, self.rows, self.cols)
            else:
                shape = (self.rows, self.cols)
            buf = np.empty(shape, dtype=dt)
            buffers[(key, dt)] = buf
        return buf

    def _target_invalid_masks(self) -> np.ndarray:
        """Per channel, the source sites whose forward target leaves the
        grid (uint8, one plane per moving channel) — the bounce-back
        sites of a reflecting wall."""
        masks = np.zeros((6, self.rows, self.cols), dtype=np.uint8)
        for ch, mask in enumerate(masks):
            if _ROW_OFFSET[ch] < 0:
                mask[0] = 1
            elif _ROW_OFFSET[ch] > 0:
                mask[-1] = 1
            for parity, dc in enumerate((_COL_OFFSET_EVEN[ch], _COL_OFFSET_ODD[ch])):
                if dc > 0:
                    mask[parity::2, -1] = 1
                elif dc < 0:
                    mask[parity::2, 0] = 1
        return masks
