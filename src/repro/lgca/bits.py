"""Packed bit encodings of lattice-gas site states.

A site of a lattice gas holds one bit per velocity channel (the paper's
exclusion principle: "no more than one particle can occupy a given
directed lattice edge"), plus optionally a rest-particle bit and flag
bits (obstacle, boundary).  The whole site state is ``D`` bits — the
``D`` of the pin constraint ``2D·P <= Π`` in section 6.

States are stored as small unsigned integers; fields of states are NumPy
integer arrays.  This module provides the popcount/channel machinery the
collision tables and observables are built from.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "popcount",
    "popcount_table",
    "direction_count",
    "pack_channels",
    "unpack_channels",
    "channel_bit",
    "has_particle",
    "opposite_channels",
    "bounce_back_table",
    "shift_plane_into",
]

_POPCOUNT_CACHE: dict[int, np.ndarray] = {}
_BOUNCE_CACHE: dict[int, np.ndarray] = {}


def opposite_channels(num_channels: int) -> tuple[int, ...]:
    """Velocity-reversal channel map ``i -> opposite(i)``.

    For 6/7-channel FHP, channel ``i`` maps to ``(i + 3) % 6``; for
    4-channel HPP, to ``(i + 2) % 4``.  A rest particle (channel 6) maps
    to itself.
    """
    if num_channels == 4:
        return (2, 3, 0, 1)
    if num_channels == 6:
        return (3, 4, 5, 0, 1, 2)
    if num_channels == 7:
        return (3, 4, 5, 0, 1, 2, 6)
    raise ValueError(f"no bounce-back rule for {num_channels} channels")


def bounce_back_table(num_channels: int) -> np.ndarray:
    """Lookup table reversing every moving particle's velocity.

    The table conserves mass exactly.  Like :func:`popcount_table` it is
    built vectorized (one shift/or pass per channel instead of a
    pure-Python ``2^C`` loop) and cached read-only, since the automaton
    and the bit-plane backend both index it in hot paths.
    """
    table = _BOUNCE_CACHE.get(num_channels)
    if table is None:
        opposite = opposite_channels(num_channels)
        states = np.arange(1 << num_channels, dtype=np.uint16)
        table = np.zeros(states.size, dtype=np.uint16)
        for ch, opp in enumerate(opposite):
            table |= ((states >> np.uint16(ch)) & np.uint16(1)) << np.uint16(opp)
        table.setflags(write=False)
        _BOUNCE_CACHE[num_channels] = table
    return table


def popcount_table(num_bits: int) -> np.ndarray:
    """Lookup table: number of set bits for every state of ``num_bits`` bits.

    The table is cached — lattice-gas kernels index it with full state
    arrays (``table[state_field]``), which is the vectorized popcount.
    """
    num_bits = check_positive(num_bits, "num_bits", integer=True)
    if num_bits > 24:
        raise ValueError(f"num_bits={num_bits} too large for table-driven popcount")
    table = _POPCOUNT_CACHE.get(num_bits)
    if table is None:
        values = np.arange(1 << num_bits, dtype=np.uint32)
        table = np.zeros(1 << num_bits, dtype=np.uint8)
        for bit in range(num_bits):
            table += ((values >> bit) & 1).astype(np.uint8)
        table.setflags(write=False)
        _POPCOUNT_CACHE[num_bits] = table
    return table


def popcount(states: np.ndarray | int, num_bits: int) -> np.ndarray | int:
    """Number of particles at each site (vectorized popcount)."""
    table = popcount_table(num_bits)
    if np.isscalar(states):
        return int(table[int(states)])
    states = np.asarray(states)
    return table[states]


def direction_count(states: np.ndarray | int, direction: int) -> np.ndarray | int:
    """Occupancy (0/1) of velocity channel ``direction``."""
    if direction < 0:
        raise ValueError(f"direction={direction} must be non-negative")
    if np.isscalar(states):
        return (int(states) >> direction) & 1
    states = np.asarray(states)
    return (states >> np.uint8(direction)) & 1


def channel_bit(direction: int) -> int:
    """The mask with only channel ``direction`` set."""
    if direction < 0:
        raise ValueError(f"direction={direction} must be non-negative")
    return 1 << direction


def has_particle(state: int, direction: int) -> bool:
    """Whether ``state`` has a particle moving along ``direction``."""
    return bool((int(state) >> direction) & 1)


def pack_channels(
    channels: np.ndarray, out: np.ndarray | None = None, check: bool = True
) -> np.ndarray:
    """Pack per-channel boolean planes into an integer state field.

    Parameters
    ----------
    channels:
        Boolean/0-1 array of shape ``(num_channels, ...)``.
    out:
        Optional preallocated result array of the trailing shape (used by
        the zero-allocation stepping paths).
    check:
        Validate that non-boolean planes only hold 0/1 values.  Kernels
        whose planes are 0/1 by construction pass ``False``.

    Returns
    -------
    Integer array of the trailing shape, dtype uint8 for <= 8 channels,
    uint16 for <= 16.
    """
    channels = np.asarray(channels)
    if channels.ndim < 1:
        raise ValueError("channels must have a leading channel axis")
    num_channels = channels.shape[0]
    if num_channels == 0:
        raise ValueError("need at least one channel")
    if num_channels > 16:
        raise ValueError(f"{num_channels} channels exceed the 16-bit state limit")
    dtype = np.uint8 if num_channels <= 8 else np.uint16
    if out is None:
        out = np.zeros(channels.shape[1:], dtype=dtype)
    else:
        if out.shape != channels.shape[1:]:
            raise ValueError(f"out has shape {out.shape}, expected {channels.shape[1:]}")
        dtype = out.dtype.type
        out[...] = 0
    for bit in range(num_channels):
        plane = channels[bit]
        if check and plane.dtype != np.bool_:
            bad = (plane != 0) & (plane != 1)
            if np.any(bad):
                raise ValueError(f"channel {bit} has values outside {{0, 1}}")
        out |= (plane.astype(dtype, copy=False)) << dtype(bit)
    return out


def unpack_channels(
    states: np.ndarray, num_channels: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`pack_channels`: per-channel 0/1 planes.

    Returns an array of shape ``(num_channels,) + states.shape`` with
    dtype uint8 (written into ``out`` when given).
    """
    num_channels = check_positive(num_channels, "num_channels", integer=True)
    states = np.asarray(states)
    if out is None:
        out = np.empty((num_channels,) + states.shape, dtype=np.uint8)
    elif out.shape != (num_channels,) + states.shape:
        raise ValueError(
            f"out has shape {out.shape}, expected {(num_channels,) + states.shape}"
        )
    for bit in range(num_channels):
        np.right_shift(states, np.uint8(bit), out=out[bit], casting="unsafe")
        out[bit] &= np.uint8(1)
    return out


def shift_plane_into(
    plane: np.ndarray, out: np.ndarray, dr: int, dc: int, boundary: str
) -> None:
    """Shift a 0/1 channel plane by (dr, dc) into ``out`` (no aliasing).

    For ``"reflecting"`` the plane is shifted with null semantics; the
    caller then re-injects reversed particles at the walls.  Implemented
    with slice assignment so no temporaries are allocated.  Both lattice
    gases propagate with it: HPP moves each channel along one axis, FHP
    shifts even and odd rows by their column offsets, then by the row
    offset.
    """
    if dr != 0 and dc != 0:
        raise ValueError("only single-axis shifts are supported")
    rows, cols = plane.shape
    periodic = boundary == "periodic"
    if not periodic:
        out[...] = 0
    src_r = slice(max(0, -dr), rows - max(0, dr))
    dst_r = slice(max(0, dr), rows - max(0, -dr))
    src_c = slice(max(0, -dc), cols - max(0, dc))
    dst_c = slice(max(0, dc), cols - max(0, -dc))
    out[dst_r, dst_c] = plane[src_r, src_c]
    if periodic:
        # Wrap the rows/columns the block copy above left out.
        if dr > 0:
            out[:dr, dst_c] = plane[rows - dr :, src_c]
        elif dr < 0:
            out[dr:, dst_c] = plane[:-dr, src_c]
        if dc > 0:
            out[:, :dc] = plane[:, cols - dc :]
        elif dc < 0:
            out[:, dc:] = plane[:, :-dc]
