"""Multi-spin coded (bit-plane) LGCA kernels: 64 sites per machine word.

The reference kernels store one site per ``uint8`` and look collisions up
in a ``2^C`` table.  Real CA hardware — and the fastest software
implementations — instead store one lattice site per *bit*: the state
field becomes ``C`` *bit-planes* (one per velocity channel), each a
``(rows, ceil(cols/64))`` array of ``uint64`` words holding 64
column-sites apiece.  Collision becomes pure boolean algebra evaluated
64 sites at a time, and propagation becomes word-level shifts with carry
bits exchanged between adjacent words.  This is the multi-spin coding of
the lattice-gas literature and the natural software analogue of the
paper's bit-serial PE arrays.

The collision logic is **derived mechanically** from the verified
:class:`repro.lgca.collision.CollisionTable`: every state ``s`` the table
changes contributes one *flip term* — the minterm recognizing ``s``
ANDed across planes, XOR-ed into every output channel in
``s ^ table[s]``.  Minterms of distinct states are disjoint, so the
compiled expression computes exactly the table; construction re-checks
this by evaluating the compiled logic over all ``2^C`` states
(:func:`verify_plane_logic`).  Any conserving rule set — HPP, the FHP
chirality variants, the collision-saturated tables — compiles this way.

Storage layout: bit ``j`` of word ``w`` of row ``r`` in a plane is lattice
site ``(r, 64*w + j)``.  Bits at column positions ``>= cols`` (the tail
padding of the last word) are kept zero as a module invariant; every
kernel preserves it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.lgca.bits import opposite_channels
from repro.util.hotpath import hot_path
from repro.lgca.collision import CollisionTable
from repro.lgca.fhp import (
    _COL_OFFSET_EVEN,
    _COL_OFFSET_ODD,
    _ROW_OFFSET,
    FHPModel,
)
from repro.lgca.hpp import HPP_OFFSETS, HPPModel

__all__ = [
    "WORD_BITS",
    "num_words",
    "pack_plane",
    "unpack_plane",
    "pack_state",
    "unpack_state",
    "FlipTerm",
    "flip_terms",
    "split_chirality_terms",
    "verify_plane_logic",
    "BitplaneKernel",
]

#: Sites stored per machine word (one lattice site per bit of a uint64).
WORD_BITS = 64

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def num_words(cols: int) -> int:
    """Words per bit-plane row: ``ceil(cols / 64)``."""
    if cols < 1:
        raise ValueError(f"cols={cols} must be positive")
    return (cols + WORD_BITS - 1) // WORD_BITS


def _tail_mask(cols: int) -> np.uint64:
    """Mask of valid bits in the last word of a row (all-ones iff 64 | cols)."""
    rem = cols % WORD_BITS
    if rem == 0:
        return _FULL
    return np.uint64((1 << rem) - 1)


_LITTLE_ENDIAN = sys.byteorder == "little"


def _bytes_to_words(buf: np.ndarray) -> np.ndarray:
    """Reinterpret ``(..., W*8)`` little-endian bytes as ``(..., W)`` uint64.

    On little-endian hosts (the overwhelmingly common case) this is a
    free ``view``; elsewhere the words are assembled with explicit byte
    shifts so the bit layout is identical on every platform.
    """
    if _LITTLE_ENDIAN:
        return buf.view(np.uint64)
    grouped = buf.reshape(buf.shape[:-1] + (buf.shape[-1] // 8, 8))
    words = np.zeros(grouped.shape[:-1], dtype=np.uint64)
    for i in range(8):
        words |= grouped[..., i].astype(np.uint64) << np.uint64(8 * i)
    return words


def _words_to_bytes(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_bytes_to_words` (words must be C-contiguous)."""
    if _LITTLE_ENDIAN:
        return words.view(np.uint8)
    buf = np.empty(words.shape[:-1] + (words.shape[-1] * 8,), dtype=np.uint8)
    grouped = buf.reshape(words.shape + (8,))
    for i in range(8):
        np.right_shift(words, np.uint64(8 * i), out=grouped[..., i], casting="unsafe")
    return buf


def pack_plane(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 plane of shape ``(rows, cols)`` into ``(rows, W)`` uint64.

    Bit ``j`` of word ``w`` is column ``64*w + j``; tail padding is zero.
    The layout is little-endian within the word on every platform.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("plane must be 2-D")
    rows, cols = bits.shape
    w = num_words(cols)
    packed = np.packbits(bits.astype(np.uint8, copy=False), axis=1, bitorder="little")
    buf = np.zeros((rows, w * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return _bytes_to_words(buf)


def unpack_plane(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_plane`: ``(rows, W)`` words to 0/1 uint8."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    rows, w = words.shape
    if num_words(cols) != w:
        raise ValueError(f"{w} words cannot hold {cols} columns")
    bits = np.unpackbits(_words_to_bytes(words), axis=1, bitorder="little")
    return bits[:, :cols]


#: One set bit per byte lane of a uint64 — the {0,1}-byte SIMD mask.
_LANES = np.uint64(0x0101010101010101)


def _split_channels(state: np.ndarray, bits: np.ndarray) -> None:
    """Extract channel bit ``ch`` of every site byte into ``bits[ch]``.

    ``state`` is a C-contiguous uint8 field, ``bits`` is ``(C, n)``
    uint8.  Bulk work happens on uint64 views — each 64-bit lane holds 8
    site bytes, and because every extracted byte is in {0, 1}, shifts by
    ``ch < 8`` never carry across byte lanes (endian-independent).
    """
    num_channels = bits.shape[0]
    flat = state.reshape(-1)
    n = flat.size
    n8 = n - n % 8
    for ch in range(num_channels):
        if n8:
            d64 = bits[ch, :n8].view(np.uint64)
            np.right_shift(flat[:n8].view(np.uint64), np.uint64(ch), out=d64)
            d64 &= _LANES
        if n8 < n:
            np.right_shift(flat[n8:], np.uint8(ch), out=bits[ch, n8:])
            bits[ch, n8:] &= np.uint8(1)


def _join_channels(bits: np.ndarray, out: np.ndarray) -> None:
    """Inverse of :func:`_split_channels`; consumes (mutates) ``bits``."""
    num_channels = bits.shape[0]
    flat = out.reshape(-1)
    flat[...] = 0
    n = flat.size
    n8 = n - n % 8
    for ch in range(num_channels):
        if n8:
            b64 = bits[ch, :n8].view(np.uint64)
            np.left_shift(b64, np.uint64(ch), out=b64)
            flat[:n8].view(np.uint64)[...] |= b64
        if n8 < n:
            np.left_shift(bits[ch, n8:], np.uint8(ch), out=bits[ch, n8:])
            flat[n8:] |= bits[ch, n8:]


def pack_state(state: np.ndarray, num_channels: int) -> np.ndarray:
    """Pack an integer site-state field into ``(C, rows, W)`` bit-planes."""
    state = np.asarray(state)
    if state.ndim != 2:
        raise ValueError("state must be 2-D")
    rows, cols = state.shape
    w = num_words(cols)
    if num_channels <= 8:
        # Fast path: byte-lane channel split, then one packbits pass.
        state8 = np.ascontiguousarray(state, dtype=np.uint8)
        bits = np.empty((num_channels, rows * cols), dtype=np.uint8)
        _split_channels(state8, bits)
        packed = np.packbits(
            bits.reshape(num_channels, rows, cols), axis=2, bitorder="little"
        )
        if packed.shape[2] == w * 8:  # word-aligned: no padding copy needed
            return _bytes_to_words(packed)
        buf = np.zeros((num_channels, rows, w * 8), dtype=np.uint8)
        buf[:, :, : packed.shape[2]] = packed
        return _bytes_to_words(buf)
    planes = np.zeros((num_channels, rows, w), dtype=np.uint64)
    chbits = np.empty((rows, cols), dtype=np.uint8)
    for ch in range(num_channels):
        np.right_shift(state, ch, out=chbits, casting="unsafe")
        chbits &= np.uint8(1)
        planes[ch] = pack_plane(chbits)
    return planes


def unpack_state(
    planes: np.ndarray, cols: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`pack_state`: bit-planes to a packed site field.

    Returns dtype uint8 for <= 8 channels, uint16 otherwise.
    """
    planes = np.ascontiguousarray(planes, dtype=np.uint64)
    num_channels, rows, w = planes.shape
    dtype: type = np.uint8 if num_channels <= 8 else np.uint16
    if out is None:
        out = np.empty((rows, cols), dtype=dtype)
    else:
        if out.shape != (rows, cols):
            raise ValueError(f"out has shape {out.shape}, expected {(rows, cols)}")
        dtype = out.dtype.type
    # count=cols keeps the unpacked planes contiguous (tail bits dropped).
    bits = np.unpackbits(
        _words_to_bytes(planes).reshape(num_channels, rows, w * 8),
        axis=2,
        bitorder="little",
        count=cols,
    )
    if dtype == np.uint8:
        _join_channels(bits.reshape(num_channels, rows * cols), out)
        return out
    out[...] = 0
    for ch in range(num_channels):
        out |= bits[ch].astype(dtype) << dtype(ch)
    return out


# -- compiled collision logic -------------------------------------------------


@dataclass(frozen=True)
class FlipTerm:
    """One changing table entry as plane logic.

    The minterm of ``state`` (AND of ``pos`` planes and ``neg``
    complements) is XOR-ed into every channel in ``flip_channels``.
    ``pos`` is never empty: mass conservation forces ``table[0] == 0``,
    so every changing state holds at least one particle — which also
    guarantees the minterm never sets tail-padding bits.
    """

    state: int
    flips: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    flip_channels: tuple[int, ...]


def _make_term(state: int, out_state: int, num_channels: int) -> FlipTerm:
    flips = state ^ out_state
    pos = tuple(ch for ch in range(num_channels) if (state >> ch) & 1)
    neg = tuple(ch for ch in range(num_channels) if not (state >> ch) & 1)
    if not pos:
        raise ValueError("state 0 cannot change under a mass-conserving table")
    return FlipTerm(
        state=state,
        flips=flips,
        pos=pos,
        neg=neg,
        flip_channels=tuple(ch for ch in range(num_channels) if (flips >> ch) & 1),
    )


def flip_terms(table: CollisionTable) -> tuple[FlipTerm, ...]:
    """Compile a collision table to its flip terms (changing states only)."""
    num_channels = table.num_channels
    return tuple(
        _make_term(s, int(table.table[s]), num_channels)
        for s in range(table.num_states)
        if int(table.table[s]) != s
    )


def split_chirality_terms(
    left: CollisionTable, right: CollisionTable
) -> tuple[tuple[FlipTerm, ...], tuple[FlipTerm, ...], tuple[FlipTerm, ...]]:
    """Factor a chirality pair into (common, left-only, right-only) terms.

    States both tables move identically (e.g. the three-body triads) are
    evaluated once instead of once per chirality.
    """
    if left.num_channels != right.num_channels:
        raise ValueError("chirality tables must share a channel set")
    num_channels = left.num_channels
    common: list[FlipTerm] = []
    only_left: list[FlipTerm] = []
    only_right: list[FlipTerm] = []
    for s in range(left.num_states):
        out_l = int(left.table[s])
        out_r = int(right.table[s])
        if out_l == s and out_r == s:
            continue
        if out_l == out_r:
            common.append(_make_term(s, out_l, num_channels))
            continue
        if out_l != s:
            only_left.append(_make_term(s, out_l, num_channels))
        if out_r != s:
            only_right.append(_make_term(s, out_r, num_channels))
    return tuple(common), tuple(only_left), tuple(only_right)


def _accumulate_flips(
    terms: tuple[FlipTerm, ...],
    planes: np.ndarray,
    comps: np.ndarray,
    acc: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """OR every term's minterm into the flip planes of its channels.

    ``planes``/``comps``/``acc`` are ``(C, rows, W)``; ``scratch`` is one
    ``(rows, W)`` plane.  The first factor is always a positive literal,
    which keeps tail padding clear throughout.
    """
    for term in terms:
        np.copyto(scratch, planes[term.pos[0]])
        for ch in term.pos[1:]:
            scratch &= planes[ch]
        for ch in term.neg:
            scratch &= comps[ch]
        for ch in term.flip_channels:
            acc[ch] |= scratch


def verify_plane_logic(table: CollisionTable, terms: tuple[FlipTerm, ...]) -> None:
    """Check compiled flip terms against the table over **all** states.

    Runs the exact vectorized accumulation the kernel uses on a one-row
    field enumerating every state, and compares the XOR-reconstructed
    outputs entry by entry.  Raises ``ValueError`` on any divergence, so
    a kernel holding compiled terms is as trustworthy as the verified
    table it came from.
    """
    num_channels = table.num_channels
    n = table.num_states
    states = np.arange(n, dtype=np.uint16).reshape(1, n)
    planes = pack_state(states, num_channels)
    comps = np.bitwise_not(planes)
    flips = np.zeros_like(planes)
    scratch = np.empty_like(planes[0])
    _accumulate_flips(terms, planes, comps, flips, scratch)
    out = unpack_state(np.bitwise_xor(planes, flips), n)
    expected = table.table[states].astype(out.dtype)
    if not np.array_equal(out, expected):
        bad = int(np.nonzero(out != expected)[1][0])
        raise ValueError(
            f"plane-compiled logic diverges from table {table.name!r} at state "
            f"{bad:#x}: {int(out[0, bad]):#x} != {int(expected[0, bad]):#x}"
        )


# -- word-level shifts --------------------------------------------------------


def _shift_cols_into(
    src: np.ndarray,
    dst: np.ndarray,
    dc: int,
    cols: int,
    periodic: bool,
    carry: np.ndarray,
) -> None:
    """Shift plane columns by ``dc`` (|dc| <= 1) into ``dst`` (no aliasing).

    Word-level shift with carry bits exchanged between adjacent words;
    ``carry`` is a scratch array of the same shape.  Non-periodic shifts
    zero-fill (null semantics); tail padding stays clear.
    """
    if dc == 0:
        np.copyto(dst, src)
        return
    last = np.uint64((cols - 1) % WORD_BITS)
    if dc == 1:
        np.left_shift(src, _ONE, out=dst)
        np.right_shift(src, np.uint64(WORD_BITS - 1), out=carry)
        dst[:, 1:] |= carry[:, :-1]
        if periodic:
            np.right_shift(src[:, -1], last, out=carry[:, 0])
            carry[:, 0] &= _ONE
            dst[:, 0] |= carry[:, 0]
        dst[:, -1] &= _tail_mask(cols)
    elif dc == -1:
        np.right_shift(src, _ONE, out=dst)
        np.left_shift(src, np.uint64(WORD_BITS - 1), out=carry)
        dst[:, :-1] |= carry[:, 1:]
        if periodic:
            np.bitwise_and(src[:, 0], _ONE, out=carry[:, 0])
            np.left_shift(carry[:, 0], last, out=carry[:, 0])
            dst[:, -1] |= carry[:, 0]
    else:
        raise ValueError(f"column shift dc={dc} not in {{-1, 0, 1}}")


def _shift_rows_into(
    src: np.ndarray, dst: np.ndarray, dr: int, periodic: bool
) -> None:
    """Shift plane rows by ``dr`` (|dr| <= 1) into ``dst`` (no aliasing)."""
    if dr == 0:
        np.copyto(dst, src)
    elif dr == 1:
        dst[1:] = src[:-1]
        if periodic:
            dst[0] = src[-1]
        else:
            dst[0] = 0
    elif dr == -1:
        dst[:-1] = src[1:]
        if periodic:
            dst[-1] = src[0]
        else:
            dst[-1] = 0
    else:
        raise ValueError(f"row shift dr={dr} not in {{-1, 0, 1}}")


# -- the kernel ---------------------------------------------------------------


class BitplaneKernel:
    """Bit-plane collide/propagate kernels compiled from a reference model.

    Wraps an :class:`repro.lgca.hpp.HPPModel` or
    :class:`repro.lgca.fhp.FHPModel` (reusing its *verified* collision
    tables, boundary setting, and chirality policy) and evolves states
    held as ``(C, rows, W)`` uint64 bit-planes.  All working storage is
    preallocated at construction, so :meth:`step_into` performs no array
    allocation in steady state.

    Parameters
    ----------
    model:
        The reference model to compile.
    obstacles:
        Optional solid-site mask (an ``ObstacleMap`` or boolean array);
        solid sites bounce back exactly like the reference automaton.
    """

    def __init__(self, model: HPPModel | FHPModel, obstacles: object = None):
        if not isinstance(model, (HPPModel, FHPModel)):
            raise TypeError(
                f"no bit-plane kernel for model type {type(model).__name__}"
            )
        self.model = model
        self.rows = model.rows
        self.cols = model.cols
        self.words = num_words(model.cols)
        self.num_channels = model.num_channels
        self.boundary = model.boundary
        rows, w = self.rows, self.words
        shape = (rows, w)

        # -- collision terms, mechanically compiled and cross-checked ---------
        self._chirality: str | None = None
        if isinstance(model, FHPModel):
            left, right = model.collision_tables
            if model.chirality == "left":
                self._common = flip_terms(left)
                self._left_terms: tuple[FlipTerm, ...] = ()
                self._right_terms: tuple[FlipTerm, ...] = ()
                verify_plane_logic(left, self._common)
            elif model.chirality == "right":
                self._common = flip_terms(right)
                self._left_terms = ()
                self._right_terms = ()
                verify_plane_logic(right, self._common)
            else:
                self._chirality = model.chirality
                self._common, self._left_terms, self._right_terms = (
                    split_chirality_terms(left, right)
                )
                verify_plane_logic(left, self._common + self._left_terms)
                verify_plane_logic(right, self._common + self._right_terms)
            self._kind = "fhp"
        else:
            self._common = flip_terms(model.collision_table)
            self._left_terms = ()
            self._right_terms = ()
            verify_plane_logic(model.collision_table, self._common)
            self._kind = "hpp"

        # -- masks -------------------------------------------------------------
        if self._chirality == "alternate":
            even = model.chirality_field(0)
            odd = model.chirality_field(1)
            self._alt_masks = (
                (pack_plane(even), pack_plane(~even)),
                (pack_plane(odd), pack_plane(~odd)),
            )
        mask = getattr(obstacles, "mask", obstacles)
        if mask is not None and np.any(mask):
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (rows, self.cols):
                raise ValueError(
                    f"obstacle shape {mask.shape} != grid shape {(rows, self.cols)}"
                )
            self._solid: np.ndarray | None = pack_plane(mask)
            self._not_solid = pack_plane(~mask)
            self._opposite = opposite_channels(self.num_channels)
        else:
            self._solid = None
        if self._kind == "fhp" and self.boundary == "reflecting":
            self._tgt_invalid = [pack_plane(m) for m in model._tgt_invalid]
        if self._kind == "hpp":
            first_col = np.zeros((rows, self.cols), dtype=np.uint8)
            first_col[:, 0] = 1
            last_col = np.zeros((rows, self.cols), dtype=np.uint8)
            last_col[:, -1] = 1
            self._first_col = pack_plane(first_col)
            self._last_col = pack_plane(last_col)

        # -- preallocated working storage -------------------------------------
        num_channels = self.num_channels
        self._comps = np.empty((num_channels, rows, w), dtype=np.uint64)
        self._flips = np.empty((num_channels, rows, w), dtype=np.uint64)
        self._scratch = np.empty(shape, dtype=np.uint64)
        self._carry = np.empty(shape, dtype=np.uint64)
        self._stage = np.empty(shape, dtype=np.uint64)
        self._mid = np.empty((num_channels, rows, w), dtype=np.uint64)
        if self._left_terms or self._right_terms:
            self._side = np.empty((num_channels, rows, w), dtype=np.uint64)
        if self._chirality == "random":
            self._rand_m = np.empty(shape, dtype=np.uint64)
            self._rand_not_m = np.empty(shape, dtype=np.uint64)

    # -- plane <-> field conversion -------------------------------------------

    def alloc_planes(self) -> np.ndarray:
        """A zeroed ``(C, rows, W)`` plane buffer for this lattice."""
        return np.zeros(
            (self.num_channels, self.rows, self.words), dtype=np.uint64
        )

    def pack(self, state: np.ndarray) -> np.ndarray:
        """Pack a site-state field into fresh bit-planes."""
        return pack_state(state, self.num_channels)

    def unpack(self, planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unpack bit-planes back into a uint8 site-state field."""
        return unpack_state(planes, self.cols, out=out)

    # -- collision -------------------------------------------------------------

    def _chirality_planes(
        self, t: int, rng: np.random.Generator | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed (left-mask, right-mask) planes for generation ``t``."""
        if self._chirality == "alternate":
            return self._alt_masks[t % 2]
        assert self._chirality == "random"
        field = self.model.chirality_field(t, rng)  # type: ignore[union-attr]
        # Random chirality needs a fresh packed mask each generation;
        # this is inherent to the model, not a fixable leak.
        self._rand_m[...] = pack_plane(field)  # repro: alloc-ok
        self._rand_not_m[...] = pack_plane(~field)  # repro: alloc-ok
        return self._rand_m, self._rand_not_m

    @hot_path
    def collide_into(
        self,
        planes_in: np.ndarray,
        planes_out: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Boolean-algebra collision: ``out = in XOR flips(in)``.

        Solid (obstacle) sites bounce back instead, exactly like the
        reference automaton.  ``planes_out`` must not alias ``planes_in``.
        """
        comps, flips = self._comps, self._flips
        num_channels = self.num_channels
        for ch in range(num_channels):
            np.bitwise_not(planes_in[ch], out=comps[ch])
        flips[...] = 0
        _accumulate_flips(self._common, planes_in, comps, flips, self._scratch)
        if self._left_terms or self._right_terms:
            left_mask, right_mask = self._chirality_planes(t, rng)
            side = self._side
            side[...] = 0
            _accumulate_flips(self._left_terms, planes_in, comps, side, self._scratch)
            for ch in range(num_channels):
                side[ch] &= left_mask
                flips[ch] |= side[ch]
            side[...] = 0
            _accumulate_flips(self._right_terms, planes_in, comps, side, self._scratch)
            for ch in range(num_channels):
                side[ch] &= right_mask
                flips[ch] |= side[ch]
        for ch in range(num_channels):
            np.bitwise_xor(planes_in[ch], flips[ch], out=planes_out[ch])
        if self._solid is not None:
            scratch = self._scratch
            for ch in range(num_channels):
                planes_out[ch] &= self._not_solid
                np.bitwise_and(planes_in[self._opposite[ch]], self._solid, out=scratch)
                planes_out[ch] |= scratch

    # -- propagation -----------------------------------------------------------

    @hot_path
    def propagate_into(self, planes_in: np.ndarray, planes_out: np.ndarray) -> None:
        """Word-shift propagation under the model's boundary condition.

        ``planes_out`` must not alias ``planes_in``.
        """
        if self._kind == "hpp":
            self._propagate_hpp(planes_in, planes_out)
        else:
            self._propagate_fhp(planes_in, planes_out)

    def _propagate_hpp(self, planes_in: np.ndarray, planes_out: np.ndarray) -> None:
        periodic = self.boundary == "periodic"
        for ch, (dr, dc) in enumerate(HPP_OFFSETS):
            if dc != 0:
                _shift_cols_into(
                    planes_in[ch], planes_out[ch], dc, self.cols, periodic, self._carry
                )
            else:
                _shift_rows_into(planes_in[ch], planes_out[ch], dr, periodic)
        if self.boundary == "reflecting":
            scratch = self._scratch
            # +x at the right wall returns as -x (and so on around).
            np.bitwise_and(planes_in[0], self._last_col, out=scratch)
            planes_out[2] |= scratch
            np.bitwise_and(planes_in[2], self._first_col, out=scratch)
            planes_out[0] |= scratch
            planes_out[3][0, :] |= planes_in[1][0, :]
            planes_out[1][-1, :] |= planes_in[3][-1, :]

    def _propagate_fhp(self, planes_in: np.ndarray, planes_out: np.ndarray) -> None:
        periodic = self.boundary == "periodic"
        stage, carry = self._stage, self._carry
        for ch in range(6):
            dr = _ROW_OFFSET[ch]
            dc_even = _COL_OFFSET_EVEN[ch]
            dc_odd = _COL_OFFSET_ODD[ch]
            src = planes_in[ch]
            if dc_even == dc_odd:
                _shift_cols_into(src, stage, dc_even, self.cols, periodic, carry)
            else:
                # Column offset depends on the *source* row's parity, so
                # shift the even/odd row interleaves separately (the
                # shifts are row-local) before moving rows.
                _shift_cols_into(
                    src[0::2], stage[0::2], dc_even, self.cols, periodic, carry[0::2]
                )
                _shift_cols_into(
                    src[1::2], stage[1::2], dc_odd, self.cols, periodic, carry[1::2]
                )
            _shift_rows_into(stage, planes_out[ch], dr, periodic)
        if self.num_channels == 7:
            np.copyto(planes_out[6], planes_in[6])
        if self.boundary == "reflecting":
            scratch = self._scratch
            for ch in range(6):
                np.bitwise_and(planes_in[ch], self._tgt_invalid[ch], out=scratch)
                planes_out[(ch + 3) % 6] |= scratch

    # -- full generation -------------------------------------------------------

    @hot_path
    def step_into(
        self,
        planes_in: np.ndarray,
        planes_out: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        """One generation (collide then propagate), allocation-free.

        ``planes_out`` must not alias ``planes_in``; the collided
        intermediate lives in a preallocated internal buffer.
        """
        self.collide_into(planes_in, self._mid, t, rng)
        self.propagate_into(self._mid, planes_out)
