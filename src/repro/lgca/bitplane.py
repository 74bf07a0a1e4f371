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
:class:`repro.lgca.collision.CollisionTable` pair: every state ``s`` a
table changes contributes one *flip term* — the minterm recognizing
``s`` ANDed across planes, XOR-ed into every output channel in
``s ^ table[s]``.  Minterms of distinct states are disjoint, so the
compiled expression computes exactly the table.  The terms compile to
one straight-line :class:`CollideProgram` (shared prefix ANDs, one
minterm per changing state, chirality as a mask on its flips), and
construction re-checks it by evaluating it over all ``2^C`` states
(:func:`verify_plane_logic`).  Any conserving rule set — HPP, the FHP
chirality variants, the collision-saturated tables — compiles this way.
Collision is pointwise, so the program runs over row bands sized to
:data:`BAND_BUDGET_BYTES` of cache.

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
    "split_chirality_terms",
    "BAND_BUDGET_BYTES",
    "CollideProgram",
    "compile_program",
    "verify_plane_logic",
    "alternate_chirality_planes",
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


#: Bytes a collide band's live planes may occupy: the 2 MiB per-core L2
#: of the reference box (2 CPUs, 2 MiB of L2 each).  Collide is
#: pointwise, so it runs over row bands with no halo; a band is as many
#: rows as fit this budget across its live planes (inputs, outputs,
#: scratch and masks), so after a band's first read every op of the
#: program works on planes held in L2.
BAND_BUDGET_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class CollideProgram:
    """A collision table pair compiled to one straight-line plane program.

    The program reads ``C`` input planes, their complements and,
    when the chiralities differ, a mask ``M`` set where the left table
    applies; it writes ``C`` output planes.  Each state either table
    changes contributes one minterm, computed once.  Minterms share
    their prefix ANDs along one channel order, and minterms that flip
    the same channel sets are ORed into one group value ``g``.  A
    group XORs ``g`` into the channels both chiralities flip, ``g & M``
    into the left-only ones and ``g & ~M`` (as ``g ^ (g & M)``) into
    the right-only ones.  Minterms of distinct states are disjoint, so
    XOR-accumulation is exact.

    Registers are numbered ``[inputs | scratch | mask | outputs]``, and
    the scratch block starts with the ``C`` complements.  An op is
    ``(ufunc, dst, a, b)``, evaluated as ``ufunc(r[a], r[b], out=r[dst])``.
    """

    num_channels: int
    ops: tuple[tuple[np.ufunc, int, int, int], ...]
    scratch_planes: int
    passthrough: tuple[int, ...]
    uses_mask: bool

    @property
    def passes(self) -> int:
        """Whole-plane array ops per evaluation: complements, ops, copies."""
        return self.num_channels + len(self.ops) + len(self.passthrough)


def _channels(bits: int) -> tuple[int, ...]:
    return tuple(ch for ch in range(bits.bit_length()) if (bits >> ch) & 1)


def _greedy_order(groups: list[list[int]], num_channels: int) -> tuple[int, ...]:
    """A channel order whose prefixes the groups' minterms share well.

    Greedy, O(C^2 * terms): each next channel is the one that leaves
    the fewest distinct prefixes (AND results) at the next depth.
    """
    order: list[int] = []
    chosen = 0
    for _ in range(num_channels):

        def prefixes(ch: int) -> int:
            bits = chosen | 1 << ch
            return sum(len({s & bits for s in group}) for group in groups)

        ch = min((c for c in range(num_channels) if not (chosen >> c) & 1), key=prefixes)
        order.append(ch)
        chosen |= 1 << ch
    return tuple(order)


class _Emitter:
    """Builds a :class:`CollideProgram`'s ops and tracks register use."""

    def __init__(self, num_channels: int, order: tuple[int, ...]):
        c = num_channels
        self.c = c
        self.order = order
        self.level = 2 * c  # prefix of d literals (d >= 2): level + d - 2
        self.acc = 3 * c - 1
        self.tmp = 3 * c
        self.mask = 3 * c + 1
        self.out = 3 * c + 2
        self.ops: list[tuple[np.ufunc, int, int, int]] = []
        self.written: set[int] = set()  # output channels flipped so far
        self.value: int | None = None  # register of the group's OR so far

    def emit(self, groups: dict[tuple[int, int, int], list[int]]) -> CollideProgram:
        uses_mask = False
        for (both, left, right), states in groups.items():
            self.value = None
            self._visit(0, None, states, positive=False)
            g = self.value
            assert g is not None
            for ch in _channels(both):
                self._flip(ch, g)
            if left or right:
                uses_mask = True
                self.ops.append((np.bitwise_and, self.tmp, g, self.mask))
                for ch in _channels(left):
                    self._flip(ch, self.tmp)
                if right:
                    self.ops.append((np.bitwise_xor, self.tmp, g, self.tmp))
                    for ch in _channels(right):
                        self._flip(ch, self.tmp)
        c = self.c
        return CollideProgram(
            num_channels=c,
            ops=tuple(self.ops),
            scratch_planes=self.mask - c,
            passthrough=tuple(ch for ch in range(c) if ch not in self.written),
            uses_mask=uses_mask,
        )

    def _visit(self, depth: int, node: int | None, states: list[int], positive: bool) -> None:
        """Emit the prefix tree under ``node`` (``depth`` literals) for ``states``.

        A prefix every completion of which is in the group is a leaf:
        its AND already is the OR of those minterms.
        """
        ch = self.order[depth]
        for bit in (1, 0):
            sub = [s for s in states if (s >> ch) & 1 == bit]
            if not sub:
                continue
            literal = ch if bit else self.c + ch
            pos = positive or bit == 1
            leaf = len(sub) == 1 << (self.c - depth - 1)
            if node is None:
                child = literal
            else:
                child = self.acc if leaf and self.value is None else self.level + depth - 1
                self.ops.append((np.bitwise_and, child, node, literal))
            if not leaf:
                self._visit(depth + 1, child, sub, pos)
                continue
            if not pos:
                # Only a positive literal keeps tail padding out of flips.
                raise ValueError("a flip term without a particle cannot change")
            if self.value is None:
                self.value = child
            else:
                self.ops.append((np.bitwise_or, self.acc, self.value, child))
                self.value = self.acc

    def _flip(self, ch: int, reg: int) -> None:
        # The first flip of a channel XORs its input into the output.
        source = self.out + ch if ch in self.written else ch
        self.ops.append((np.bitwise_xor, self.out + ch, source, reg))
        self.written.add(ch)


def compile_program(
    common: tuple[FlipTerm, ...],
    only_left: tuple[FlipTerm, ...] = (),
    only_right: tuple[FlipTerm, ...] = (),
    *,
    num_channels: int,
) -> CollideProgram:
    """Compile the terms of :func:`split_chirality_terms` to one program."""
    flips: dict[int, list[int]] = {}
    for term in common:
        flips[term.state] = [term.flips, term.flips]
    for term in only_left:
        flips.setdefault(term.state, [0, 0])[0] = term.flips
    for term in only_right:
        flips.setdefault(term.state, [0, 0])[1] = term.flips
    groups: dict[tuple[int, int, int], list[int]] = {}
    for state, (left, right) in sorted(flips.items()):
        groups.setdefault((left & right, left & ~right, right & ~left), []).append(state)
    order = _greedy_order(list(groups.values()), num_channels)
    return _Emitter(num_channels, order).emit(groups)


def _evaluate(
    program: CollideProgram,
    src: np.ndarray,
    dst: np.ndarray,
    mask: np.ndarray | None,
    scratch: np.ndarray,
) -> None:
    """Run ``program`` on ``(C, rows, W)`` planes ``src`` into ``dst``.

    ``mask`` is the ``(rows, W)`` left-chirality plane (unused, and may
    be None, unless ``program.uses_mask``); ``scratch`` holds
    ``program.scratch_planes`` planes of the same shape.
    """
    num_channels = program.num_channels
    np.bitwise_not(src, out=scratch[:num_channels])
    regs = [*src, *scratch, mask, *dst]
    for ufunc, d, a, b in program.ops:
        ufunc(regs[a], regs[b], out=regs[d])
    for ch in program.passthrough:
        np.copyto(dst[ch], src[ch])


def verify_plane_logic(
    program: CollideProgram,
    left: CollisionTable,
    right: CollisionTable | None = None,
) -> None:
    """Check a compiled program against its tables over **all** states.

    Evaluates ``program`` with the routine ``collide_into`` runs, on a
    one-row field enumerating every state: with the chirality mask all
    ones against ``left``, and, given ``right``, with it all zeros
    against ``right``.  Raises ``ValueError`` on any divergence, so a
    kernel holding a program is as trustworthy as the verified tables
    it came from.
    """
    num_channels = program.num_channels
    n = 1 << num_channels
    states = np.arange(n, dtype=np.uint16).reshape(1, n)
    planes = pack_state(states, num_channels)
    out = np.empty_like(planes)
    scratch = np.empty((program.scratch_planes,) + planes.shape[1:], dtype=np.uint64)
    ones = pack_plane(np.ones((1, n), dtype=np.uint8))
    checks = [(left, ones)] if right is None else [(left, ones), (right, np.zeros_like(ones))]
    for table, mask in checks:
        if table.num_channels != num_channels:
            raise ValueError(
                f"table {table.name!r} has {table.num_channels} channels, "
                f"the program {num_channels}"
            )
        _evaluate(program, planes, out, mask, scratch)
        got = unpack_state(out, n)
        expected = table.table[states].astype(got.dtype)
        if not np.array_equal(got, expected):
            bad = int(np.nonzero(got != expected)[1][0])
            raise ValueError(
                f"plane-compiled logic diverges from table {table.name!r} at state "
                f"{bad:#x}: {int(got[0, bad]):#x} != {int(expected[0, bad]):#x}"
            )


def alternate_chirality_planes(rows: int, cols: int) -> np.ndarray:
    """Packed left masks of ``"alternate"`` chirality for even and odd ``t``.

    ``(r + c + t) % 2`` selects the left table, so every row is one
    fixed word: odd columns (``0xAAAA...``) where ``r + t`` is even,
    even columns (``0x5555...``) where it is odd.  Returns
    ``(2, rows, W)``, entry ``t % 2`` for generation ``t``; tail padding
    is zero.
    """
    planes = np.empty((2, rows, num_words(cols)), dtype=np.uint64)
    planes[0, 0::2] = planes[1, 1::2] = np.uint64(0xAAAAAAAAAAAAAAAA)
    planes[0, 1::2] = planes[1, 0::2] = np.uint64(0x5555555555555555)
    planes[:, :, -1] &= _tail_mask(cols)
    return planes


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

        # -- collide program, mechanically compiled and cross-checked ---------
        if isinstance(model, FHPModel):
            left, right = model.collision_tables
            tables = {"left": (left,), "right": (right,)}.get(
                model.chirality, (left, right)
            )
            self._kind = "fhp"
        else:
            tables = (model.collision_table,)
            self._kind = "hpp"
        # One table splits into common terms only.
        self.program = compile_program(
            *split_chirality_terms(tables[0], tables[-1]),
            num_channels=self.num_channels,
        )
        verify_plane_logic(self.program, *tables)

        # -- masks -------------------------------------------------------------
        self._rand_m: np.ndarray | None = None
        if self.program.uses_mask:
            if model.chirality == "random":  # type: ignore[union-attr]
                self._rand_m = np.empty(shape, dtype=np.uint64)
            else:
                self._alt_masks = alternate_chirality_planes(rows, self.cols)
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
        program = self.program
        # A band's live planes: inputs, outputs, scratch, mask, obstacles.
        live = 2 * num_channels + program.scratch_planes + program.uses_mask
        live += 2 * (self._solid is not None)
        #: Rows per collide band (the last band may be shorter).
        self.band_rows = band = max(1, min(rows, BAND_BUDGET_BYTES // (live * w * 8)))
        scratch = np.empty((program.scratch_planes, band, w), dtype=np.uint64)
        self._bands = tuple(
            (r0, min(r0 + band, rows), scratch[:, : min(band, rows - r0)])
            for r0 in range(0, rows, band)
        )
        self._scratch = np.empty(shape, dtype=np.uint64)
        self._carry = np.empty(shape, dtype=np.uint64)
        self._stage = np.empty(shape, dtype=np.uint64)
        self._mid = np.empty((num_channels, rows, w), dtype=np.uint64)

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

    def _chirality_mask(self, t: int, rng: np.random.Generator | None) -> np.ndarray:
        """The packed left-chirality plane for generation ``t``."""
        if self._rand_m is None:
            return self._alt_masks[t % 2]
        field = self.model.chirality_field(t, rng)  # type: ignore[union-attr]
        # Random chirality needs a fresh packed mask each generation;
        # this is inherent to the model, not a fixable leak.
        self._rand_m[...] = pack_plane(field)  # repro: alloc-ok
        return self._rand_m

    @hot_path
    def collide_into(
        self,
        planes_in: np.ndarray,
        planes_out: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Boolean-algebra collision: ``out = in XOR flips(in)``, band by band.

        Solid (obstacle) sites bounce back instead, exactly like the
        reference automaton.  ``planes_out`` must not alias ``planes_in``.
        """
        program = self.program
        mask = self._chirality_mask(t, rng) if program.uses_mask else None
        solid = self._solid
        for r0, r1, scratch in self._bands:
            src = planes_in[:, r0:r1]
            dst = planes_out[:, r0:r1]
            _evaluate(program, src, dst, None if mask is None else mask[r0:r1], scratch)
            if solid is not None:
                np.bitwise_and(dst, self._not_solid[r0:r1], out=dst)
                bounced = scratch[0]
                for ch, opposite in enumerate(self._opposite):
                    np.bitwise_and(src[opposite], solid[r0:r1], out=bounced)
                    dst[ch] |= bounced

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

    # -- accounting --------------------------------------------------------------

    @property
    def plane_bytes(self) -> int:
        """Bytes of one ``(rows, W)`` bit-plane."""
        return self.rows * self.words * 8

    @property
    def passes_per_generation(self) -> int:
        """Whole-plane array ops of one :meth:`step_into`: collide plus propagate.

        Computed from the compiled program and the propagate structure,
        not measured.  An op over every band of a plane, or over both
        row-parity halves of one, counts as one pass; row- and
        column-sized edge fixes do not count.
        """
        collide = self.program.passes
        if self._solid is not None:
            collide += 3 * self.num_channels  # mask, bounce, OR per channel
        return collide + self._propagate_passes()

    def _propagate_passes(self) -> int:
        def cols(dc: int) -> int:
            return 1 if dc == 0 else 3  # a copy, or shift + carry + OR

        reflecting = self.boundary == "reflecting"
        if self._kind == "hpp":
            return sum(cols(dc) for _, dc in HPP_OFFSETS) + 4 * reflecting
        passes = 0
        for ch in range(6):
            even, odd = _COL_OFFSET_EVEN[ch], _COL_OFFSET_ODD[ch]
            passes += cols(even) if even == odd else (cols(even) + cols(odd)) // 2
            passes += 1  # the row move
        return passes + (self.num_channels - 6) + 12 * reflecting

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

        ``planes_out`` may be ``planes_in`` (stepping in place): the
        collided intermediate lives in a preallocated internal buffer.
        """
        self.collide_into(planes_in, self._mid, t, rng)
        self.propagate_into(self._mid, planes_out)
