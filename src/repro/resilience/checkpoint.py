"""Checkpoint/restart for lattice evolutions.

A checkpoint is everything needed to replay deterministically from a
generation boundary: the state, the RNG bit-generator state (for
``chirality="random"`` models), and the generation index.  The state
is a ``(rows, cols)`` site field or, for the supervised runtime's
shards, the slab's ``(C, rows, W)`` packed bit-planes.  Checkpoints
carry their own per-row parity tags
(:func:`~repro.resilience.monitors.row_parity_tags`) so a *corrupted
checkpoint* is detected at restore time instead of silently seeding a
wrong replay, and the error names the corrupted rows.

The store keeps a bounded in-memory ring and can additionally persist
every checkpoint to a directory.  Durable writes are **crash-safe**:
each checkpoint is written to a temporary file, flushed and fsynced,
then moved into place with an atomic rename (and the directory entry
fsynced) — a process killed at any instant mid-checkpoint leaves the
previous restorable frame untouched.  A durable file
(``ckpt-<generation>.ckpt``) is five ``.npy`` records back to back:
generation, state, tags, RNG state as JSON, and a CRC-32 of the
generation and the RNG state — the fields the row tags do not cover.
There is no container checksum over the state, so a flipped bit in the
state or the tags is reported by the tags, row by row.  Restore scans
newest-to-oldest and skips anything unreadable or corrupt, so a torn or
rotted file degrades to an older recovery point, never to a wrong
replay.
"""

from __future__ import annotations

import json
import os
import tokenize
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.resilience.monitors import row_parity_tags
from repro.util.errors import CheckpointError
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["Checkpoint", "CheckpointStore"]

#: Durable checkpoint filename prefix and suffix (``ckpt-<generation>.ckpt``).
_FILE_PREFIX = "ckpt-"
_FILE_SUFFIX = ".ckpt"
_TMP_PREFIX = ".tmp-"


@dataclass(frozen=True)
class Checkpoint:
    """One recovery point: state + RNG state + generation index."""

    generation: int
    state: np.ndarray = field(repr=False)
    rng_state: dict | None = field(default=None, repr=False)
    tags: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def verify(self) -> None:
        """Raise :class:`CheckpointError` naming the rows that rotted."""
        if self.tags is None:
            return
        current = row_parity_tags(self.state)
        if current.shape != self.tags.shape:
            raise CheckpointError(
                f"checkpoint at generation {self.generation} has "
                f"{self.tags.size} row tags for {current.size} rows"
            )
        if not np.array_equal(current, self.tags):
            bad = np.nonzero(current != self.tags)[0]
            raise CheckpointError(
                f"checkpoint at generation {self.generation} is corrupted "
                f"in rows {[int(r) for r in bad]}"
            )


def _checkpoint_path(directory: Path, generation: int) -> Path:
    return directory / f"{_FILE_PREFIX}{generation:012d}{_FILE_SUFFIX}"


def _checkpoint_files(directory: Path) -> list[Path]:
    """Durable checkpoint files, oldest first (temp files excluded)."""
    return sorted(
        p
        for p in directory.iterdir()
        if p.name.startswith(_FILE_PREFIX) and p.suffix == _FILE_SUFFIX
    )


def _meta_check(generation: int, rng_json: str) -> np.ndarray:
    """CRC-32 of the fields the row tags do not cover."""
    return np.asarray(zlib.crc32(f"{generation}:{rng_json}".encode()), dtype=np.uint32)


def _write_durable(directory: Path, cp: Checkpoint) -> Path:
    """Write ``cp`` crash-safely: temp file + fsync + atomic rename."""
    final = _checkpoint_path(directory, cp.generation)
    tmp = directory / f"{_TMP_PREFIX}{final.name}.{os.getpid()}"
    rng_json = "" if cp.rng_state is None else json.dumps(cp.rng_state)
    try:
        with open(tmp, "wb") as fh:
            for array in (
                np.asarray(cp.generation, dtype=np.int64),
                cp.state,
                cp.tags,
                np.asarray(rng_json),
                _meta_check(cp.generation, rng_json),
            ):
                np.save(fh, array, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise CheckpointError(f"cannot persist checkpoint to {final}: {exc}") from exc
    # Make the rename itself durable: fsync the directory entry.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return final  # platform without directory fds; rename already atomic
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return final


def _read_durable(path: Path) -> Checkpoint:
    """Load one durable checkpoint; raises :class:`CheckpointError` if torn or rotted."""
    try:
        with open(path, "rb") as fh:
            generation, state, tags, rng_json, check = (
                np.load(fh, allow_pickle=False) for _ in range(5)
            )
        cp = Checkpoint(generation=int(generation), state=state, tags=tags)
        cp.verify()  # first, so a rotted state or tag names its row
        rng_text = str(rng_json)
        if check != _meta_check(cp.generation, rng_text):
            raise CheckpointError(
                f"checkpoint {path} fails its generation/RNG-state checksum"
            )
        return replace(cp, rng_state=json.loads(rng_text) if rng_text else None)
    # NumPy parses each record's header as Python literal syntax, so a
    # rotted header can also raise the parser's own errors.
    except (
        OSError,
        ValueError,
        EOFError,
        TypeError,
        SyntaxError,
        tokenize.TokenError,
    ) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc


class CheckpointStore:
    """A bounded ring of recent checkpoints, optionally disk-durable.

    Parameters
    ----------
    interval:
        Generations between checkpoints (:meth:`due` answers "now?").
    keep:
        Recovery points retained (in memory and on disk); older ones
        age out.
    directory:
        When set, every :meth:`save` also persists the checkpoint
        crash-safely under this directory, and :meth:`latest` falls back
        to disk when the in-memory ring is empty — which is how a
        *restarted process* (a fresh store pointed at the same
        directory) resumes from its predecessor's last good frame.
    """

    def __init__(
        self,
        interval: int = 8,
        keep: int = 2,
        directory: str | Path | None = None,
    ):
        self.interval = check_positive(interval, "interval", integer=True)
        self.keep = check_positive(keep, "keep", integer=True)
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._ring: list[Checkpoint] = []
        self.saves = 0

    def __len__(self) -> int:
        return len(self._ring)

    def due(self, generation: int) -> bool:
        """Whether ``generation`` falls on a checkpoint boundary."""
        check_nonnegative(generation, "generation", integer=True)
        return generation % self.interval == 0

    def save(
        self,
        generation: int,
        state: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> Checkpoint:
        """Snapshot ``state`` (copied) and the RNG at ``generation``.

        With a ``directory`` configured the snapshot is also written
        durably (temp + fsync + atomic rename) before this returns, so
        a crash at any later instant can restart from it.
        """
        cp = Checkpoint(
            generation=check_nonnegative(generation, "generation", integer=True),
            state=np.asarray(state).copy(),
            rng_state=None if rng is None else dict(rng.bit_generator.state),
            tags=row_parity_tags(state),
        )
        if self.directory is not None:
            _write_durable(self.directory, cp)
            self._prune_durable()
        self._ring.append(cp)
        if len(self._ring) > self.keep:
            self._ring.pop(0)
        self.saves += 1
        return cp

    def _prune_durable(self) -> None:
        assert self.directory is not None
        for path in _checkpoint_files(self.directory)[: -self.keep]:
            path.unlink(missing_ok=True)

    def latest(self) -> Checkpoint:
        """Most recent verified checkpoint (memory ring, then disk).

        Raises
        ------
        CheckpointError
            If no checkpoint exists or every retained one fails its own
            verification (parity mismatch, torn file); the message
            carries each failure, corrupted rows included.
        """
        failures: list[str] = []
        for cp in reversed(self._ring):
            try:
                cp.verify()
            except CheckpointError as exc:
                failures.append(str(exc))
                continue
            return cp
        if self.directory is not None:
            try:
                return self.load_latest(self.directory)
            except CheckpointError as exc:
                if not self._ring:
                    raise
                failures.append(str(exc))
        if not self._ring:
            raise CheckpointError("no checkpoint to restore from")
        raise CheckpointError(
            "every retained checkpoint is corrupted: " + "; ".join(failures)
        )

    @classmethod
    def load_latest(cls, directory: str | Path) -> Checkpoint:
        """Newest intact durable checkpoint under ``directory``.

        Scans newest-to-oldest, skipping torn/corrupt files and
        leftover temporaries, so the survivor of a mid-write crash is
        whatever frame last completed its atomic rename.

        Raises
        ------
        CheckpointError
            When the directory holds no restorable checkpoint; the
            message carries why each file was skipped, corrupted rows
            included.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise CheckpointError(f"no checkpoint directory {directory}")
        failures: list[str] = []
        for path in reversed(_checkpoint_files(directory)):
            try:
                return _read_durable(path)
            except CheckpointError as exc:
                failures.append(str(exc))
        raise CheckpointError(
            f"no restorable checkpoint under {directory}"
            + "".join(f"; {failure}" for failure in failures)
        )

    def restore_rng(self, cp: Checkpoint, rng: np.random.Generator | None) -> None:
        """Rewind ``rng`` to the checkpointed bit-generator state."""
        if rng is not None and cp.rng_state is not None:
            rng.bit_generator.state = cp.rng_state
