"""Tests for checkpoint/restart.

Includes the mandated restart test: an evolution interrupted and
restored from a checkpoint is bit-identical to the uninterrupted run —
including through the RNG state of random-chirality models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.bitplane import pack_state
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.util.errors import CheckpointError

ROWS, COLS = 8, 8


def make_auto(chirality="alternate", seed=7):
    model = FHPModel(ROWS, COLS, boundary="periodic", chirality=chirality)
    state = uniform_random_state(ROWS, COLS, 6, 0.35, np.random.default_rng(3))
    rng = np.random.default_rng(seed) if chirality == "random" else None
    return LatticeGasAutomaton(model, state, rng=rng)


class TestCheckpoint:
    def test_save_copies_state(self):
        store = CheckpointStore()
        state = np.zeros((2, 2), dtype=np.uint8)
        cp = store.save(0, state)
        state[0, 0] = 5
        assert cp.state[0, 0] == 0

    def test_verify_passes_clean(self):
        cp = CheckpointStore().save(0, np.arange(4, dtype=np.uint8).reshape(2, 2))
        cp.verify()

    def test_verify_detects_rot(self):
        cp = CheckpointStore().save(0, np.arange(4, dtype=np.uint8).reshape(2, 2))
        cp.state[1, 0] ^= 1
        with pytest.raises(CheckpointError, match="rows \\[1\\]"):
            cp.verify()

    def test_untagged_checkpoint_verifies_trivially(self):
        Checkpoint(generation=0, state=np.zeros((2, 2), dtype=np.uint8)).verify()


class TestCheckpointStore:
    def test_due_on_interval(self):
        store = CheckpointStore(interval=4)
        assert store.due(0) and store.due(8)
        assert not store.due(3)

    def test_ring_evicts_oldest(self):
        store = CheckpointStore(keep=2)
        for g in range(3):
            store.save(g, np.full((2, 2), g, dtype=np.uint8))
        assert len(store) == 2
        assert store.latest().generation == 2

    def test_latest_empty_raises(self):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointStore().latest()

    def test_latest_skips_corrupted(self):
        store = CheckpointStore(keep=2)
        store.save(0, np.zeros((2, 2), dtype=np.uint8))
        newest = store.save(1, np.ones((2, 2), dtype=np.uint8))
        newest.state[0, 0] ^= 1  # rot the newest in place
        assert store.latest().generation == 0

    def test_latest_all_corrupted_raises(self):
        store = CheckpointStore(keep=1)
        cp = store.save(0, np.zeros((2, 2), dtype=np.uint8))
        cp.state[0, 0] ^= 1
        with pytest.raises(CheckpointError, match="every retained"):
            store.latest()


class TestDurableStore:
    """Satellite: crash-safe durable writes (temp + fsync + atomic rename)."""

    def test_save_persists_and_fresh_store_restores(self, tmp_path):
        store = CheckpointStore(directory=tmp_path)
        store.save(4, np.arange(16, dtype=np.uint8).reshape(4, 4))
        # A restarted process = a brand-new store over the same directory.
        fresh = CheckpointStore(directory=tmp_path)
        cp = fresh.latest()
        assert cp.generation == 4
        assert np.array_equal(cp.state, np.arange(16, dtype=np.uint8).reshape(4, 4))

    def test_no_temp_residue_after_save(self, tmp_path):
        store = CheckpointStore(directory=tmp_path)
        store.save(0, np.zeros((2, 2), dtype=np.uint8))
        store.save(8, np.ones((2, 2), dtype=np.uint8))
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_prunes_to_keep_newest(self, tmp_path):
        store = CheckpointStore(keep=2, directory=tmp_path)
        for g in range(5):
            store.save(g, np.full((2, 2), g, dtype=np.uint8))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-000000000003.ckpt", "ckpt-000000000004.ckpt"]

    def test_torn_newest_falls_back_to_older(self, tmp_path):
        store = CheckpointStore(keep=3, directory=tmp_path)
        store.save(0, np.zeros((2, 2), dtype=np.uint8))
        store.save(8, np.ones((2, 2), dtype=np.uint8))
        # Simulate a crash mid-write of the newest file: truncate it.
        newest = sorted(tmp_path.iterdir())[-1]
        newest.write_bytes(newest.read_bytes()[:20])
        cp = CheckpointStore.load_latest(tmp_path)
        assert cp.generation == 0

    def test_leftover_temp_files_are_ignored(self, tmp_path):
        store = CheckpointStore(directory=tmp_path)
        store.save(2, np.ones((2, 2), dtype=np.uint8))
        (tmp_path / ".tmp-ckpt-000000000009.ckpt.123").write_bytes(b"garbage")
        assert CheckpointStore.load_latest(tmp_path).generation == 2

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no restorable checkpoint"):
            CheckpointStore.load_latest(tmp_path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint directory"):
            CheckpointStore.load_latest(tmp_path / "never-made")

    def test_rng_state_round_trips_through_disk(self, tmp_path):
        rng = np.random.default_rng(11)
        rng.random(7)  # advance off the seed state
        store = CheckpointStore(directory=tmp_path)
        store.save(3, np.zeros((2, 2), dtype=np.uint8), rng)
        cp = CheckpointStore.load_latest(tmp_path)
        restored = np.random.default_rng(0)
        store.restore_rng(cp, restored)
        assert restored.random() == np.random.default_rng(11).random(8)[-1]

    def test_durable_files_round_trip_parity_tags(self, tmp_path):
        state = np.arange(16, dtype=np.uint8).reshape(4, 4)
        CheckpointStore(directory=tmp_path).save(0, state)
        cp = CheckpointStore.load_latest(tmp_path)
        cp.verify()
        # A flipped bit on disk must be caught by the stored tags.
        cp.state[2, 1] ^= 1
        with pytest.raises(CheckpointError):
            cp.verify()


#: A packed shard checkpoint: 7 channel planes of 5 rows x 2 words.
PACKED_SHAPE = (7, 5, 2)


def _packed_state() -> np.ndarray:
    sites = np.random.default_rng(5).integers(0, 128, (5, 70), dtype=np.uint8)
    planes = pack_state(sites, 7)
    assert planes.shape == PACKED_SHAPE
    return planes


def _array_data_offset(fh) -> tuple[int, int]:
    """Read one ``.npy`` record's header: its data's offset and size in ``fh``."""
    fmt = np.lib.format
    version = fmt.read_magic(fh)
    read_header = (
        fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
    )
    shape, _, dtype = read_header(fh)
    return fh.tell(), int(np.prod(shape)) * dtype.itemsize


#: One bit anywhere in the packed planes: (channel, row, word, bit).
packed_bits = st.tuples(
    st.integers(0, PACKED_SHAPE[0] - 1),
    st.integers(0, PACKED_SHAPE[1] - 1),
    st.integers(0, PACKED_SHAPE[2] - 1),
    st.integers(0, 63),
)


class TestPackedCheckpointIntegrity:
    """A flipped bit in a packed checkpoint is caught and its row named.

    Plane words are uint64, so the row tags' sums wrap; a single-word
    change still shifts them by a nonzero amount modulo 2**64.
    """

    @settings(max_examples=60, deadline=None)
    @given(bit=packed_bits, in_tags=st.booleans())
    def test_bit_flip_on_disk_names_the_row(self, tmp_path_factory, bit, in_tags):
        directory = tmp_path_factory.mktemp("ckpt")
        CheckpointStore(directory=directory).save(8, _packed_state())
        [path] = directory.iterdir()
        channel, row, word, b = bit
        with open(path, "rb") as fh:
            for _ in range(2):  # the generation record, then the state's
                offset, nbytes = _array_data_offset(fh)
                fh.seek(offset + nbytes)
            if in_tags:
                offset, _ = _array_data_offset(fh)
                byte = offset + row * 8 + b // 8
            else:
                byte = offset + (
                    ((channel * PACKED_SHAPE[1] + row) * PACKED_SHAPE[2] + word) * 8
                    + b // 8
                )
        raw = bytearray(path.read_bytes())
        raw[byte] ^= 1 << (b % 8)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=rf"corrupted in rows \[{row}\]"):
            CheckpointStore.load_latest(directory)
        with pytest.raises(CheckpointError, match=rf"corrupted in rows \[{row}\]"):
            CheckpointStore(directory=directory).latest()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bit_flip_anywhere_in_the_file_never_restores_wrong_data(
        self, tmp_path_factory, data
    ):
        """Headers, generation and RNG state included: fail or restore exactly."""
        directory = tmp_path_factory.mktemp("ckpt")
        rng = np.random.default_rng(3)
        original = CheckpointStore(directory=directory).save(8, _packed_state(), rng)
        [path] = directory.iterdir()
        raw = bytearray(path.read_bytes())
        byte = data.draw(st.integers(0, len(raw) - 1), label="byte")
        raw[byte] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(raw))
        try:
            cp = CheckpointStore.load_latest(directory)
        except CheckpointError:
            return
        assert cp.generation == original.generation
        np.testing.assert_array_equal(cp.state, original.state)
        assert cp.rng_state == original.rng_state

    @settings(max_examples=60, deadline=None)
    @given(bit=packed_bits)
    def test_bit_flip_in_the_ring_names_the_row(self, bit):
        store = CheckpointStore()
        cp = store.save(8, _packed_state())
        channel, row, word, b = bit
        cp.state[channel, row, word] ^= np.uint64(1) << np.uint64(b)
        with pytest.raises(CheckpointError, match=rf"corrupted in rows \[{row}\]"):
            store.latest()


class TestRestartBitIdentical:
    @pytest.mark.parametrize("chirality", ["alternate", "random"])
    def test_restart_matches_uninterrupted_run(self, chirality):
        """Evolve 10 generations straight; separately evolve 4, then
        checkpoint, evolve 3 more, 'crash', restore, and finish.  The
        restored run must be bit-identical — state AND RNG state."""
        total, cut = 10, 4
        straight = make_auto(chirality)
        straight.run(total)

        auto = make_auto(chirality)
        auto.run(cut)
        store = CheckpointStore()
        cp = store.save(auto.time, auto.state, auto.rng)
        auto.run(3)  # progress that the crash throws away

        # Crash and restore.
        auto.state = store.latest().state.copy()
        auto.time = cp.generation
        store.restore_rng(cp, auto.rng)
        auto.run(total - cut)

        assert auto.time == straight.time
        assert np.array_equal(auto.state, straight.state)

    def test_rng_state_is_captured_not_aliased(self):
        auto = make_auto("random")
        store = CheckpointStore()
        cp = store.save(0, auto.state, auto.rng)
        before = dict(cp.rng_state)
        auto.run(2)  # advances the live RNG
        assert cp.rng_state == before
