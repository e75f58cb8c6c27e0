"""Tests for versioned, checksummed checkpoint/restart."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.kernels.advection import AdvectionKernel
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    CheckpointManager,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    ResilienceConfig,
    _encode_layout,
    hierarchy_state,
    restore_hierarchy_state,
)
from repro.telemetry import Tracer
from repro.util.errors import CheckpointError
from repro.util.geometry import Box, BoxArray, BoxList, Layout
from repro.util.hashing import checksum_bytes


def small_hierarchy() -> GridHierarchy:
    k = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    return GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)


def stepped(steps: int = 4) -> tuple[GridHierarchy, BergerOligerIntegrator]:
    h = small_hierarchy()
    integ = BergerOligerIntegrator(h, regrid_interval=3)
    integ.setup()
    for _ in range(steps):
        integ.advance()
    return h, integ


class TestHierarchyState:
    def test_roundtrip_is_bitwise(self):
        h, integ = stepped(4)
        state = hierarchy_state(h)
        saved = GhostFiller(h).fetch(h.domain, 0).copy()
        saved_time, saved_steps = h.time, h.step_count
        # Keep stepping: the live hierarchy diverges from the snapshot.
        integ.advance()
        integ.advance()
        assert h.step_count == saved_steps + 2
        restore_hierarchy_state(h, state)
        assert h.time == saved_time
        assert h.step_count == saved_steps
        np.testing.assert_array_equal(GhostFiller(h).fetch(h.domain, 0), saved)

    def test_restored_run_replays_identically(self):
        """Restore + replay-forward reproduces the undisturbed solution."""
        h_ref, integ_ref = stepped(8)
        ref = GhostFiller(h_ref).fetch(h_ref.domain, 0)

        h, integ = stepped(4)
        state = hierarchy_state(h)
        integ.advance()  # lose a step, then rewind past it
        restore_hierarchy_state(h, state)
        for _ in range(4):
            integ.advance()
        np.testing.assert_array_equal(GhostFiller(h).fetch(h.domain, 0), ref)


class TestCheckpointBlob:
    def _ckpt(self, payload: bytes = b"hello world") -> Checkpoint:
        return Checkpoint(
            version=CHECKPOINT_FORMAT_VERSION,
            step=7,
            sim_time=1.25,
            clock_time=9.5,
            payload=payload,
            checksum=checksum_bytes(payload),
        )

    def test_bytes_roundtrip(self):
        ckpt = self._ckpt()
        back = Checkpoint.from_bytes(ckpt.to_bytes())
        assert back == ckpt
        assert back.nbytes == len(b"hello world")

    def test_truncated_blob_rejected(self):
        blob = self._ckpt().to_bytes()
        with pytest.raises(CheckpointError):
            Checkpoint.from_bytes(blob[:10])  # shorter than the header
        with pytest.raises(CheckpointError):
            Checkpoint.from_bytes(blob[:-3])  # payload shorter than promised

    def test_bad_magic_rejected(self):
        blob = bytearray(self._ckpt().to_bytes())
        blob[0:4] = b"XXXX"
        with pytest.raises(CheckpointError):
            Checkpoint.from_bytes(bytes(blob))

    def test_corrupted_payload_fails_integrity(self):
        ckpt = self._ckpt()
        corrupted = Checkpoint(
            version=ckpt.version,
            step=ckpt.step,
            sim_time=ckpt.sim_time,
            clock_time=ckpt.clock_time,
            payload=b"hello WORLD",
            checksum=ckpt.checksum,
        )
        with pytest.raises(CheckpointError):
            corrupted.verify()
        with pytest.raises(CheckpointError):
            corrupted.state()

    def test_wrong_version_rejected(self):
        payload = b"x"
        bad = Checkpoint(
            version=CHECKPOINT_FORMAT_VERSION + 1,
            step=0,
            sim_time=0.0,
            clock_time=0.0,
            payload=payload,
            checksum=checksum_bytes(payload),
        )
        with pytest.raises(CheckpointError):
            bad.verify()


def _dummy(step: int) -> Checkpoint:
    payload = f"snapshot-{step}".encode()
    return Checkpoint(
        version=CHECKPOINT_FORMAT_VERSION,
        step=step,
        sim_time=float(step),
        clock_time=float(step),
        payload=payload,
        checksum=checksum_bytes(payload),
    )


class TestStores:
    def test_memory_ring_keeps_last(self):
        store = MemoryCheckpointStore(keep_last=2)
        assert store.latest() is None
        for step in (1, 2, 3, 4):
            store.save(_dummy(step))
        assert store.steps() == (3, 4)
        assert store.latest().step == 4

    def test_memory_guard(self):
        with pytest.raises(CheckpointError):
            MemoryCheckpointStore(keep_last=0)

    def test_directory_store_roundtrip_and_prune(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "ckpts", keep_last=2)
        assert store.latest() is None
        for step in (1, 2, 3):
            store.save(_dummy(step))
        assert store.steps() == (2, 3)
        latest = store.latest()
        assert latest.step == 3
        latest.verify()  # integrity survives the disk roundtrip
        # No temp files survive the atomic publish.
        assert not list((tmp_path / "ckpts").glob("*.tmp"))
        # A fresh store over the same directory sees the same snapshots.
        again = DirectoryCheckpointStore(tmp_path / "ckpts", keep_last=2)
        assert again.steps() == (2, 3)

    def test_directory_guard(self, tmp_path):
        with pytest.raises(CheckpointError):
            DirectoryCheckpointStore(tmp_path, keep_last=0)


class TestResilienceConfig:
    def test_guards(self):
        with pytest.raises(CheckpointError):
            ResilienceConfig(checkpoint_interval=0)
        with pytest.raises(CheckpointError):
            ResilienceConfig(storage_bandwidth_mbps=0.0)


class TestCheckpointManager:
    def test_due_cadence(self):
        mgr = CheckpointManager(ResilienceConfig(checkpoint_interval=3))
        assert [s for s in range(10) if mgr.due(s)] == [3, 6, 9]

    def test_io_seconds(self):
        mgr = CheckpointManager(
            ResilienceConfig(storage_bandwidth_mbps=400.0)
        )
        # 400 Mbit/s = 50 MB/s; 50 MB takes 1 s.
        assert mgr.io_seconds(50_000_000) == pytest.approx(1.0)

    def test_save_restore_roundtrip(self):
        h, integ = stepped(4)
        assignment = [(box, k % 3) for k, box in enumerate(h.box_list())]
        layout = Layout.from_pairs(assignment)
        tracer = Tracer()
        mgr = CheckpointManager(ResilienceConfig(), tracer=tracer)
        ckpt = mgr.save(h, layout, clock_time=2.5)
        assert ckpt.step == h.step_count
        saved = GhostFiller(h).fetch(h.domain, 0).copy()
        integ.advance()
        back, restored = mgr.restore_latest(h)
        assert back.step == ckpt.step
        assert restored.pairs() == assignment
        np.testing.assert_array_equal(GhostFiller(h).fetch(h.domain, 0), saved)
        assert mgr.num_saves == 1
        assert mgr.num_restores == 1
        names = [e.name for e in tracer.events]
        assert "checkpoint.save" in names
        assert "recovery.restore" in names

    def test_encoded_rows_are_plain_python(self):
        """Element for element the rows a walk over ``(box, rank)`` pairs
        would give, and every scalar a plain ``int``: the payload is
        pickled and its byte count is charged as simulated I/O time, so a
        stray ``np.int64`` would move the simulated clock."""
        h, _ = stepped(4)
        pairs = [(box, k % 3) for k, box in enumerate(h.box_list())]
        columnar = Layout(
            BoxList.from_array(BoxArray.from_boxes([b for b, _ in pairs])),
            np.array([r for _, r in pairs]),
        )
        want = [(b.lower, b.upper, b.level, int(r)) for b, r in pairs]
        for layout in (Layout.from_pairs(pairs), columnar):
            rows = _encode_layout(layout)
            assert rows == want
            assert type(rows) is list
            for row in rows:
                lower, upper, level, rank = row
                assert type(row) is tuple
                assert type(lower) is tuple and type(upper) is tuple
                assert all(type(x) is int for x in (*lower, *upper, level, rank))
            assert pickle.dumps(rows, protocol=4) == pickle.dumps(want, protocol=4)
        assert _encode_layout(Layout.from_pairs(())) == []
        assert _encode_layout(None) is None

    def test_save_restore_save_is_byte_stable(self):
        """The payload depends on the layout's content only -- not on
        whether its Box objects happen to be the hierarchy's own."""
        h, _ = stepped(4)
        layout = Layout.from_pairs(
            (box, k % 3) for k, box in enumerate(h.box_list())
        )
        mgr = CheckpointManager(ResilienceConfig())
        first = mgr.save(h, layout, clock_time=1.0)
        _, restored = mgr.restore_latest(h)
        second = mgr.save(h, restored, clock_time=1.0)
        assert second.payload == first.payload
        assert second.checksum == first.checksum

    def test_none_assignment_roundtrips(self):
        h, _ = stepped(2)
        mgr = CheckpointManager(ResilienceConfig())
        mgr.save(h, None, clock_time=0.0)
        _, assignment = mgr.restore_latest(h)
        assert assignment is None

    def test_restore_from_empty_store_raises(self):
        h, _ = stepped(1)
        mgr = CheckpointManager(ResilienceConfig())
        with pytest.raises(CheckpointError):
            mgr.restore_latest(h)
