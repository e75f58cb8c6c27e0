"""Checkpoint/restart for the adaptive runtime.

A checkpoint captures everything needed to resume a run bit-for-bit:

- the grid hierarchy (every level's patch boxes and field data, plus
  ``time`` and ``step_count``),
- the current partition :class:`~repro.util.geometry.Layout` (box -> rank),
- the simulated clock reading at save time.

Snapshots are *versioned* (a format version plus a monotonically growing
step tag) and *checksummed* with :func:`repro.util.hashing.checksum_bytes`;
restore verifies integrity before touching the hierarchy, so a truncated or
corrupted snapshot raises :class:`~repro.util.errors.CheckpointError`
instead of silently resuming from garbage.

Restore-and-replay is what makes failure recovery exact: determinism plus
partition invariance mean that replaying the lost steps over the surviving
rank set reproduces the identical solution the undisturbed run would have
produced.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from repro.amr.hierarchy import GridHierarchy
from repro.amr.level import GridLevel
from repro.amr.patch import GridPatch
from repro.util import durable
from repro.util.errors import CheckpointError
from repro.util.geometry import Box, Layout
from repro.util.hashing import checksum_bytes

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "MemoryCheckpointStore",
    "ResilienceConfig",
    "hierarchy_state",
    "restore_hierarchy_state",
    "storage_seconds",
]

#: On-disk/in-memory snapshot format version.
CHECKPOINT_FORMAT_VERSION = 1

#: Checkpoint storage bandwidth: it prices checkpoint writes and recovery
#: reads (the cost of evacuating a dead rank's boxes is a read from stable
#: storage, not a transfer from the dead NIC).
STORAGE_BANDWIDTH_MBPS = 400.0


def storage_seconds(nbytes: float) -> float:
    """Sim seconds to stream ``nbytes`` to/from checkpoint storage."""
    return nbytes / (STORAGE_BANDWIDTH_MBPS * 125_000.0)


#: Magic prefix of serialized snapshot files.
_MAGIC = b"RPCK"

#: File header: magic, format version, step, payload length, checksum,
#: hierarchy time, clock time.
_HEADER = struct.Struct("<4sIQQQdd")


# ---------------------------------------------------------------------------
# Hierarchy (de)serialization
# ---------------------------------------------------------------------------
def hierarchy_state(h: GridHierarchy) -> dict:
    """Snapshot a hierarchy's mutable state as plain data.

    Static configuration (domain, kernel, refine factor) is *not* captured;
    restore targets a hierarchy built with the same configuration and only
    replaces its dynamic state, mirroring how an MPI restart re-runs the
    same binary against a data file.
    """
    return {
        "time": h.time,
        "step_count": h.step_count,
        "levels": [
            {
                "level": lvl.level,
                "patches": [
                    {
                        "lower": p.box.lower,
                        "upper": p.box.upper,
                        "data": np.array(p.data, copy=True),
                    }
                    for p in lvl
                ],
            }
            for lvl in h.levels
        ],
    }


def restore_hierarchy_state(h: GridHierarchy, state: dict) -> None:
    """Replace ``h``'s dynamic state with a previously captured snapshot."""
    levels: list[GridLevel] = []
    for lvl_state in state["levels"]:
        lnum = int(lvl_state["level"])
        patches = [
            GridPatch(
                Box(ps["lower"], ps["upper"], lnum),
                num_fields=h.kernel.num_fields,
                ghost_width=h.kernel.ghost_width,
                data=np.array(ps["data"], copy=True),
            )
            for ps in lvl_state["patches"]
        ]
        levels.append(GridLevel(lnum, patches))
    h.levels = levels
    h.time = float(state["time"])
    h.step_count = int(state["step_count"])


def _encode_layout(
    layout: Layout | None,
) -> list[tuple[tuple, tuple, int, int]] | None:
    """``(lower, upper, level, rank)`` rows straight off the columns.

    ``tolist`` yields plain ``int`` scalars: the rows are pickled and the
    payload's byte count is charged as simulated I/O time, so a NumPy
    scalar (which pickles larger) would move the simulated clock.
    """
    if layout is None:
        return None
    arr = layout.boxes.array
    return list(
        zip(
            map(tuple, arr.lower.tolist()),
            map(tuple, arr.upper.tolist()),
            arr.level.tolist(),
            layout.ranks.tolist(),
        )
    )


def _decode_layout(
    encoded: list[tuple[tuple, tuple, int, int]] | None,
) -> Layout | None:
    if encoded is None:
        return None
    return Layout.from_pairs(
        (Box(lower, upper, level), rank)
        for lower, upper, level, rank in encoded
    )


# ---------------------------------------------------------------------------
# The snapshot object
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One integrity-checked snapshot of the run state."""

    version: int
    step: int
    sim_time: float  # hierarchy (physics) time at save
    clock_time: float  # simulated wall clock at save
    payload: bytes  # pickled state dict
    checksum: int

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def verify(self) -> None:
        """Raise :class:`CheckpointError` on version or integrity mismatch."""
        if self.version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version {self.version} "
                f"(expected {CHECKPOINT_FORMAT_VERSION})"
            )
        actual = checksum_bytes(self.payload)
        if actual != self.checksum:
            raise CheckpointError(
                f"checkpoint for step {self.step} failed integrity check: "
                f"stored {self.checksum:#018x}, computed {actual:#018x}"
            )

    def state(self) -> dict:
        """Decode the payload (verifying integrity first)."""
        self.verify()
        return pickle.loads(self.payload)

    def to_bytes(self) -> bytes:
        """Serialize header + payload for file storage."""
        header = _HEADER.pack(
            _MAGIC,
            self.version,
            self.step,
            len(self.payload),
            self.checksum & ((1 << 64) - 1),
            self.sim_time,
            self.clock_time,
        )
        return header + self.payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        if len(blob) < _HEADER.size:
            raise CheckpointError(
                f"checkpoint blob truncated: {len(blob)} bytes, header "
                f"needs {_HEADER.size}"
            )
        magic, version, step, nbytes, checksum, sim_t, clock_t = (
            _HEADER.unpack_from(blob)
        )
        if magic != _MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        payload = blob[_HEADER.size:]
        if len(payload) != nbytes:
            raise CheckpointError(
                f"checkpoint payload truncated: header promises {nbytes} "
                f"bytes, file holds {len(payload)}"
            )
        ckpt = cls(
            version=version,
            step=step,
            sim_time=sim_t,
            clock_time=clock_t,
            payload=payload,
            checksum=checksum,
        )
        ckpt.verify()
        return ckpt


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------
class CheckpointStore:
    """Interface: ordered snapshot storage with bounded retention."""

    def save(self, ckpt: Checkpoint) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def latest(self) -> Checkpoint | None:  # pragma: no cover - interface
        raise NotImplementedError

    def steps(self) -> tuple[int, ...]:  # pragma: no cover - interface
        raise NotImplementedError

    def latest_valid(self) -> Checkpoint | None:
        """Newest snapshot that passes integrity verification.

        :meth:`latest` fails closed -- a corrupt newest snapshot raises so
        nobody resumes from garbage.  Consumers that would rather *fall
        back* (lose the last interval, keep the run alive) call this
        instead: corrupt snapshots are skipped newest-to-oldest and the
        first one that verifies is returned.  ``None`` means no snapshot
        at all survived.
        """
        return self.latest()


class MemoryCheckpointStore(CheckpointStore):
    """In-process snapshot ring (the default for simulated runs)."""

    def __init__(self, keep_last: int = 2):
        if keep_last < 1:
            raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
        self.keep_last = keep_last
        self._snapshots: list[Checkpoint] = []

    def save(self, ckpt: Checkpoint) -> None:
        self._snapshots.append(ckpt)
        if len(self._snapshots) > self.keep_last:
            del self._snapshots[: -self.keep_last]

    def latest(self) -> Checkpoint | None:
        return self._snapshots[-1] if self._snapshots else None

    def steps(self) -> tuple[int, ...]:
        return tuple(c.step for c in self._snapshots)


class DirectoryCheckpointStore(CheckpointStore):
    """File-backed snapshots: ``<dir>/ckpt_<step>.rpck``."""

    def __init__(self, directory: str | Path, keep_last: int = 2):
        if keep_last < 1:
            raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last

    def _files(self) -> list[Path]:
        return sorted(self.directory.glob("ckpt_*.rpck"))

    def save(self, ckpt: Checkpoint) -> None:
        path = self.directory / f"ckpt_{ckpt.step:08d}.rpck"
        # Atomic publish: no torn snapshots.
        durable.publish(path, ckpt.to_bytes(), sync=True)
        files = self._files()
        for old in files[: -self.keep_last]:
            old.unlink()
        # A crash between write and rename leaves a stale .tmp behind;
        # it never shadows a published snapshot, so sweep it here.
        for stale in self.directory.glob("ckpt_*.tmp"):
            stale.unlink(missing_ok=True)

    def latest(self) -> Checkpoint | None:
        files = self._files()
        if not files:
            return None
        return Checkpoint.from_bytes(files[-1].read_bytes())

    def latest_valid(self) -> Checkpoint | None:
        """Newest snapshot that verifies; corrupt ones are skipped.

        A truncated header, short payload or checksum mismatch on the
        newest file (a crash mid-publish, bit rot) must not strand the
        older, intact snapshot -- recovery walks backwards and restores
        the first file that passes :meth:`Checkpoint.verify`.  Partial
        writes never qualify in the first place: saves go through a
        ``.tmp`` name that :meth:`_files` does not match until the atomic
        rename publishes them.
        """
        for path in reversed(self._files()):
            try:
                return Checkpoint.from_bytes(path.read_bytes())
            except CheckpointError:
                continue
        return None

    def steps(self) -> tuple[int, ...]:
        return tuple(
            int(p.stem.split("_", 1)[1]) for p in self._files()
        )


# ---------------------------------------------------------------------------
# Manager + runtime-facing config
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class ResilienceConfig:
    """How a runtime participates in checkpoint/restart.

    ``checkpoint_interval`` is in coarse steps; every checkpoint write
    and restore read is charged to the simulated clock at
    :data:`STORAGE_BANDWIDTH_MBPS` (:func:`storage_seconds`).
    """

    store: CheckpointStore = field(default_factory=MemoryCheckpointStore)
    checkpoint_interval: int = 5

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise CheckpointError(
                "checkpoint_interval must be >= 1, got "
                f"{self.checkpoint_interval}"
            )


class CheckpointManager:
    """Builds, stores and restores snapshots for a running hierarchy."""

    def __init__(self, config: ResilienceConfig, tracer=None):
        from repro.telemetry.spans import NULL_TRACER

        self.config = config
        self.store = config.store
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.num_saves = 0
        self.num_restores = 0

    # -- save ----------------------------------------------------------
    def due(self, step: int) -> bool:
        """Whether a save is due after completing coarse step ``step``."""
        return step > 0 and step % self.config.checkpoint_interval == 0

    def save(
        self,
        hierarchy: GridHierarchy,
        layout: Layout | None,
        clock_time: float,
    ) -> Checkpoint:
        state = {
            "hierarchy": hierarchy_state(hierarchy),
            "assignment": _encode_layout(layout),
            "clock_time": float(clock_time),
        }
        payload = pickle.dumps(state, protocol=4)
        ckpt = Checkpoint(
            version=CHECKPOINT_FORMAT_VERSION,
            step=hierarchy.step_count,
            sim_time=hierarchy.time,
            clock_time=float(clock_time),
            payload=payload,
            checksum=checksum_bytes(payload),
        )
        self.store.save(ckpt)
        self.num_saves += 1
        self.tracer.event(
            "checkpoint.save",
            step=ckpt.step,
            nbytes=ckpt.nbytes,
            io_seconds=storage_seconds(ckpt.nbytes),
        )
        return ckpt

    # -- restore -------------------------------------------------------
    def restore_latest(
        self, hierarchy: GridHierarchy
    ) -> tuple[Checkpoint, Layout | None]:
        """Verify and load the newest snapshot into ``hierarchy``.

        Returns the checkpoint and the partition layout that was active
        at save time (``None`` if none was recorded).
        """
        ckpt = self.store.latest()
        if ckpt is None:
            raise CheckpointError(
                "restore requested but the checkpoint store is empty"
            )
        state = ckpt.state()  # verifies version + checksum
        restore_hierarchy_state(hierarchy, state["hierarchy"])
        self.num_restores += 1
        self.tracer.event(
            "recovery.restore",
            step=ckpt.step,
            nbytes=ckpt.nbytes,
            io_seconds=storage_seconds(ckpt.nbytes),
        )
        return ckpt, _decode_layout(state["assignment"])
