"""Crash-point tests for :mod:`repro.util.durable`.

The harness substitutes the calls the module makes to change a file --
``os.write``, ``os.fsync``, ``Path.replace`` (and the truncate calls it
must never make) -- lets ``survive`` of them complete, then kills the
writer: a killed ``write`` leaves a prefix of its buffer behind, a killed
``fsync`` or rename leaves nothing.  After every kill the files are read
back the way a restarted process would read them and the module's
postcondition is asserted:

- every row whose ``append_line`` returned is read back, in order;
- every row read back was submitted whole; the only unacknowledged rows
  that may appear are those in flight at a kill;
- a published file holds the old bytes or the new, never a mixture;
- with ``sync=True`` the bytes were fsynced before the append returned
  or the rename was issued; with ``sync=False`` nothing is fsynced.
"""

from __future__ import annotations

import ast
import json
import multiprocessing
import os
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.store import ResultStore
from repro.learn.audit import DecisionLedger
from repro.telemetry.live import ProgressLog
from repro.util import durable


class Killed(BaseException):
    """The simulated SIGKILL (not an ``Exception``: nothing may catch it)."""


class CrashPoint:
    """Counts durable's file-changing calls and kills the writer."""

    def __init__(self, survive: int | None = None, cut: float = 0.5):
        #: Calls allowed to complete (``None``: never kill).
        self.survive = survive
        #: Fraction of a killed write's buffer that reaches the file.
        self.cut = cut
        self.calls: list[str] = []
        #: Inodes written since their last fsync.
        self.dirty: set[int] = set()
        #: Whether any rename published a file with unsynced bytes.
        self.renamed_dirty = False

    def _enter(self, name: str) -> bool:
        """Record a call; returns whether it is the one that gets killed."""
        self.calls.append(name)
        return self.survive is not None and len(self.calls) > self.survive

    @contextmanager
    def installed(self):
        real_write, real_fsync = os.write, os.fsync
        real_replace = Path.replace

        def write(fd, data):
            data = bytes(data)
            killed = self._enter("write")
            if killed:
                data = data[: int(self.cut * len(data))]
            if data:
                self.dirty.add(os.fstat(fd).st_ino)
                real_write(fd, data)
            if killed:
                raise Killed
            return len(data)

        def fsync(fd):
            if self._enter("fsync"):
                raise Killed
            real_fsync(fd)
            self.dirty.discard(os.fstat(fd).st_ino)

        def replace(src, target):
            if self._enter("rename"):
                raise Killed
            self.renamed_dirty |= src.stat().st_ino in self.dirty
            return real_replace(src, target)

        def truncate(*args, **kwargs):
            raise AssertionError("durable writes terminate, never truncate")

        with ExitStack() as stack:
            for target, attr, fake in (
                (os, "write", write),
                (os, "fsync", fsync),
                (Path, "replace", replace),
                (os, "truncate", truncate),
                (os, "ftruncate", truncate),
            ):
                stack.enter_context(mock.patch.object(target, attr, fake))
            yield self


def run_killed(point: CrashPoint, op) -> bool:
    """Run ``op`` under ``point``; returns whether it was acknowledged."""
    with point.installed():
        try:
            op()
        except Killed:
            return False
    return True


def row(n: int) -> dict:
    return {"n": n, "pad": "x" * (n % 7)}


class Model:
    """What the files may hold, given which calls were acknowledged."""

    def __init__(self, directory: Path):
        self.log = directory / "rows.jsonl"
        self.doc = directory / "doc.json"
        self.acked: list[dict] = []
        self.in_flight: list[dict] = []
        #: Contents the published file may hold; ``None`` is "absent".
        self.doc_may_hold: set[bytes | None] = {None}
        self.submitted = 0
        self.offset = 0
        self.tailed: list[dict] = []

    def append(self, point: CrashPoint, sync: bool) -> None:
        new = row(self.submitted)
        self.submitted += 1
        acked = run_killed(
            point,
            lambda: durable.append_line(
                self.log, durable.canonical_json(new), sync=sync
            ),
        )
        (self.acked if acked else self.in_flight).append(new)
        if acked and sync:
            assert self.log.stat().st_ino not in point.dirty
        if not sync:
            assert "fsync" not in point.calls

    def publish(self, point: CrashPoint, sync: bool) -> None:
        data = json.dumps(row(self.submitted)).encode() * 3
        self.submitted += 1
        acked = run_killed(
            point, lambda: durable.publish(self.doc, data, sync=sync)
        )
        if acked:
            self.doc_may_hold = {data}
        else:
            self.doc_may_hold.add(data)
        if sync:
            assert not point.renamed_dirty
        else:
            assert "fsync" not in point.calls

    def check(self) -> None:
        """The postcondition, as a restarted process would observe it."""
        rows, _ = durable.read_rows(self.log, "n")
        assert [r for r in rows if r in self.acked] == self.acked
        assert all(r in self.acked or r in self.in_flight for r in rows)
        assert len({r["n"] for r in rows}) == len(rows)
        doc = self.doc.read_bytes() if self.doc.exists() else None
        assert doc in self.doc_may_hold
        # A tail-follower that never re-reads sees exactly the same rows.
        more, self.offset = durable.read_rows(self.log, "n", self.offset)
        self.tailed += more
        assert self.tailed == rows


# ----------------------------------------------------------------------
# Every crash point of one operation, exhaustively
# ----------------------------------------------------------------------
CUTS = (0.0, 0.3, 0.99, 1.0)  # 0.99: all but the newline of a short row


@pytest.mark.parametrize("sync", (True, False))
def test_append_survives_every_crash_point(tmp_path, sync):
    calls = 2 if sync else 1
    for survive in range(calls + 1):
        for cut in CUTS:
            model = Model(tmp_path / f"{survive}-{cut}")
            model.log.parent.mkdir()
            model.append(CrashPoint(), sync)
            model.append(CrashPoint(survive, cut), sync)
            model.check()
            # The restarted writer's next rows land after the fragment.
            model.append(CrashPoint(), sync)
            model.append(CrashPoint(), sync)
            model.check()
            assert model.acked[-2:] == durable.read_rows(model.log, "n")[0][-2:]


@pytest.mark.parametrize("sync", (True, False))
def test_publish_is_all_or_nothing_at_every_crash_point(tmp_path, sync):
    calls = 3 if sync else 2
    for survive in range(calls + 1):
        for cut in CUTS:
            model = Model(tmp_path / f"{survive}-{cut}")
            model.doc.parent.mkdir()
            model.publish(CrashPoint(), sync)
            old = model.doc.read_bytes()
            point = CrashPoint(survive, cut)
            model.publish(point, sync)
            model.check()
            if "rename" not in point.calls[:survive]:
                assert model.doc.read_bytes() == old
            model.publish(CrashPoint(), sync)  # a stale temp is no obstacle
            model.check()
            assert sorted(p.name for p in model.doc.parent.iterdir()) == [
                "doc.json"
            ]


def test_call_sequences():
    """One write per append; data is synced before it is acknowledged or
    renamed into place."""
    with tempfile.TemporaryDirectory() as d:
        log, doc = Path(d) / "l.jsonl", Path(d) / "d.json"
        for sync, expect in ((True, ["write", "fsync"]), (False, ["write"])):
            point = CrashPoint()
            assert run_killed(
                point, lambda: durable.append_line(log, "{}", sync=sync)
            )
            assert point.calls == expect
        point = CrashPoint()
        assert run_killed(point, lambda: durable.publish(doc, "{}", sync=True))
        assert point.calls == ["write", "fsync", "rename"]


def test_multiline_row_rejected(tmp_path):
    with pytest.raises(ValueError, match="single line"):
        durable.append_line(tmp_path / "l", "a\nb", sync=False)
    assert not (tmp_path / "l").exists()


def test_read_rows_never_returns_or_consumes_a_partial_tail(tmp_path):
    path = tmp_path / "l.jsonl"
    path.write_bytes(b'{"n":0}\nnot json\n[1]\n\n{"other":1}\n{"n":1}')
    rows, offset = durable.read_rows(path, "n")
    assert rows == [{"n": 0}]
    assert offset == path.stat().st_size - len(b'{"n":1}')
    with open(path, "ab") as fh:
        fh.write(b"\n")
    assert durable.read_rows(path, "n", offset) == (
        [{"n": 1}],
        path.stat().st_size,
    )
    assert durable.read_rows(tmp_path / "missing", "n", 7) == ([], 7)


# ----------------------------------------------------------------------
# Sequences of append / publish / crash / reopen
# ----------------------------------------------------------------------
STEP = st.tuples(
    st.sampled_from(("append", "publish")),
    st.booleans(),  # sync
    st.one_of(st.none(), st.integers(0, 3)),  # calls that survive
    st.floats(0.0, 1.0),  # cut of a killed write
)


@settings(max_examples=150, deadline=None)
@given(st.lists(STEP, max_size=12))
def test_postcondition_over_operation_sequences(steps):
    with tempfile.TemporaryDirectory() as d:
        model = Model(Path(d))
        for op, sync, survive, cut in steps:
            getattr(model, op)(CrashPoint(survive, cut), sync)
            model.check()


# ----------------------------------------------------------------------
# Several processes appending to one file (the progress log's situation)
# ----------------------------------------------------------------------
def _append_many(path: str, worker: int, count: int) -> None:
    for n in range(count):
        durable.append_line(
            path, durable.canonical_json({"w": worker, "n": n}), sync=False
        )


def test_concurrent_appenders_interleave_whole_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b'{"w":-1,"n":0}\n{"w":-1,"n"')  # a dead writer's tail
    workers, count = 4, 1000  # more writers than the CI machine has cores
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_append_many, args=(str(path), w, count))
        for w in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0
    rows, offset = durable.read_rows(path, "w")
    assert offset == path.stat().st_size
    assert rows[0] == {"w": -1, "n": 0}
    for w in range(workers):  # nothing lost, nothing torn, order kept
        assert [r["n"] for r in rows if r["w"] == w] == list(range(count))
    assert len(rows) == 1 + workers * count


# ----------------------------------------------------------------------
# Store-level regressions: an acknowledged row after a torn tail is kept
# ----------------------------------------------------------------------
def test_result_store_keeps_row_appended_after_torn_tail(tmp_path):
    store = ResultStore(tmp_path)
    store.append({"cell_key": "aa"})
    with open(store.log_path, "ab") as fh:
        fh.write(b'{"cell_key":"bb","v')  # crash mid-append
    assert ResultStore(tmp_path).keys() == ["aa"]
    ResultStore(tmp_path).append({"cell_key": "cc"})
    assert ResultStore(tmp_path).keys() == ["aa", "cc"]
    ResultStore(tmp_path).compact()
    assert ResultStore(tmp_path).keys() == ["aa", "cc"]


def test_progress_log_keeps_event_appended_after_torn_tail(tmp_path):
    log = ProgressLog(tmp_path / "events.jsonl")
    log.append("live.cell_started", cell_key="a")
    with open(log.path, "ab") as fh:
        fh.write(b'{"name": "live.cell_fin')  # a worker killed mid-append
    _, offset = log.read_from(0)
    log.append("live.cell_finished", cell_key="a")
    assert [r["name"] for r in log.read()] == [
        "live.cell_started",
        "live.cell_finished",
    ]
    # A tail-follower parked before the fragment sees the new event too.
    assert [r["name"] for r in log.read_from(offset)[0]] == [
        "live.cell_finished"
    ]


def test_reading_a_ledger_never_modifies_it(tmp_path):
    ledger = DecisionLedger(tmp_path)
    ledger.record("outcome", phase="sense", t=0.0, capacities=[1.0])
    with open(ledger.data_path, "ab") as fh:
        fh.write(b'{"seq": 1, "kind": "ga')  # the writer is mid-append
    before = ledger.data_path.read_bytes()
    assert len(DecisionLedger(tmp_path)) == 1
    assert ledger.data_path.read_bytes() == before


# ----------------------------------------------------------------------
# One implementation stays one
# ----------------------------------------------------------------------
SRC = Path(durable.__file__).resolve().parents[1]
DURABLE_OS_CALLS = {
    "fsync", "fdatasync", "replace", "rename", "truncate", "ftruncate"
}


def durable_calls(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for every fsync / rename-publish / truncate."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"from os import {a.name}")
                for a in node.names
                if a.name in DURABLE_OS_CALLS
            ]
        elif isinstance(node, ast.Attribute):
            on_os = isinstance(node.value, ast.Name) and node.value.id == "os"
            if on_os and node.attr in DURABLE_OS_CALLS:
                found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            # Path.replace/rename take one argument, str.replace two.
            one_arg = len(node.args) == 1 and not node.keywords
            if attr == "truncate" or (attr in ("replace", "rename") and one_arg):
                found.append((node.lineno, f".{attr}(...)"))
    return sorted(set(found))


def test_scanner_recognises_each_idiom():
    sample = (
        "import os\nfrom os import fsync\nos.fsync(fd)\nos.replace(a, b)\n"
        "tmp.replace(path)\nfh.truncate(0)\n'a'.replace('a', 'b')\n"
    )
    assert [what for _, what in durable_calls(sample)] == [
        "from os import fsync",
        "os.fsync",
        "os.replace",
        ".replace(...)",
        ".truncate(...)",
    ]


def test_every_durable_write_in_src_lives_in_util_durable():
    """``os.fsync``, rename-publishes and truncates are the crash-safety
    argument; a second copy outside :mod:`repro.util.durable` is a copy
    this file's crash-point harness does not test."""
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        if path != Path(durable.__file__).resolve()
        for line, what in durable_calls(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert durable_calls(Path(durable.__file__).read_text(encoding="utf-8"))
