"""The one place bytes become durable: append a line, read rows, publish.

Every store in the tree -- the campaign result log and ``failures.jsonl``,
the learn history and decision ledger, the ``events.jsonl`` progress log,
checkpoint snapshots, artifact bundles, every ``index.json`` and
``campaign.json`` -- writes through the three operations below, so the
crash-safety argument is made (and crash-tested, see
``tests/util/test_durable.py``) once:

- :func:`append_line` adds one newline-terminated line with a single
  ``write`` on an ``O_APPEND`` descriptor.  A file that does not end in
  ``\\n`` holds the fragment of a writer that died mid-line; the fragment
  is terminated first (in the same ``write``), because appending straight
  after it would weld the new row onto the garbage and lose both.
  Terminating -- never truncating -- is the one repair that is also safe
  when several processes append to the same file.
- :func:`read_rows` parses the complete lines from a byte offset and
  returns the offset after the last of them.  A partial tail is never
  returned and never consumed; lines that do not parse (terminated
  fragments, foreign text) are skipped.  Readers never modify a file.
- :func:`publish` replaces a whole file through a temp file and a rename,
  so a reader sees the old content or the new, never a mixture.

**Postcondition**, at every crash point (after any ``write``, ``fsync``
or ``rename``, a killed ``write`` leaving an arbitrary prefix): every row
whose ``append_line`` returned is read back, in order; every row read
back was submitted whole by some ``append_line`` call -- the only rows
that may appear without having been acknowledged are those in flight at
a crash, all or nothing; a published file holds the old bytes or the new.

Whether an operation also survives *power loss* is the call site's
``sync`` argument: with ``sync=True`` the bytes are ``fsync``\\ ed before
the append returns or the rename is issued (a rename can reach the disk
before the data it names).  ``os.fsync`` is looked up on the ``os``
module at call time so harnesses that count it keep counting.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path
from typing import Any

__all__ = ["canonical_json", "append_line", "read_rows", "publish"]


def canonical_json(obj: Any) -> str:
    """The one JSON encoding used for hashing and store lines.

    Sorted keys, no whitespace: byte-identical for equal values, which is
    what makes cell keys stable and compacted stores comparable.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def append_line(path: str | os.PathLike, text: str, *, sync: bool) -> None:
    """Append ``text`` + ``\\n`` to ``path`` in one ``write`` (module doc)."""
    if "\n" in text:
        raise ValueError("a row must be a single line")
    data = text.encode("utf-8") + b"\n"
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        if os.write(fd, data) != len(data):
            # The next append terminates what did get written.
            raise OSError(errno.EIO, "short write appending a row", str(path))
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read_rows(
    path: str | os.PathLike, required_key: str, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """JSON-object rows carrying ``required_key``, from byte ``offset``.

    Returns ``(rows, new_offset)``; tail-follow loops pass the returned
    offset back in.  A missing file reads as empty.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], offset
    end = data.rfind(b"\n") + 1  # what follows is a writer mid-append
    rows: list[dict[str, Any]] = []
    for line in data[:end].split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
        if isinstance(row, dict) and required_key in row:
            rows.append(row)
    return rows, offset + end


def publish(path: str | os.PathLike, data: bytes | str, *, sync: bool) -> int:
    """Atomically replace ``path`` with ``data``; returns the byte count.

    The temp file is ``path`` with its last suffix replaced by ``.tmp``:
    same directory (a rename is atomic only within a filesystem), and a
    temp left by a crash is overwritten by the next publish of that path.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_suffix(".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)
    tmp.replace(path)
    return len(data)
