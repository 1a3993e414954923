"""Crash-safe filesystem primitives shared by the durable subsystems.

Three disciplines, so the checkpoint, the tier-evaluation store
(:mod:`repro.cache`), the serve/watch/grid journals and any future
durable state all persist the same way:

* **pid-stamped sidecar locks** -- a writer creates ``<target>.lock``
  exclusively (``O_CREAT | O_EXCL``) with its pid inside; a lock whose
  recorded pid is dead or unreadable (the writer was killed
  mid-rename) is *stale* and gets broken, while a lock held by a live
  process raises :class:`LockContention` so two writers can never
  interleave renames on one path;
* **atomic replace** -- data is written to a temp file in the target's
  directory, fsynced, then ``os.replace``'d over the target, so a
  reader never observes a torn file and a crash at any instant leaves
  either the old content or the new, never a mix; the directory is
  fsynced after the rename, so a power cut cannot revert the name to
  the old file;
* **framed journals** -- :class:`Journal` appends one record per line,
  each framed by its length and SHA-256 digest, so replay tells a torn
  tail from mid-file damage and never applies an altered record.

Readers need no locks under this scheme: they only ever see complete
files (rename is atomic on POSIX), which is what lets the cache serve
lock-free reads to any number of concurrent processes.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional


class LockContention(OSError):
    """The sidecar lock is held by another live writer."""


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a lock-holder pid."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def lock_holder(lock_path: str) -> Optional[int]:
    """The pid recorded in a lock file, or None when unreadable."""
    try:
        with open(lock_path) as handle:
            return int(handle.read().strip() or "0")
    except (OSError, ValueError):
        return None


def acquire_lock(target: str) -> str:
    """Create ``<target>.lock`` exclusively; returns the lock path.

    A lock held by a *live* process raises :class:`LockContention`
    (single-writer assertion).  A stale lock -- its recorded pid is
    dead or unreadable, e.g. the writer was killed mid-rename -- is
    broken and acquisition retried once.
    """
    lock_path = target + ".lock"
    last_exc: Optional[OSError] = None
    for _ in range(2):
        try:
            fd = os.open(lock_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError as exc:
            last_exc = exc
            holder = lock_holder(lock_path)
            if holder is not None and holder != os.getpid() \
                    and pid_alive(holder):
                contention = LockContention(
                    "%r is locked by another live writer (pid %d)"
                    % (target, holder))
                contention.__cause__ = exc
                raise contention
            try:  # stale (dead or unreadable holder): break and retry
                os.unlink(lock_path)
            except OSError:
                pass
            continue
        with os.fdopen(fd, "w") as handle:
            handle.write("%d\n" % os.getpid())
        return lock_path
    contention = LockContention("%r lock is contended; giving up"
                                % target)
    contention.__cause__ = last_exc
    raise contention


def release_lock(lock_path: str) -> None:
    try:
        os.unlink(lock_path)
    except OSError:
        pass


def _fsync_directory(directory: str) -> None:
    """Make a create or rename inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(target: str, data: bytes,
                       durable: bool = True,
                       prefix: str = ".fsio-") -> None:
    """Write ``data`` to ``target`` via temp file + fsync + rename,
    then fsync the directory so the rename itself survives a power cut.

    ``durable=False`` skips both fsyncs (faster; a power cut may then
    lose the write, but a torn file still cannot appear).  On any
    failure before the rename the temp file is removed and the
    original ``target`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(target))
    handle = tempfile.NamedTemporaryFile(
        "wb", dir=directory, prefix=prefix, suffix=".tmp", delete=False)
    try:
        with handle:
            handle.write(data)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    if durable:
        _fsync_directory(directory)


#: ``<length> <sha256 hex> `` in front of each journal record's body.
_FRAME_HEADER = re.compile(rb"(\d{1,10}) ([0-9a-f]{64}) ")


def encode_record(record: Any) -> bytes:
    """One journal line: ``<length> <sha256> <json body>`` + newline."""
    body = json.dumps(record, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return b"%d %s %s\n" % (len(body), digest, body)


@dataclass
class JournalReplay:
    """Verified records in file order.  ``torn`` counts an unterminated
    final frame that fails verification (a crash mid-append),
    ``corrupt`` the terminated lines that fail it."""

    records: List[Any] = field(default_factory=list)
    torn: int = 0
    corrupt: int = 0


def decode_records(data: bytes) -> JournalReplay:
    """Replay framed journal bytes, resyncing past bad frames.

    Only a body that matches its digest is trusted.  The length makes a
    frame self-delimiting, so a damaged newline costs nothing; a frame
    that fails is skipped to the next newline, so one damaged byte
    costs at most the record whose frame holds it.
    """
    replay = JournalReplay()
    position = 0
    while position < len(data):
        header = _FRAME_HEADER.match(data, position)
        if header is not None:
            body = data[header.end():header.end() + int(header.group(1))]
            if hashlib.sha256(body).hexdigest() == header.group(2).decode():
                replay.records.append(json.loads(body))
                position = header.end() + len(body) + 1  # + terminator
                continue
        newline = data.find(b"\n", position)
        if newline < 0:
            replay.torn += 1
            break
        if newline > position:      # a blank line is a torn-tail fence
            replay.corrupt += 1
        position = newline + 1
    return replay


class Journal:
    """An append-only journal of framed JSON records.  :meth:`replay`
    never writes, so it is safe beside a live appender."""

    def __init__(self, path: str, durable: bool = True):
        self.path = path
        self.durable = durable

    def append(self, record: Any) -> None:
        """One ``os.write`` on an ``O_APPEND`` fd, fsync'd if durable
        (with the directory too when this append created the file).

        A file that does not end in a newline (a torn append) is fenced
        off with one first; bytes already there are never rewritten.
        """
        frame = encode_record(record)
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND)
            created = False
        except FileNotFoundError:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT,
                         0o644)
            created = True
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                frame = b"\n" + frame
            if os.write(fd, frame) != len(frame):
                raise OSError(errno.EIO, "short write to %r" % self.path)
            if self.durable:
                os.fsync(fd)
        finally:
            os.close(fd)
        if created and self.durable:
            _fsync_directory(os.path.dirname(os.path.abspath(self.path)))

    def replay(self) -> JournalReplay:
        try:
            with open(self.path, "rb") as handle:
                return decode_records(handle.read())
        except FileNotFoundError:
            return JournalReplay()

    def preserved(self) -> List[str]:
        """The ``<path>.corrupt-N`` copies kept by :meth:`rewrite`,
        oldest first."""
        copies: List[str] = []
        while True:
            copy = "%s.corrupt-%d" % (self.path, len(copies) + 1)
            if not os.path.exists(copy):
                return copies
            copies.append(copy)

    def rewrite(self, records: Iterable[Any],
                preserve: bool = False) -> None:
        """Atomically replace the journal with ``records``.  With
        ``preserve``, first copy it to the first free
        ``<path>.corrupt-N`` so compaction never erases evidence."""
        if preserve:
            copy = "%s.corrupt-%d" % (self.path, len(self.preserved()) + 1)
            with open(self.path, "rb") as handle:
                atomic_write_bytes(copy, handle.read(),
                                   durable=self.durable)
        atomic_write_bytes(self.path,
                           b"".join(map(encode_record, records)),
                           durable=self.durable)


__all__ = ["LockContention", "pid_alive", "lock_holder", "acquire_lock",
           "release_lock", "atomic_write_bytes", "encode_record",
           "decode_records", "JournalReplay", "Journal"]
