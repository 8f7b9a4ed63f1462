"""On-disk response cache, keyed by request digest.

One append-only log, ``<directory>/responses.jsonl``, holds a line ``{"digest",
"request", "response"}`` per entry, whose bytes depend only on the request and
the response. It is read once, on first use, under an exclusive ``flock``: an
unterminated last line, as a killed ``put`` leaves it, is dropped; a line that
is not an object with a string ``digest`` and a UTF-8 string ``response`` is a
miss with a warning naming ``<file>:<line>``; of two lines with one digest the
later wins. No other file in the directory is read. ``put`` appends a line
under the thread lock and the ``flock``, so processes may share a directory;
an entry another process appends after the load is a miss here. A ``put``
that fails to write its whole line leaves the log as it was.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
from pathlib import Path

from ..core import drop_torn_tail, encodable

logger = logging.getLogger(__name__)


def _entry(data: bytes, where: str) -> tuple[str, str] | None:
    """The line's (digest, response) pair, or None, with a warning naming ``where``."""
    try:
        record = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        record = None
    if type(record) is dict:
        digest, response = record.get("digest"), record.get("response")
        if type(digest) is str and type(response) is str and encodable(response):
            return digest, response
    logger.warning("ignoring corrupt response cache entry %s", where)
    return None


class ResponseCache:
    def __init__(self, directory: str | Path):
        self.path = Path(directory) / "responses.jsonl"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: dict[str, str] | None = None

    def _load(self) -> dict[str, str]:
        """The entries, read on first use. Call with the lock held."""
        if self._entries is not None:
            return self._entries
        entries: dict[str, str] = {}
        if self.path.exists():  # else the first put makes the log
            with open(self.path, "ab+") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                drop_torn_tail(self.path)
                fh.seek(0)
                for lineno, line in enumerate(fh, start=1):
                    if entry := _entry(line, f"{self.path}:{lineno}"):
                        digest, response = entry
                        entries[digest] = response
        self._entries = entries
        return entries

    def get(self, digest: str) -> str | None:
        """The cached response, or None on a miss."""
        entries = self._entries
        if entries is None:
            with self._lock:
                entries = self._load()
        return entries.get(digest)

    def put(self, digest: str, request_canonical: str, content: str) -> None:
        """Append an entry, unless the log already holds this response for it; on a
        failed write, cut the log back, keep the entry out and raise OSError naming it."""
        entry = {"digest": digest, "request": request_canonical, "response": content}
        line = (json.dumps(entry) + "\n").encode()
        with self._lock:
            entries = self._load()
            if entries.get(digest) == content:
                return
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                start = os.lseek(fd, 0, os.SEEK_END)
                try:
                    while line:
                        line = line[os.write(fd, line):]
                except OSError as exc:
                    # No other writer appends while the flock is held.
                    os.ftruncate(fd, start)
                    raise OSError(exc.errno, exc.strerror, os.fspath(self.path)) from None
            finally:
                os.close(fd)
            entries[digest] = content
