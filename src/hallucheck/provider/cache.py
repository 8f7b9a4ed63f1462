"""On-disk response cache, keyed by request digest.

One JSON file per digest. Writes go through a temp file and an atomic
rename, so concurrent readers never see a partial record; in-process writers
are serialized with a lock. Entries carry no timestamp: one request and
response always give the same bytes. Entries written with a ``stored_at``
field still read as hits, and a ``MANIFEST`` file that older versions kept
beside the entries is ignored.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
from pathlib import Path

from ..core import encodable

logger = logging.getLogger(__name__)


class ResponseCache:
    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> str | None:
        """Return the cached response content, or None on a miss. An entry
        that is not a valid record, or whose response does not encode as
        UTF-8, is a miss too; the next ``put`` rewrites it."""
        path = self._path(digest)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (ValueError, RecursionError):
            record = None
        response = record.get("response") if isinstance(record, dict) else None
        if not isinstance(response, str) or not encodable(response):
            logger.warning("ignoring corrupt response cache entry %s", path)
            return None
        return response

    def put(self, digest: str, request_canonical: str, content: str) -> None:
        record = {
            "digest": digest,
            "request": request_canonical,
            "response": content,
        }
        body = json.dumps(record, ensure_ascii=False, indent=2)
        with self._lock:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(body)
                os.replace(tmp, self._path(digest))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
