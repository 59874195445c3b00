"""Content-addressed, multi-process-safe result store.

The store is a directory of append-only JSONL *segments*, one segment
per writer process (``segments/seg-<pid>-<token>.jsonl``).  Writers
never share a file, so concurrent campaigns on the same store cannot
interleave partial lines — the failure mode that advisory locks would
otherwise have to paper over.  Readers merge all segments into one
in-memory index at open (and on :meth:`refresh`), skipping torn final
lines: a crash mid-append loses at most that one record.

Entries are keyed by :func:`repro.store.fingerprint.result_key` — a
hash of (campaign fingerprint, defect key) — and hold the campaign's
record entry, so a cached record round-trips field-identically through
:func:`~repro.faults.campaign.run_campaign`.  A campaign puts each unit
of work's records as it finishes, so the store is also the campaign's
resume log: rerunning a killed campaign serves what it had finished.
Puts are idempotent: a key already present (in memory or written by a
concurrent writer seen via ``refresh``) is skipped, which is what makes
the store a dedup cache rather than a log.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

STORE_SCHEMA = 1
_SEGMENT_DIR = "segments"


def _line(key: str, entry: Dict[str, Any]) -> str:
    """One segment line holding ``entry`` under ``key``."""
    return json.dumps({"type": "record", "schema": STORE_SCHEMA,
                       "key": key, "entry": entry}, sort_keys=True) + "\n"


class ResultStore:
    """Durable dedup cache for campaign fault records.

    Parameters
    ----------
    path:
        Directory to hold the store (created if missing).  A single
        store may be shared by any number of concurrent readers and
        writers in different processes.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._segment_dir = self.path / _SEGMENT_DIR
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        self._index: Dict[str, Dict[str, Any]] = {}
        # Concurrent *processes* are isolated by per-writer segments;
        # concurrent *threads* (service jobs on an executor) share this
        # object and serialize on the lock.
        self._lock = threading.RLock()
        # Lazily-opened private segment; a store that only reads never
        # creates a file.
        self._segment_path: Optional[Path] = None
        self._segment_file = None
        self._segment_pid: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.dedup_skips = 0
        self.refresh()

    # -- reading ---------------------------------------------------------

    def refresh(self) -> int:
        """Rescan all segments, merging records written by other
        processes since the last scan.  Returns the index size."""
        with self._lock:
            self._index.clear()
            for segment in sorted(self._segment_dir.glob("*.jsonl")):
                for entry in self._read_segment(segment):
                    self._index[entry["key"]] = entry["entry"]
            return len(self._index)

    @staticmethod
    def _read_segment(segment: Path) -> Iterator[Dict[str, Any]]:
        try:
            text = segment.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail or garbage — skip, don't fail
            if (isinstance(entry, dict) and entry.get("type") == "record"
                    and isinstance(entry.get("key"), str)
                    and isinstance(entry.get("entry"), dict)):
                yield entry

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record entry for ``key``, or ``None`` (counted
        as a hit/miss in :meth:`stats`)."""
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    # -- writing ---------------------------------------------------------

    def _writer(self):
        pid = os.getpid()
        if self._segment_file is None or self._segment_pid != pid:
            # First write, or we were forked: a child inheriting the
            # parent's handle must not append to the parent's segment.
            if self._segment_file is not None:
                try:
                    self._segment_file.close()
                except OSError:
                    pass
            token = uuid.uuid4().hex[:8]
            self._segment_path = (self._segment_dir
                                  / f"seg-{pid}-{token}.jsonl")
            self._segment_file = open(self._segment_path, "a")
            self._segment_pid = pid
        return self._segment_file

    def put(self, key: str, entry: Dict[str, Any]) -> bool:
        """Store ``entry`` under ``key``; returns True if written,
        False if the key was already present (dedup skip)."""
        with self._lock:
            if key in self._index:
                self.dedup_skips += 1
                return False
            writer = self._writer()
            writer.write(_line(key, entry))
            writer.flush()
            self._index[key] = entry
            self.puts += 1
            return True

    # -- maintenance -----------------------------------------------------

    def compact(self) -> int:
        """Rewrite all live segments into one deduplicated segment.

        Returns the number of records retained.  Safe only when no
        other process is writing (an admin operation) — concurrent
        writers' new segments are untouched, but records they wrote
        during the rewrite window may be dropped from the index until
        the next :meth:`refresh`.
        """
        with self._lock:
            self._rewrite(lambda key, entry: True)
            return len(self._index)

    def evict(self, keep) -> int:
        """Drop every record whose key fails ``keep(key, entry)``,
        then compact.  Returns the number evicted."""
        with self._lock:
            return self._rewrite(keep)

    def _rewrite(self, keep) -> int:
        """Replace every segment by one holding the records ``keep``
        accepts; returns the number dropped.  The writer is closed
        first: its segment is unlinked with the rest, so a later
        :meth:`put` opens a fresh one."""
        self.close()
        self.refresh()
        before = len(self._index)
        self._index = {key: entry for key, entry in self._index.items()
                       if keep(key, entry)}
        old_segments = sorted(self._segment_dir.glob("*.jsonl"))
        token = uuid.uuid4().hex[:8]
        compacted = self._segment_dir / f"seg-{os.getpid()}-{token}.jsonl"
        with open(compacted, "w") as out:
            for key in sorted(self._index):
                out.write(_line(key, self._index[key]))
        for segment in old_segments:
            segment.unlink(missing_ok=True)
        return before - len(self._index)

    def stats(self) -> Dict[str, int]:
        return {"records": len(self._index), "hits": self.hits,
                "misses": self.misses, "puts": self.puts,
                "dedup_skips": self.dedup_skips}

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._segment_file is not None:
            try:
                self._segment_file.close()
            except OSError:
                pass
            self._segment_file = None
            self._segment_pid = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore(path={str(self.path)!r}, "
                f"records={len(self._index)})")
