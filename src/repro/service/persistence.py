"""Crash-safe warm-state persistence for the analysis daemon.

A restarted daemon used to cold-start: every characterized library,
compiled session, and memoized result was gone, so the first request
per configuration paid the full build (~500x a memo hit).  This module
snapshots the daemon's warm state -- the :class:`ResultMemo` entries
and the hot-context key list -- to disk periodically and on graceful
drain, and re-warms a booting server from the last good snapshot.

Trust model (the :mod:`repro.resilience.checkpoint` idiom):

* **Atomic writes.**  Snapshot bytes land in ``<path>.tmp<pid>`` and
  are ``rename``\\ d over the target, so a crash mid-write leaves the
  previous good snapshot intact, never a torn file.
* **Fingerprint guard.**  The file carries a blake2b digest of its
  canonical payload JSON plus a schema version.  On load, *anything*
  unexpected -- unreadable file, bad JSON, version skew, digest
  mismatch, malformed entries -- discards the snapshot and cold-starts
  (counter ``service.snapshot_discarded``).  A snapshot is a cache of
  recomputable state: it is never trusted, only verified.
* **Staleness.**  ``max_age_s`` (optional) rejects snapshots older
  than the given horizon; memoized reports are deterministic, but an
  operator rolling new library data wants a bounded re-warm window.

Counters: ``service.snapshots_written``, ``service.snapshot_restores``,
``service.snapshot_restored_entries``, ``service.snapshot_discarded``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.service.protocol import encode_payload

_log = obs.get_logger("repro.service")

#: Schema version; bumped on incompatible snapshot layout changes
#: (2: context keys and request fingerprints lost the scalar-sweep
#: switch field).
SNAPSHOT_VERSION = 2


def _digest(payload: Dict[str, Any]) -> str:
    """blake2b over the canonical payload JSON (sorted keys), so the
    digest is independent of dict ordering and whitespace."""
    return hashlib.blake2b(encode_payload(payload),
                           digest_size=16).hexdigest()


class WarmStateStore:
    """Reads and writes warm-state snapshots for one daemon.

    ``save`` takes plain data: a list of ``(fingerprint, result_frame)``
    memo items (oldest -> newest, so restoring in order preserves LRU
    recency) and a list of context-key tuples.  ``load`` returns the
    same shapes, or ``None`` when no trustworthy snapshot exists.
    """

    def __init__(self, path: Union[str, Path],
                 max_age_s: Optional[float] = None):
        self.path = Path(path)
        self.max_age_s = max_age_s

    # -- write -------------------------------------------------------------

    def save(self, memo_items: List[Tuple[str, Dict[str, Any]]],
             context_keys: List[Tuple]) -> None:
        payload = {
            "memo": [[fingerprint, value]
                     for fingerprint, value in memo_items],
            "contexts": [list(key) for key in context_keys],
            "saved_at": time.time(),
        }
        document = {
            "version": SNAPSHOT_VERSION,
            "digest": _digest(payload),
            "payload": payload,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temporary = self.path.with_suffix(
            self.path.suffix + f".tmp{os.getpid()}")
        temporary.write_text(json.dumps(document))
        temporary.replace(self.path)
        obs.counter("service.snapshots_written").inc()
        _log.info("persistence.snapshot_written", path=str(self.path),
                  memo_entries=len(payload["memo"]),
                  context_keys=len(payload["contexts"]))

    # -- read --------------------------------------------------------------

    def _discard(self, reason: str) -> None:
        obs.counter("service.snapshot_discarded").inc()
        _log.warning("persistence.snapshot_discarded",
                     path=str(self.path), reason=reason)

    def load(self) -> Optional[Dict[str, Any]]:
        """Validated snapshot payload (``memo`` as ``(fingerprint,
        value)`` pairs, ``contexts`` as key tuples, ``saved_at``), or
        ``None`` when there is nothing trustworthy to restore."""
        if not self.path.exists():
            return None
        try:
            document = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._discard(f"unreadable: {exc}")
            return None
        if not isinstance(document, dict):
            self._discard("not a JSON object")
            return None
        if document.get("version") != SNAPSHOT_VERSION:
            self._discard(
                f"version {document.get('version')!r} != "
                f"{SNAPSHOT_VERSION}")
            return None
        payload = document.get("payload")
        if not isinstance(payload, dict):
            self._discard("payload is not an object")
            return None
        if document.get("digest") != _digest(payload):
            self._discard("digest mismatch (corrupt or tampered)")
            return None
        memo = payload.get("memo")
        contexts = payload.get("contexts")
        saved_at = payload.get("saved_at")
        if (not isinstance(memo, list) or not isinstance(contexts, list)
                or not isinstance(saved_at, (int, float))):
            self._discard("payload shape is wrong")
            return None
        if any(not (isinstance(item, list) and len(item) == 2
                    and isinstance(item[0], str)
                    and isinstance(item[1], dict))
               for item in memo):
            self._discard("memo entries are malformed")
            return None
        if self.max_age_s is not None and \
                time.time() - saved_at > self.max_age_s:
            self._discard(
                f"stale: {time.time() - saved_at:.0f}s old, horizon "
                f"{self.max_age_s:g}s")
            return None
        obs.counter("service.snapshot_restores").inc()
        obs.counter("service.snapshot_restored_entries").inc(len(memo))
        _log.info("persistence.snapshot_restored", path=str(self.path),
                  memo_entries=len(memo), context_keys=len(contexts),
                  age_s=round(time.time() - saved_at, 1))
        return {
            "memo": [(item[0], item[1]) for item in memo],
            "contexts": [tuple(key) for key in contexts],
            "saved_at": saved_at,
        }
