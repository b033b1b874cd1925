"""LRU-bounded hot state for the analysis server.

Two caches with different keys and lifetimes:

:class:`HotCache`
    Maps a *context key* (netlist spec, mapping, tech, tool,
    missing-arc policy) to a built
    :class:`~repro.service.requests.AnalysisContext` -- the indexed
    circuit, characterized library, and compiled analysis session.
    This is the expensive state whose rebuild the service exists to
    amortize; eviction drops the least-recently-used context.  A
    per-key build lock ensures concurrent first requests for one
    configuration build it once, not N times.

:class:`ResultMemo`
    Maps a *request fingerprint* (digest of every result-affecting
    field) to the fully rendered outcome.  Only deterministic requests
    participate (no wall-clock budget, no checkpoint/resume, no fault
    injection) -- for those, the byte-identity contract guarantees the
    memoized text is exactly what a fresh run would print.

Counters (``service.cache_*``, ``service.result_*``) feed the ``stats``
endpoint and the warm-cache assertions in the test suite.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs


class HotCache:
    """Thread-safe LRU of built analysis contexts."""

    def __init__(self, max_entries: int = 8, name: str = "cache"):
        if max_entries < 1:
            raise ValueError(f"cache needs >= 1 entry, got {max_entries}")
        self.max_entries = max_entries
        self._name = name
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        #: Per-key build locks so one slow build does not serialize
        #: unrelated requests (the entry lands in ``_entries`` only
        #: once built).
        self._building: Dict[Tuple, threading.Lock] = {}

    def get_or_build(self, key: Tuple, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it (once, even
        under concurrency) on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                obs.counter(f"service.{self._name}_hits").inc()
                return self._entries[key]
            gate = self._building.setdefault(key, threading.Lock())
        with gate:
            # Double-check: another thread may have finished the build
            # while this one waited on the gate.
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    obs.counter(f"service.{self._name}_hits").inc()
                    return self._entries[key]
            obs.counter(f"service.{self._name}_misses").inc()
            value = build()
            with self._lock:
                self._entries[key] = value
                self._entries.move_to_end(key)
                self._building.pop(key, None)
                while len(self._entries) > self.max_entries:
                    evicted, _ = self._entries.popitem(last=False)
                    obs.counter(f"service.{self._name}_evictions").inc()
                    obs.get_logger("repro.service").info(
                        "cache.evict", name=self._name, key=repr(evicted))
            return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self):
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": obs.counter(f"service.{self._name}_hits").value,
            "misses": obs.counter(f"service.{self._name}_misses").value,
            "evictions": obs.counter(f"service.{self._name}_evictions").value,
        }


class ResultMemo:
    """Thread-safe LRU of rendered outcomes keyed by request digest."""

    def __init__(self, max_entries: int = 64):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def get(self, fingerprint: str) -> Optional[Any]:
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                obs.counter("service.result_hits").inc()
                return self._entries[fingerprint]
        obs.counter("service.result_misses").inc()
        return None

    def put(self, fingerprint: str, value: Any) -> None:
        with self._lock:
            self._entries[fingerprint] = value
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def items(self):
        """Snapshot of the entries, oldest -> newest (LRU order), for
        warm-state persistence.  Touches no recency state."""
        with self._lock:
            return list(self._entries.items())

    def restore(self, items) -> int:
        """Re-warm from persisted ``(fingerprint, value)`` pairs in
        oldest -> newest order; returns how many were kept.  Existing
        entries win (a live result is never clobbered by a snapshot),
        and capacity still applies."""
        restored = 0
        with self._lock:
            for fingerprint, value in items:
                if fingerprint in self._entries:
                    continue
                self._entries[fingerprint] = value
                restored += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return restored

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": obs.counter("service.result_hits").value,
            "misses": obs.counter("service.result_misses").value,
        }
