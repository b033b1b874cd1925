"""Live progress heartbeats for long (possibly parallel) searches.

Three pieces:

* :class:`HeartbeatPublisher` -- worker-side.  Hooked into the path
  search (``PathFinder(progress=...)``), it publishes small plain-dict
  beats (origin, extensions tried, paths found, current best arrival)
  into a sink at a wall-clock-throttled rate, plus unconditional
  ``started`` / ``done`` beats around each shard.  In a pool worker the
  sink sends each beat home on the worker's own pipe
  (:mod:`repro.resilience.workers`); in-process shards publish
  straight into the board.
* :class:`ProgressBoard` -- parent-side.  Folds beats into per-origin
  state, derives totals (origins done/total, extensions/s, best bound,
  ETA from the origin completion rate) and remembers each origin's
  last-beat time, which is what the supervisor's hang detection reads:
  a *slow* shard keeps beating with growing extension counts, a
  *stalled* one goes silent, and only the silent one trips the
  heartbeat deadline.
* :class:`ProgressRenderer` -- a throttled single-line stderr display
  (``--progress``): carriage-return refresh on a TTY, sparse appended
  lines otherwise.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, IO, Optional

#: Minimum seconds between periodic beats from one shard.
BEAT_SECONDS = 0.25


class HeartbeatPublisher:
    """Worker-side beat source for one shard.

    Callable so it can be handed to ``PathFinder(progress=...)``; the
    finder invokes it periodically from the search loop.  ``sink`` is a
    callable taking one beat dict (the worker pipe's sender, or the
    in-process board's ``update``).
    """

    def __init__(self, sink: Callable[[Dict], None], origin: str,
                 min_interval: float = BEAT_SECONDS):
        self._put = sink
        self.origin = origin
        self.min_interval = min_interval
        # -inf, not 0.0: monotonic() starts near zero on a fresh boot,
        # which would silently throttle the first periodic beat.
        self._last = float("-inf")

    def _emit(self, phase: str, extensions: int = 0, paths: int = 0,
              best: Optional[float] = None) -> None:
        try:
            self._put({
                "origin": self.origin,
                "phase": phase,
                "extensions": extensions,
                "paths": paths,
                "best": best,
                "ts": time.time(),
            })
        except Exception:
            # A broken pipe (parent exiting) must never take the search
            # down with it.
            pass

    def started(self) -> None:
        self._emit("started")

    def done(self, extensions: int = 0, paths: int = 0,
             best: Optional[float] = None) -> None:
        self._emit("done", extensions, paths, best)

    def __call__(self, finder) -> None:
        now = time.monotonic()
        if now - self._last < self.min_interval:
            return
        self._last = now
        stats = finder.stats
        self._emit("running", stats.extensions_tried, stats.paths_found,
                   getattr(finder, "best_arrival", None))


class ProgressBoard:
    """Parent-side fold of heartbeat streams into run-level progress."""

    def __init__(self, total_origins: int,
                 renderer: Optional["ProgressRenderer"] = None):
        self.total = total_origins
        self.done = 0
        self.paths = 0
        self.best: Optional[float] = None
        self.started = time.monotonic()
        #: origin -> live extension count of the shard in flight.
        self.running: Dict[str, int] = {}
        #: extensions already banked by finished origins.
        self._banked = 0
        #: origin -> monotonic time of its last beat (hang detection).
        self.last_beat: Dict[str, float] = {}
        self.renderer = renderer

    # ------------------------------------------------------------------
    def update(self, beat: Dict) -> None:
        origin = beat["origin"]
        self.last_beat[origin] = time.monotonic()
        phase = beat.get("phase")
        if phase == "started":
            self.running.setdefault(origin, 0)
        elif phase == "done":
            # The done beat's count is authoritative (the last periodic
            # beat is throttled, hence stale); fall back to the live
            # count only for sources that never report one.
            live = self.running.pop(origin, 0)
            self._banked += beat.get("extensions") or live
            self.done += 1
            self.paths += beat.get("paths", 0)
        else:
            self.running[origin] = beat.get("extensions", 0)
        best = beat.get("best")
        if best is not None and (self.best is None or best > self.best):
            self.best = best
        if self.renderer is not None:
            self.renderer.maybe_render(self)

    def mark_done(self, origin: str, paths: int = 0,
                  extensions: int = 0) -> None:
        """Board-direct completion for shards that never beat (resumed,
        failed, in-process without a hook)."""
        self.update({"origin": origin, "phase": "done",
                     "extensions": extensions, "paths": paths,
                     "best": None})

    # ------------------------------------------------------------------
    @property
    def extensions(self) -> int:
        return self._banked + sum(self.running.values())

    def beat_age(self, origin: str) -> Optional[float]:
        """Seconds since the origin's last beat (None: never beat)."""
        last = self.last_beat.get(origin)
        return None if last is None else time.monotonic() - last

    def eta_seconds(self) -> Optional[float]:
        if not self.done or self.done >= self.total:
            return None
        elapsed = time.monotonic() - self.started
        return elapsed / self.done * (self.total - self.done)

    def summary(self) -> str:
        parts = [f"origins {self.done}/{self.total}"]
        extensions = self.extensions
        if extensions:
            parts.append(f"ext {_si(extensions)}")
        if self.paths:
            parts.append(f"paths {self.paths}")
        if self.best is not None:
            parts.append(f"best {self.best * 1e12:.1f}ps")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        return " · ".join(parts)

    def close(self) -> None:
        if self.renderer is not None:
            self.renderer.close(self)


class ProgressRenderer:
    """Throttled one-line stderr progress display."""

    def __init__(self, stream: Optional[IO] = None,
                 min_interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last = float("-inf")
        self._dirty = False
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    def maybe_render(self, board: ProgressBoard) -> None:
        now = time.monotonic()
        interval = self.min_interval if self._tty else \
            max(self.min_interval, 2.0)
        if now - self._last < interval:
            return
        self._last = now
        self._write(board)

    def _write(self, board: ProgressBoard) -> None:
        line = board.summary()
        if self._tty:
            self.stream.write(f"\r\x1b[2K{line}")
        else:
            self.stream.write(f"{line}\n")
        self.stream.flush()
        self._dirty = self._tty

    def close(self, board: ProgressBoard) -> None:
        line = board.summary()
        if self._dirty:
            self.stream.write(f"\r\x1b[2K{line}\n")
        else:
            self.stream.write(f"{line}\n")
        self.stream.flush()
        self._dirty = False


def _si(value: int) -> str:
    for threshold, suffix in ((1_000_000_000, "G"), (1_000_000, "M"),
                              (1_000, "k")):
        if value >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    return str(value)


#: Signature of the search progress hook: called with the finder.
ProgressHook = Callable[[object], None]
