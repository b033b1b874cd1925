"""Structured, level-filtered logging with an optional JSONL sink.

Deliberately independent of the stdlib ``logging`` module: records are
flat dicts (``event`` plus keyword fields), the level check is a single
integer comparison so disabled levels cost nothing in hot code, and
configuration is one process-wide call::

    from repro.obs import get_logger, configure_logging

    configure_logging(level="debug", jsonl_path="run.log.jsonl")
    log = get_logger("repro.charlib")
    log.info("cache.hit", path=str(cache_path), key=digest)

The human sink (stderr by default) prints ``TIME LEVEL logger event
key=value ...``; the JSONL sink writes one ``json.dumps`` record per
line, round-trippable for later analysis.  The default level is
``warning`` so library code can log freely without polluting normal
runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from datetime import datetime, timezone
from typing import Dict, IO, Optional

DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40

LEVELS: Dict[str, int] = {
    "debug": DEBUG,
    "info": INFO,
    "warning": WARNING,
    "error": ERROR,
}

_LEVEL_NAMES = {v: k.upper() for k, v in LEVELS.items()}


class _Config:
    __slots__ = ("level", "stream", "jsonl")

    def __init__(self):
        self.level: int = WARNING
        self.stream: Optional[IO[str]] = None  # None = sys.stderr at call time
        self.jsonl: Optional[IO[str]] = None


_config = _Config()
_loggers: Dict[str, "Logger"] = {}

#: Held around every sink write and across ``fork``: a pool worker
#: forked from a supervising thread must not inherit a stream another
#: thread had locked mid-write, or its first log line would block
#: forever.
_WRITE_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_WRITE_LOCK.acquire,
                        after_in_parent=_WRITE_LOCK.release,
                        after_in_child=_WRITE_LOCK.release)


def configure(
    level: str = "info",
    stream: Optional[IO[str]] = None,
    jsonl_path: Optional[str] = None,
) -> None:
    """Set the process-wide level and sinks.

    ``stream`` overrides the human-readable sink (default stderr);
    ``jsonl_path`` opens (append) a JSONL sink, ``None`` closes any
    previous one.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from {sorted(LEVELS)}")
    _config.level = LEVELS[level]
    _config.stream = stream
    if _config.jsonl is not None:
        _config.jsonl.close()
        _config.jsonl = None
    if jsonl_path is not None:
        _config.jsonl = open(jsonl_path, "a", encoding="utf-8")


def level() -> int:
    return _config.level


class Logger:
    """Named emitter of structured records."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    # ------------------------------------------------------------------
    def _emit(self, levelno: int, event: str, fields: Dict) -> None:
        record = {
            "ts": time.time(),
            "level": _LEVEL_NAMES[levelno],
            "logger": self.name,
            "event": event,
        }
        record.update(fields)
        stream = _config.stream
        if stream is None:
            import sys

            stream = sys.stderr
        stamp = datetime.fromtimestamp(record["ts"], tz=timezone.utc).strftime(
            "%H:%M:%S.%f"
        )[:-3]
        extras = " ".join(f"{k}={v}" for k, v in fields.items())
        line = f"{stamp} {record['level']:<7s} {self.name} {event}"
        with _WRITE_LOCK:
            if _config.jsonl is not None:
                _config.jsonl.write(json.dumps(record, default=str) + "\n")
                _config.jsonl.flush()
            stream.write(line + (f" {extras}" if extras else "") + "\n")

    def log(self, levelno: int, event: str, **fields) -> None:
        if levelno >= _config.level:
            self._emit(levelno, event, fields)

    def debug(self, event: str, **fields) -> None:
        if DEBUG >= _config.level:
            self._emit(DEBUG, event, fields)

    def info(self, event: str, **fields) -> None:
        if INFO >= _config.level:
            self._emit(INFO, event, fields)

    def warning(self, event: str, **fields) -> None:
        if WARNING >= _config.level:
            self._emit(WARNING, event, fields)

    def error(self, event: str, **fields) -> None:
        if ERROR >= _config.level:
            self._emit(ERROR, event, fields)

    def is_enabled(self, levelno: int) -> bool:
        return levelno >= _config.level


def get_logger(name: str) -> Logger:
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = Logger(name)
    return logger
