"""Checkpoint/resume for long-running searches.

A multi-hour exhaustive run must survive crashes and SIGINT.  The
search is sharded per origin (one primary input at a time), so the
natural checkpoint granularity is the *completed origin*: after each
origin finishes, the supervisor appends its path list, search-effort
counters, and completeness status to a JSON snapshot, written
atomically (:func:`atomic_write_json`: temp file + rename, shared with
the service's warm-state snapshots) so a crash mid-write never corrupts
the last good checkpoint.

A checkpoint is bound to its run by a configuration fingerprint (the
circuit name plus every search parameter that affects the path set).
``--resume`` refuses a checkpoint whose fingerprint does not match the
current invocation -- silently resuming a run with different pruning or
budgets would splice incompatible path sets together.

Paths round-trip through :func:`repro.core.report.path_to_dict` /
``path_from_dict`` exactly (JSON floats are shortest-round-trip), which
is what makes checkpoint-resume runs byte-identical to uninterrupted
ones -- the property the fault-injection harness pins.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.path import TimedPath
from repro.core.report import path_from_dict, path_to_dict
from repro.obs.logging import get_logger
from repro.resilience.errors import CheckpointError

_log = get_logger("repro.resilience")

#: Schema version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1


def config_fingerprint(circuit_name: str, origins: Sequence[str],
                       search_kwargs: Dict) -> str:
    """Stable digest of everything that shapes the path set."""
    payload = json.dumps(
        {
            "circuit": circuit_name,
            "origins": list(origins),
            "search": {k: search_kwargs[k] for k in sorted(search_kwargs)},
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


class Checkpoint:
    """In-memory image of one checkpoint file."""

    def __init__(self, circuit_name: str, fingerprint: str):
        self.circuit_name = circuit_name
        self.fingerprint = fingerprint
        #: origin name -> (status, paths, stats dict, counter deltas).
        self.shards: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    def record(self, origin: str, status: str, paths: Sequence[TimedPath],
               stats: Dict[str, float], deltas: Dict[str, int]) -> None:
        self.shards[origin] = {
            "status": status,
            "paths": [path_to_dict(p) for p in paths],
            "stats": stats,
            "deltas": deltas,
        }

    def completed_origins(self) -> List[str]:
        """Origins safe to skip on resume: their recorded path set is
        exact, so replaying them would only duplicate work."""
        return [name for name, shard in self.shards.items()
                if shard["status"] == "complete"]

    def shard_result(
        self, origin: str
    ) -> Tuple[str, List[TimedPath], Dict[str, float], Dict[str, int]]:
        shard = self.shards[origin]
        return (
            shard["status"],
            [path_from_dict(d) for d in shard["paths"]],
            dict(shard["stats"]),
            {k: int(v) for k, v in shard["deltas"].items()},
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": CHECKPOINT_VERSION,
            "circuit": self.circuit_name,
            "fingerprint": self.fingerprint,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Checkpoint":
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {data.get('version')!r} is not "
                f"supported (expected {CHECKPOINT_VERSION})"
            )
        ckpt = cls(data["circuit"], data["fingerprint"])
        ckpt.shards = dict(data["shards"])
        return ckpt


def atomic_write_json(path: Union[str, Path], document: Dict) -> None:
    """Write ``document`` as JSON to ``path`` atomically: the bytes land
    in ``<path>.tmp<pid>`` and are renamed over the target, so a crash
    mid-write leaves the previous good file intact, never a torn one.
    Creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    temporary.write_text(json.dumps(document))
    temporary.replace(path)


class CheckpointWriter:
    """Appends shard results to an on-disk checkpoint, rewriting it
    atomically after every shard -- one origin is minutes of work on the
    circuits that need checkpoints at all."""

    def __init__(self, path: Union[str, Path], circuit_name: str,
                 fingerprint: str):
        self.path = Path(path)
        self.checkpoint = Checkpoint(circuit_name, fingerprint)

    def record(self, origin: str, status: str, paths: Sequence[TimedPath],
               stats: Dict[str, float], deltas: Dict[str, int]) -> None:
        self.checkpoint.record(origin, status, paths, stats, deltas)
        self.flush()

    def flush(self) -> None:
        atomic_write_json(self.path, self.checkpoint.to_dict())
        _log.debug("checkpoint.flushed", path=str(self.path),
                   shards=len(self.checkpoint.shards))


def load_checkpoint(path: Union[str, Path],
                    expect_fingerprint: Optional[str] = None) -> Checkpoint:
    """Read and validate a checkpoint file.

    Raises :class:`CheckpointError` on unreadable/corrupt files and on
    a fingerprint mismatch (the checkpoint belongs to a different
    circuit or search configuration).
    """
    file_path = Path(path)
    try:
        data = json.loads(file_path.read_text())
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {file_path}: {exc}", cause=exc
        )
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {file_path} is corrupt: {exc}", cause=exc
        )
    checkpoint = Checkpoint.from_dict(data)
    if (expect_fingerprint is not None
            and checkpoint.fingerprint != expect_fingerprint):
        raise CheckpointError(
            f"checkpoint {file_path} was written by a different "
            f"circuit/search configuration (fingerprint "
            f"{checkpoint.fingerprint} != expected {expect_fingerprint}); "
            "refusing to splice incompatible path sets"
        )
    _log.info("checkpoint.loaded", path=str(file_path),
              shards=len(checkpoint.shards),
              complete=len(checkpoint.completed_origins()))
    return checkpoint
