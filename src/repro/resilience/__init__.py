"""Resilience layer: the pipeline degrades instead of dying.

Five cooperating pieces:

* :mod:`repro.resilience.errors` -- structured error taxonomy with
  per-class exit codes, so the CLI maps every failure to a one-line
  message and a distinct status instead of a raw traceback;
* :mod:`repro.resilience.budgets` -- anytime-search budgets
  (wall-clock / extensions / backtracks) and per-origin completeness
  statuses for degraded-mode results;
* :mod:`repro.resilience.checkpoint` -- atomic JSON snapshots of
  completed origins for crash/SIGINT survival and exact resume;
* :mod:`repro.resilience.workers` -- the supervised worker pool under
  both ``--jobs N`` shards and the daemon's fleet: one task per forked
  worker, so each crash or hang is blamed on its own task;
* :mod:`repro.resilience.supervisor` -- the supervised parallel driver
  on that pool: retry budget, serial fallback, clean SIGINT unwinding.

Only the leaf modules (errors, budgets) are re-exported here: the core
search imports them, so pulling :mod:`~repro.resilience.supervisor`
(which imports the core search back) into the package ``__init__``
would create an import cycle.  Import the workers, supervisor and
checkpoint modules explicitly.

Recovery events surface through :mod:`repro.obs` as ``resilience.*``
metrics: ``shard_retries``, ``worker_crashes``, ``shard_timeouts``,
``heartbeat_stalls``, ``serial_fallbacks``, ``degraded_origins``,
``resumed_shards``.
"""

from repro.resilience.budgets import (
    BudgetLedger,
    CompletenessReport,
    ORIGIN_STATUSES,
    OriginOutcome,
    SearchBudgets,
)
from repro.resilience.errors import (
    CheckpointError,
    MissingArcFailure,
    NetlistFormatError,
    NetlistLoadError,
    ResilienceError,
    SearchInterrupted,
    UnknownCellError,
    classify,
)

__all__ = [
    "BudgetLedger",
    "CheckpointError",
    "CompletenessReport",
    "MissingArcFailure",
    "NetlistFormatError",
    "NetlistLoadError",
    "ORIGIN_STATUSES",
    "OriginOutcome",
    "ResilienceError",
    "SearchBudgets",
    "SearchInterrupted",
    "UnknownCellError",
    "classify",
]
