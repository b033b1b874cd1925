"""Anytime-search budgets and per-origin completeness accounting.

The exhaustive single-pass search has no intrinsic stopping point short
of completion, which on large circuits means hours.  A
:class:`SearchBudgets` caps the effort along three axes -- wall-clock
seconds, extensions tried, justification backtracks -- and the search
checks the ledger (:class:`BudgetLedger`) at each choice point.  Every
origin gets the full extension and backtrack allowances; the wall axis
is one deadline per search call.  When any axis is exhausted the
search *returns* instead of dying: every path recorded so far is kept,
and each origin is tagged with a
:data:`completeness <ORIGIN_STATUSES>` status so the report can say
exactly which parts of the answer are exact and which are bounded.

The statuses:

``complete``
    The origin's sub-search ran to exhaustion; its path set is exact.
``capped``
    The run's ``max_paths`` cap was reached at or before this origin,
    so the search stopped there (or never started it).  The cap is a
    requested output size, not a lost answer: a capped origin is not a
    degradation and gets no GBA bound.
``partial``
    The budget ran out mid-origin; the recorded paths are true paths
    but more may exist.  The report attaches the GBA forward-pass
    arrival as a sound upper bound on anything that was missed.
``skipped``
    The wall deadline had passed when the origin's turn came (or a
    checkpoint resume marked it pending); no extension was tried.
``failed``
    A parallel shard for this origin kept crashing after retries and
    the serial fallback; only the GBA bound is available.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Recognized per-origin completeness statuses, strongest first.
ORIGIN_STATUSES = ("complete", "capped", "partial", "skipped", "failed")

#: Statuses that are not a degradation: the origin's answer is exact, or
#: the caller's own ``max_paths`` cap cut it.
UNDEGRADED = ("complete", "capped")

#: Wall-clock is polled once per this many extensions -- the search
#: loop is too hot for a perf_counter call per extension.
WALL_POLL_INTERVAL = 256


@dataclass(frozen=True)
class SearchBudgets:
    """Effort caps for one search run.  ``None`` disables an axis; the
    all-``None`` default is the exhaustive (budget-free) search."""

    wall_seconds: Optional[float] = None
    max_extensions: Optional[int] = None
    max_backtracks: Optional[int] = None
    #: Absolute ``time.monotonic()`` end of the wall axis, shared by
    #: every ledger built from these budgets; pinned by :meth:`started`
    #: (None: each ledger starts its own clock).
    deadline: Optional[float] = field(default=None, init=False,
                                      compare=False, repr=False)

    def started(self) -> "SearchBudgets":
        """These budgets with the wall clock started now: every ledger
        built from the copy, in this process or in a worker (the
        monotonic clock is system-wide), shares its one deadline.  A
        no-op without a wall axis or once started."""
        if self.wall_seconds is None or self.deadline is not None:
            return self
        pinned = SearchBudgets(self.wall_seconds, self.max_extensions,
                               self.max_backtracks)
        object.__setattr__(pinned, "deadline",
                           time.monotonic() + self.wall_seconds)
        return pinned

    def bounded(self) -> bool:
        return (self.wall_seconds is not None
                or self.max_extensions is not None
                or self.max_backtracks is not None)

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "wall_seconds": self.wall_seconds,
            "max_extensions": self.max_extensions,
            "max_backtracks": self.max_backtracks,
        }


class BudgetLedger:
    """Mutable effort ledger charged by the search loop.

    One ledger covers one origin's search
    (:meth:`~repro.core.pathfinder.PathFinder.search`): every origin
    gets the full extension and backtrack allowances, and all of them
    share the search call's one wall deadline
    (:meth:`SearchBudgets.started`).  An origin whose ledger trips is
    ``partial``.
    """

    __slots__ = ("budgets", "extensions", "backtracks", "deadline",
                 "exhausted", "exhausted_axis", "_poll")

    def __init__(self, budgets: SearchBudgets):
        self.budgets = budgets
        self.extensions = 0
        self.backtracks = 0
        self.deadline = budgets.started().deadline
        self.exhausted = False
        self.exhausted_axis: Optional[str] = None
        self._poll = 0

    def charge_extension(self) -> bool:
        """Charge one extension attempt; True while budget remains."""
        if self.exhausted:
            return False
        b = self.budgets
        self.extensions += 1
        if (b.max_extensions is not None
                and self.extensions > b.max_extensions):
            return self._trip("extensions")
        if self.deadline is not None:
            self._poll += 1
            if self._poll >= WALL_POLL_INTERVAL:
                self._poll = 0
                if time.monotonic() > self.deadline:
                    return self._trip("wall_seconds")
        return True

    def admits_origin(self) -> bool:
        """True while an origin may start.  Under a shared deadline an
        origin can come up long after it was pinned (queued behind other
        shards, or retried), so this reads the clock now and an origin
        whose turn comes after the deadline is skipped before its first
        extension.  A ledger's own clock (unstarted budgets) starts with
        it and is only polled."""
        if (not self.exhausted and self.budgets.deadline is not None
                and time.monotonic() > self.budgets.deadline):
            self._trip("wall_seconds")
        return not self.exhausted

    def charge_backtracks(self, count: int) -> bool:
        """Charge justification backtracks; True while budget remains."""
        if self.exhausted:
            return False
        self.backtracks += count
        b = self.budgets
        if (b.max_backtracks is not None
                and self.backtracks > b.max_backtracks):
            return self._trip("backtracks")
        return True

    def _trip(self, axis: str) -> bool:
        self.exhausted = True
        self.exhausted_axis = axis
        return False


@dataclass
class OriginOutcome:
    """Completeness record of one origin's sub-search."""

    origin: str
    status: str
    paths_found: int = 0
    #: Sound upper bound (seconds) on any arrival this origin could
    #: still produce -- attached for every non-``complete`` origin from
    #: the GBA forward pass; None while not yet computed.
    gba_bound: Optional[float] = None

    def as_dict(self) -> Dict:
        return {
            "origin": self.origin,
            "status": self.status,
            "paths_found": self.paths_found,
            "gba_bound": self.gba_bound,
        }


@dataclass
class CompletenessReport:
    """Per-origin outcomes of one run, in origin declaration order."""

    origins: Dict[str, OriginOutcome] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return all(o.status in UNDEGRADED for o in self.origins.values())

    def degraded_origins(self) -> Dict[str, OriginOutcome]:
        return {name: o for name, o in self.origins.items()
                if o.status not in UNDEGRADED}

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for outcome in self.origins.values():
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        body = ", ".join(
            f"{counts[s]} {s}" for s in ORIGIN_STATUSES if counts.get(s)
        )
        return body or "no origins"
