"""The paper's primary contribution: single-pass true-path STA.

* :mod:`repro.core.logic_values` -- the dual-value logic system with
  semi-undetermined values (Section IV.B of the paper);
* :mod:`repro.core.engine` -- indexed circuit state with an assignment
  trail, forward implication and component-kill bookkeeping;
* :mod:`repro.core.justification` -- exhaustive backward justification
  with decision backtracking;
* :mod:`repro.core.path` -- path records with per-polarity timing;
* :mod:`repro.core.delaycalc` -- vector-resolved delay accumulation;
* :mod:`repro.core.pathfinder` -- the single-pass sensitize-while-
  traversing true-path enumeration;
* :mod:`repro.core.sta` -- the user-facing :class:`TruePathSTA` tool;
* :mod:`repro.core.graphsta` -- block-based (GBA) analysis for
  pessimism comparisons;
* :mod:`repro.core.report` -- slack/hold reports and JSON export;
* :mod:`repro.core.variation` -- Monte-Carlo statistical timing;
* :mod:`repro.core.incremental` -- the dirty-cone STA session behind
  the gate-sizing ECO loop (:mod:`repro.opt.sizer`).
"""

from repro.core.graphsta import GraphSTA
from repro.core.logic_values import Value9
from repro.core.path import PathStep, TimedPath
from repro.core.report import hold_report, paths_to_json, slack_report
from repro.core.sta import TruePathSTA

__all__ = [
    "GraphSTA",
    "PathStep",
    "TimedPath",
    "TruePathSTA",
    "Value9",
    "hold_report",
    "paths_to_json",
    "slack_report",
]
