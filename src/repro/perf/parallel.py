"""Supervised parallel search, as a one-call function.

The driver is :meth:`repro.core.sta.TruePathSTA.analyze`: one shard per
origin under :class:`repro.resilience.supervisor.ShardSupervisor`.
:func:`supervised_find_paths` builds a session and calls it.

Merge semantics under the search limits:

* ``jobs=1``: the shards run in-process and share one top-N heap and
  one ``max_paths`` count, in origin order -- the same paths, order and
  work counters as the plain serial stream.
* ``max_paths`` (``jobs > 1``): each pooled shard is capped at
  ``max_paths`` (a single origin can never contribute more), and the
  merged stream is truncated after concatenation -- byte-identical to
  the serial early stop.  The origin holding the last kept path and
  every later origin are tagged ``capped``, which is not a degradation.
* ``n_worst`` (``jobs > 1``): each pooled shard prunes against its
  *own* top-N heap, which is at most as aggressive as the serial shared
  heap, so the merged stream is a superset of the serial one that
  provably contains the true top-N set; callers keep the N worst of the
  merge exactly as they would keep the N worst of a serial run.  The
  session's compiled tables (slew fixed point, worst-arc delays, both
  pruning bounds) are shipped to the workers once.
"""

from __future__ import annotations

from typing import Optional

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW
from repro.netlist.circuit import Circuit
from repro.resilience.supervisor import AnalysisResult


def supervised_find_paths(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    jobs: int = 2,
    temp: float = 25.0,
    vdd: Optional[float] = None,
    input_slew: float = DEFAULT_INPUT_SLEW,
    missing_arc_policy: str = "error",
    **search,
) -> AnalysisResult:
    """Run the true-path search sharded across primary inputs, under
    supervision, on a fresh :class:`~repro.core.sta.TruePathSTA` session
    at the given corner, and return its
    :class:`~repro.resilience.supervisor.AnalysisResult` (paths, merged
    stats, per-origin completeness, resume accounting).

    ``search`` takes the options of
    :meth:`~repro.core.sta.TruePathSTA.analyze` (``inputs``,
    ``max_paths``, ``n_worst``, ``budgets``, ``shard_timeout``,
    ``checkpoint``, ``fault_plan``, ...); no GBA bounds are attached.
    The merged stats and the ``delaycalc.*`` counter totals are
    published to this process's metrics registry, exactly like a serial
    :meth:`PathFinder.find_paths` run.
    """
    from repro.core.sta import TruePathSTA

    sta = TruePathSTA(circuit, charlib, temp=temp, vdd=vdd,
                      input_slew=input_slew,
                      missing_arc_policy=missing_arc_policy)
    return sta.analyze(jobs=jobs, attach_gba_bounds=False, **search)
