"""Hot-path performance layer for the single-pass search.

:func:`supervised_find_paths` runs one session's search sharded across
primary inputs (the paper's natural partition) through
:meth:`repro.core.sta.TruePathSTA.analyze`.  The serial hot-path
pieces (arc-resolution memoization, justify-skip) live in
:mod:`repro.core.delaycalc` and :mod:`repro.core.pathfinder`; see
``docs/PERFORMANCE.md`` and ``docs/ROBUSTNESS.md``.
"""

from repro.perf.parallel import supervised_find_paths

__all__ = ["supervised_find_paths"]
