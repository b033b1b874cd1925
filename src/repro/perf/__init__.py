"""Hot-path performance layer for the single-pass search.

:func:`supervised_find_paths` shards the search across primary inputs
(origins never share state -- the paper's natural partition), runs the
shards under :mod:`repro.resilience.supervisor`, and merges paths,
stats and metrics back into the calling process.  The serial hot-path
pieces (arc-resolution memoization, justify-skip) live in
:mod:`repro.core.delaycalc` and :mod:`repro.core.pathfinder`; see
``docs/PERFORMANCE.md`` and ``docs/ROBUSTNESS.md``.
"""

from repro.perf.parallel import supervised_find_paths

__all__ = ["supervised_find_paths"]
