"""Supervised parallel driver for the path search.

The single-pass search visits one primary input at a time and never
shares state between origins, so the natural partition is one shard per
origin.  Supervision (worker-crash retry, shard timeouts, serial
fallback, checkpoint/resume, clean SIGINT unwinding) lives in
:class:`repro.resilience.supervisor.ShardSupervisor`; this module is
the thin public face that assembles the search configuration and ships
the precomputed pruning bounds to the shards.

Merge semantics under the search limits:

* ``max_paths``: each shard is capped at ``max_paths`` (a single origin
  can never contribute more), and the merged stream is truncated after
  concatenation -- byte-identical to the serial early stop.
* ``n_worst``: each shard prunes against its *own* top-N heap, which is
  at most as aggressive as the serial global heap, so the merged stream
  is a superset of the serial one that provably contains the true top-N
  set; callers keep the N worst of the merge exactly as they would keep
  the N worst of a serial run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.charlib.fanout import WireLoadModel
from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.obs.tracing import span
from repro.resilience.budgets import SearchBudgets
from repro.resilience.errors import ConfigError
from repro.resilience.supervisor import (
    ShardSupervisor,
    SupervisedResult,
    SupervisorConfig,
)

_log = get_logger("repro.perf")


def supervised_find_paths(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    jobs: int = 2,
    inputs: Optional[Sequence[str]] = None,
    temp: float = 25.0,
    vdd: Optional[float] = None,
    input_slew: float = DEFAULT_INPUT_SLEW,
    vector_blind: bool = False,
    wire: Optional[WireLoadModel] = None,
    max_paths: Optional[int] = None,
    n_worst: Optional[int] = None,
    justify_backtrack_limit: Optional[int] = None,
    single_polarity: Optional[int] = None,
    complete: bool = False,
    budgets: Optional[SearchBudgets] = None,
    missing_arc_policy: str = "error",
    shard_timeout: Optional[float] = None,
    shard_retries: int = 2,
    retry_backoff: float = 0.05,
    serial_fallback: bool = True,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
    fault_plan: object = None,
    progress: bool = False,
    heartbeat_timeout: Optional[float] = None,
) -> SupervisedResult:
    """Run the true-path search sharded across primary inputs, under
    supervision, and return the full
    :class:`~repro.resilience.supervisor.SupervisedResult` (paths,
    merged stats, per-origin completeness, resume accounting).

    The merged stats and the ``delaycalc.*`` counter totals are
    published to this process's metrics registry, exactly like a serial
    :meth:`PathFinder.find_paths` run.  ``jobs=1`` runs the same
    shard/merge pipeline in-process (no pool), which is the reference
    for the equivalence tests.  ``budgets`` apply *per shard*: each
    origin's sub-search gets the full allowance, and exhausted shards
    come back tagged ``partial`` in the completeness report.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    origins = list(inputs) if inputs is not None else list(circuit.inputs)
    calc_kwargs = dict(temp=temp, vdd=vdd, input_slew=input_slew,
                       vector_blind=vector_blind, wire=wire,
                       missing_arc_policy=missing_arc_policy)
    finder_kwargs = dict(
        max_paths=max_paths,
        n_worst=n_worst,
        justify_backtrack_limit=justify_backtrack_limit,
        single_polarity=single_polarity,
        complete=complete,
        budgets=budgets,
    )
    jobs = min(jobs, max(len(origins), 1))
    config = SupervisorConfig(
        jobs=jobs,
        shard_timeout=shard_timeout,
        shard_retries=shard_retries,
        retry_backoff=retry_backoff,
        serial_fallback=serial_fallback,
        checkpoint_path=checkpoint,
        resume_path=resume,
        progress=progress,
        heartbeat_timeout=heartbeat_timeout,
    )
    supervisor = ShardSupervisor(
        circuit, charlib, calc_kwargs, finder_kwargs, config,
        fault_plan=fault_plan,
    )
    with span("perf.supervised_find_paths"):
        if n_worst is not None:
            # The backward required-time bounds depend only on the
            # circuit and corner: compute them once here and ship the
            # plain float tuples to every shard, instead of paying the
            # backward pass (and its model sweeps) once per worker.
            parent_ec = EngineCircuit(circuit)
            parent_calc = DelayCalculator(parent_ec, charlib, **calc_kwargs)
            supervisor.finder_kwargs["bounds"] = parent_calc.prune_bounds()
            # Ship the full compiled tables (slew fixed point, worst-arc
            # delays, both bounds) alongside: worker calculators seed
            # them instead of re-deriving the sweeps per process.  Kept
            # out of calc_kwargs -- the worst-arc table has tuple keys,
            # which the JSON checkpoint fingerprint cannot encode (and
            # the tables are derived state, not configuration).
            supervisor.compiled_tables = parent_calc.export_tables()
            obs_metrics.REGISTRY.counter("perf.compiled_tables_shipped").inc()
            supervisor.attach_parent_context(parent_ec, parent_calc)
        result = supervisor.run(origins)

    registry = obs_metrics.REGISTRY
    registry.counter("perf.parallel_runs").inc()
    registry.counter("perf.parallel_shards").inc(len(origins))
    registry.gauge("perf.parallel_jobs").set(jobs)
    _log.debug("parallel.done", circuit=circuit.name, jobs=jobs,
               shards=len(origins), paths=len(result.paths),
               degraded=result.degraded)
    return result

