"""Supervised parallel driver: crash retry, fallback, clean interrupt.

Fault scheduling uses :class:`repro.verify.faults.FaultPlan` -- faults
fire only inside pool workers, so every recovery path must converge on
output identical to the undisturbed serial search.
"""

import time

import pytest

from repro.core.sta import TruePathSTA
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap
from repro.perf import supervised_find_paths
from repro.resilience.errors import SearchInterrupted
from repro.verify.faults import FaultPlan
from repro.verify.metamorphic import _path_identity


def _circuit(seed=21, gates=35):
    return techmap(random_dag(f"sup{seed}", 6, gates, seed=seed,
                              n_outputs=3))


@pytest.fixture(scope="module")
def circuit():
    return _circuit()


def _reference(circuit, charlib):
    return TruePathSTA(circuit, charlib).enumerate_paths()


class TestSupervisedEqualsSerial:
    def test_jobs1_pipeline_matches_serial(self, circuit, charlib_poly_90):
        serial = _reference(circuit, charlib_poly_90)
        result = supervised_find_paths(circuit, charlib_poly_90, jobs=1)
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        assert result.completeness.complete
        assert not result.degraded
        assert result.resumed_shards == 0

    def test_completeness_covers_every_origin(self, circuit,
                                              charlib_poly_90):
        result = supervised_find_paths(circuit, charlib_poly_90, jobs=1)
        assert list(result.completeness.origins) == list(circuit.inputs)
        assert all(o.status == "complete"
                   for o in result.completeness.origins.values())


class TestCrashRecovery:
    def test_worker_crash_retried_to_identical_output(
            self, circuit, charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victim = circuit.inputs[0]
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2,
            fault_plan=FaultPlan(crash_origins=(victim,)),
        )
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        assert result.completeness.complete
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.worker_crashes").value >= 1
        assert registry.counter("resilience.shard_retries").value >= 1

    def test_persistent_crash_exhausts_into_serial_fallback(
            self, circuit, charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victim = circuit.inputs[1]
        # Crash on every pooled attempt: 1 initial + 2 retries, then
        # the in-process fallback (which the fault cannot reach).
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, retry_backoff=0.0,
            fault_plan=FaultPlan(crash_origins=(victim,),
                                 crash_attempts=(0, 1, 2)),
        )
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        assert result.completeness.complete
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.serial_fallbacks").value == 1

    def test_fallback_disabled_degrades_instead_of_dying(
            self, circuit, charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victim = circuit.inputs[1]
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, retry_backoff=0.0,
            serial_fallback=False,
            fault_plan=FaultPlan(crash_origins=(victim,),
                                 crash_attempts=(0, 1, 2)),
        )
        outcome = result.completeness.origins[victim]
        assert outcome.status == "failed"
        assert outcome.paths_found == 0
        # Every other origin's paths survive, in declaration order.
        expected = [_path_identity(p) for p in serial
                    if p.nets[0] != victim]
        assert [_path_identity(p) for p in result.paths] == expected
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.degraded_origins").value == 1


def _break_pool(pool, timeout=30.0):
    """Kill every worker of ``pool`` and wait until the executor has
    marked itself broken, so its next ``submit`` raises."""
    for process in list(pool._processes.values()):
        process.kill()
    deadline = time.monotonic() + timeout
    while not pool._broken:
        assert time.monotonic() < deadline, "executor never noticed"
        time.sleep(0.01)


class TestSubmitTimeBreak:
    def test_break_before_submit_recovers_to_identical_output(
            self, circuit, charlib_poly_90, clean_obs, monkeypatch):
        """A worker death noticed between ``wait()`` and the next
        ``submit`` makes ``submit`` itself raise ``BrokenProcessPool``;
        the supervisor must recover exactly as from a result-time
        break: re-queue, rebuild the pool, converge on serial output."""
        from repro.resilience.supervisor import ShardSupervisor

        serial = _reference(circuit, charlib_poly_90)
        real_make_pool = ShardSupervisor._make_pool
        pools = []

        def make_pool(self):
            pool = real_make_pool(self)
            pools.append(pool)
            if len(pools) == 1:
                real_submit = pool.submit
                submits = []

                def submit(*args, **kwargs):
                    submits.append(args)
                    if len(submits) == 2:  # after the first shard went out
                        _break_pool(pool)
                    return real_submit(*args, **kwargs)

                pool.submit = submit
            return pool

        monkeypatch.setattr(ShardSupervisor, "_make_pool", make_pool)
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, retry_backoff=0.0,
        )
        assert pools[0]._broken
        assert len(pools) == 2  # rebuilt exactly once
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        assert result.completeness.complete
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.worker_crashes").value == 1


class TestTimeoutRecovery:
    def test_hung_shard_is_killed_and_retried(self, circuit,
                                              charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victim = circuit.inputs[2]
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, shard_timeout=3.0,
            retry_backoff=0.0,
            fault_plan=FaultPlan(hang_origins=(victim,),
                                 hang_seconds=60.0),
        )
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.shard_timeouts").value >= 1


class TestInterrupt:
    def test_interrupt_preserves_completed_shards(
            self, circuit, charlib_poly_90, clean_obs, tmp_path):
        checkpoint = tmp_path / "interrupted.json"
        with pytest.raises(SearchInterrupted) as excinfo:
            supervised_find_paths(
                circuit, charlib_poly_90, jobs=2,
                checkpoint=str(checkpoint),
                fault_plan=FaultPlan(interrupt_after=2),
            )
        partial = excinfo.value.partial
        assert partial.interrupted
        complete = [o for o in partial.completeness.origins.values()
                    if o.status == "complete"]
        assert len(complete) >= 2
        # Satellite (a): merged metrics of completed shards are
        # published before the unwind, and the checkpoint is flushed.
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("pathfinder.extensions_tried").value > 0
        assert checkpoint.exists()
        assert str(checkpoint) in str(excinfo.value)

    def test_exit_code_is_sigint_convention(self):
        assert SearchInterrupted("x").exit_code == 130


class TestMergedMetrics:
    def test_pooled_run_publishes_exact_serial_totals(
            self, circuit, charlib_poly_90, clean_obs):
        """Crash recovery must not double-count: only each shard's
        final successful attempt reaches the merged stats."""
        sta = TruePathSTA(circuit, charlib_poly_90)
        sta.enumerate_paths()
        want = sta.last_stats.as_dict()
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, retry_backoff=0.0,
            fault_plan=FaultPlan(crash_origins=(circuit.inputs[0],)),
        )
        got = result.stats.as_dict()
        for key in ("paths_found", "extensions_tried", "conflicts",
                    "justification_backtracks", "justify_skipped"):
            assert got[key] == want[key], key
