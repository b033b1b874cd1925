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
from repro.obs.progress import ProgressBoard
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
        result = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=1)
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        assert result.completeness.complete
        assert not result.degraded
        assert result.resumed_shards == 0

    def test_completeness_covers_every_origin(self, circuit,
                                              charlib_poly_90):
        result = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=1)
        assert list(result.completeness.origins) == list(circuit.inputs)
        assert all(o.status == "complete"
                   for o in result.completeness.origins.values())


class TestCrashRecovery:
    def test_worker_crash_retried_to_identical_output(
            self, circuit, charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victim = circuit.inputs[0]
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, fault_plan=FaultPlan(crash_origins=(victim,)))
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
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2,
            fault_plan=FaultPlan(crash_origins=(victim,),
                                 crash_attempts=(0, 1, 2)))
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        assert result.completeness.complete
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.serial_fallbacks").value == 1

    def test_fallback_disabled_degrades_instead_of_dying(
            self, circuit, charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victim = circuit.inputs[1]
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, serial_fallback=False,
            fault_plan=FaultPlan(crash_origins=(victim,),
                                 crash_attempts=(0, 1, 2)))
        outcome = result.completeness.origins[victim]
        assert outcome.status == "failed"
        assert outcome.paths_found == 0
        # Every other origin's paths survive, in declaration order.
        expected = [_path_identity(p) for p in serial
                    if p.nets[0] != victim]
        assert [_path_identity(p) for p in result.paths] == expected
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.degraded_origins").value == 1


class TestBlame:
    """One shard per worker: every crash, hang or stall is charged to
    the shard that caused it, and no other shard is ever re-run."""

    def test_each_crash_charged_to_its_own_shard(
            self, circuit, charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victims = tuple(circuit.inputs[:2])
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, fault_plan=FaultPlan(crash_origins=victims))
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.worker_crashes").value == 2
        assert registry.counter("resilience.shard_retries").value == 2
        assert registry.counter("resilience.serial_fallbacks").value == 0

    def test_timeout_reruns_only_the_hung_shard(
            self, circuit, charlib_poly_90, clean_obs, monkeypatch,
            tmp_path):
        """A shard still running when another one times out is neither
        killed nor re-run: only the hung shard's worker dies."""
        from repro.resilience import supervisor

        serial = _reference(circuit, charlib_poly_90)
        victim, first, bystander = circuit.inputs[:3]
        searches = tmp_path / "searches.txt"
        real_run_shard = supervisor.run_shard

        def run_shard(ec, calc, finder_kwargs, origin, progress=None):
            with open(searches, "a") as log:
                log.write(f"{origin}\n")
            # The bystander starts 1.5 s in and is still searching when
            # the victim's 3 s deadline trips, well inside its own.
            time.sleep({first: 1.5, bystander: 2.5}.get(origin, 0.0))
            return real_run_shard(ec, calc, finder_kwargs, origin,
                                  progress=progress)

        monkeypatch.setattr(supervisor, "run_shard", run_shard)
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, shard_timeout=3.0,
            fault_plan=FaultPlan(hang_origins=(victim,), hang_seconds=60.0))
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        # The victim hangs before its search starts, so every origin,
        # bystander included, searched exactly once.
        assert sorted(searches.read_text().split()) == sorted(circuit.inputs)
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.shard_timeouts").value == 1
        assert registry.counter("resilience.shard_retries").value == 1
        assert registry.counter("resilience.worker_crashes").value == 0


class TestWorkerBeats:
    def test_pooled_progress_delivers_worker_beats_for_every_origin(
            self, circuit, charlib_poly_90, clean_obs, monkeypatch,
            capsys):
        """``started``/``done`` beats travel home on each worker's pipe
        (board-direct ``mark_done`` beats carry no timestamp)."""
        beats = []
        real_update = ProgressBoard.update

        def update(board, beat):
            beats.append(beat)
            real_update(board, beat)

        monkeypatch.setattr(ProgressBoard, "update", update)
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, progress=True)
        assert result.completeness.complete
        worker_beats = [b for b in beats if "ts" in b]
        for phase in ("started", "done"):
            assert sorted(b["origin"] for b in worker_beats
                          if b["phase"] == phase) == sorted(circuit.inputs)
        assert f"origins {len(circuit.inputs)}/{len(circuit.inputs)}" \
            in capsys.readouterr().err


class TestTimeoutRecovery:
    def test_hung_shard_is_killed_and_retried(self, circuit,
                                              charlib_poly_90, clean_obs):
        serial = _reference(circuit, charlib_poly_90)
        victim = circuit.inputs[2]
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, shard_timeout=3.0,
            fault_plan=FaultPlan(hang_origins=(victim,), hang_seconds=60.0))
        assert ([_path_identity(p) for p in result.paths]
                == [_path_identity(p) for p in serial])
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.shard_timeouts").value >= 1


class TestInterrupt:
    def test_interrupt_preserves_completed_shards(
            self, circuit, charlib_poly_90, clean_obs, tmp_path):
        checkpoint = tmp_path / "interrupted.json"
        with pytest.raises(SearchInterrupted) as excinfo:
            TruePathSTA(circuit, charlib_poly_90).analyze(
                jobs=2, checkpoint=str(checkpoint),
                fault_plan=FaultPlan(interrupt_after=2))
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


class TestSpawnStart:
    def test_spawn_pool_pickles_the_session(self, charlib_poly_90,
                                            monkeypatch):
        """Where ``fork`` is missing the pool starts workers with
        ``spawn``, which pickles the session into each of them; the
        merge still holds the serial top N."""
        import multiprocessing

        from repro.eval.iscas import build_circuit
        from repro.resilience import workers

        monkeypatch.setattr(workers, "_fork_context",
                            lambda: multiprocessing.get_context("spawn"))
        circuit = build_circuit("c432", scale=0.3)
        serial = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=1, n_worst=5)
        spawned = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, n_worst=5)

        def key(path):
            return (path.worst_arrival, tuple(path.nets),
                    path.vector_signature)

        def top(paths):
            return [key(p) for p in sorted(
                paths, key=lambda p: p.worst_arrival, reverse=True)[:5]]

        assert {key(p) for p in serial.paths} <= {
            key(p) for p in spawned.paths}
        assert top(serial.paths) == top(spawned.paths)


class TestMergedMetrics:
    def test_pooled_run_publishes_exact_serial_totals(
            self, circuit, charlib_poly_90, clean_obs):
        """Crash recovery must not double-count: only each shard's
        final successful attempt reaches the merged stats."""
        sta = TruePathSTA(circuit, charlib_poly_90)
        sta.enumerate_paths()
        want = sta.last_stats.as_dict()
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, fault_plan=FaultPlan(crash_origins=(circuit.inputs[0],)))
        got = result.stats.as_dict()
        for key in ("paths_found", "extensions_tried", "conflicts",
                    "justification_backtracks", "justify_skipped"):
            assert got[key] == want[key], key
