"""The supervised worker pool (repro.resilience.workers) on trivial
handlers: one outcome per attempt, blame on the task that caused it."""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.resilience import workers
from repro.resilience.workers import (
    Preempted,
    WorkerCrashed,
    WorkerPool,
    WorkerTimeout,
)


def _arith_init():
    """Worker init: a handler that doubles ints, and on request crashes,
    sleeps, raises, beats first, or doubles on a nested pool."""

    def handle(payload, attempt, beat):
        op, value = payload
        if op == "crash" and attempt in value:
            os._exit(17)
        if op == "sleep":
            time.sleep(value)
        if op == "raise":
            raise ValueError(f"bad value {value}")
        if op == "beat":
            beat({"value": value})
        if op == "nested":
            inner = WorkerPool(1, _arith_init, on_event=lambda *event: None)
            try:
                return inner.submit(("double", value)).future.result(20)[0]
            finally:
                inner.shutdown()
        return value * 2 if isinstance(value, int) else value

    return handle


@pytest.fixture
def pool_events():
    """A pool factory recording every event kind; shuts pools down."""
    events = []
    pools = []

    def make(size=1, **kwargs):
        pool = WorkerPool(
            size, _arith_init,
            on_event=lambda kind, task, detail: events.append(kind),
            **kwargs)
        pools.append(pool)
        return pool

    yield make, events
    for pool in pools:
        pool.shutdown()


def test_result_ships_with_telemetry(pool_events):
    make, events = pool_events
    result, telemetry = make().submit(("double", 21)).future.result(60)
    assert result == 42
    assert telemetry.pid != os.getpid()
    assert events == ["spawn"]


def test_idle_worker_death_redispatches_without_charging(pool_events,
                                                         monkeypatch):
    """The worker dies idle between the liveness check and the send:
    the task never reached it, so it costs no attempt and no crash."""
    make, events = pool_events
    kill_after_check = []
    real_ensure = workers._Slot._ensure_worker

    def ensure_then_kill(slot):
        real_ensure(slot)
        if kill_after_check:
            kill_after_check.pop()
            slot.process.kill()
            slot.process.join()

    monkeypatch.setattr(workers._Slot, "_ensure_worker", ensure_then_kill)
    pool = make()
    assert pool.submit(("double", 1)).future.result(60)[0] == 2
    kill_after_check.append(True)
    task = pool.submit(("double", 21))
    assert task.future.result(60)[0] == 42
    assert task.attempt == 0
    assert events.count("crashed") == 0
    assert events.count("retry") == 0
    assert events.count("spawn") == 2


def test_crash_retries_are_bounded_with_continuous_attempts(pool_events):
    make, events = pool_events
    pool = make(retries=2, retry_backoff=0.0)
    survivor = pool.submit(("crash", (0, 1)), attempt=0)
    assert survivor.future.result(60)[0] == (0, 1)
    assert survivor.attempt == 2
    doomed = pool.submit(("crash", (3, 4, 5)), attempt=3)
    with pytest.raises(WorkerCrashed, match="3 consecutive attempts"):
        doomed.future.result(60)
    assert doomed.attempt == 5
    assert events.count("crashed") == 5
    assert events.count("retry") == 4


def test_timeout_kills_only_the_hung_worker(pool_events):
    make, events = pool_events
    pool = make(size=2)
    hung = pool.submit(("sleep", 60.0), timeout=1.0)
    quick = pool.submit(("double", 5), timeout=30.0)
    assert quick.future.result(60)[0] == 10
    with pytest.raises(WorkerTimeout, match="worker killed"):
        hung.future.result(60)
    assert events.count("timeout") == 1
    assert events.count("crashed") == 0
    assert pool.submit(("double", 7)).future.result(60)[0] == 14


def test_deadline_clock_starts_when_a_worker_takes_the_task(pool_events):
    make, _events = pool_events
    pool = make(size=1)
    first = pool.submit(("sleep", 1.5), timeout=5.0)
    # Queued behind the first task for ~1.5 s, longer than its own
    # deadline: only time on a worker counts.
    queued = pool.submit(("sleep", 0.2), timeout=1.0)
    assert first.future.result(60)[0] == 1.5
    assert queued.future.result(60)[0] == 0.2


def test_handler_exception_is_the_tasks_outcome(pool_events):
    make, events = pool_events
    pool = make()
    with pytest.raises(ValueError, match="bad value 3"):
        pool.submit(("raise", 3)).future.result(60)
    assert pool.submit(("double", 4)).future.result(60)[0] == 8
    assert events == ["spawn"]  # the worker survived its task's error


def test_kill_on_request_preempts_the_running_task(pool_events):
    make, events = pool_events
    pool = make()
    task = pool.submit(("sleep", 60.0))
    deadline = time.monotonic() + 30.0
    while task not in pool.running():
        assert time.monotonic() < deadline, "task never started"
        time.sleep(0.01)
    pool.kill(task)
    with pytest.raises(Preempted):
        task.future.result(60)
    assert events.count("killed") == 1


def test_beats_travel_on_the_worker_pipe():
    beats = []
    pool = WorkerPool(1, _arith_init, on_event=lambda kind, task, detail:
                      beats.append(detail) if kind == "beat" else None)
    try:
        assert pool.submit(("beat", 9)).future.result(60)[0] == 18
    finally:
        pool.shutdown()
    assert beats == [{"value": 9}]


def test_pool_nested_in_a_worker_can_spawn(pool_events):
    """A served ``--jobs N`` request runs a shard pool inside a fleet
    worker, which was forked while the spawn lock was held."""
    make, _events = pool_events
    pool = make(size=2)
    tasks = [pool.submit(("nested", i)) for i in (1, 2)]
    assert [task.future.result(60)[0] for task in tasks] == [2, 4]


def test_shutdown_fails_queued_tasks(pool_events):
    make, _events = pool_events
    pool = make()
    busy = pool.submit(("sleep", 60.0))
    queued = pool.submit(("double", 1))
    pool.shutdown()
    for task in (busy, queued):
        with pytest.raises(WorkerCrashed, match="shutting down"):
            task.future.result(10)
    with pytest.raises(WorkerCrashed, match="shutting down"):
        pool.submit(("double", 1)).future.result(1)


def test_more_workers_than_cores_lose_no_task_or_event(pool_events):
    """Stress: slot threads switch every microsecond while half the
    tasks crash once; every task still resolves exactly once and every
    crash is reported once."""
    make, events = pool_events
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = make(size=(os.cpu_count() or 1) + 2, retry_backoff=0.0)
        tasks = [pool.submit(("crash", (0,)) if i % 2 else ("double", i))
                 for i in range(24)]
        results = [task.future.result(120)[0] for task in tasks]
    finally:
        sys.setswitchinterval(interval)
    assert results == [(0,) if i % 2 else 2 * i for i in range(24)]
    assert events.count("crashed") == 12
    assert events.count("retry") == 12
    assert [task.attempt for task in tasks] == [i % 2 for i in range(24)]
