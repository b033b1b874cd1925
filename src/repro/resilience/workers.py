"""Supervised worker pool: N forked workers, one task at a time each.

The ``--jobs N`` shard driver (:mod:`repro.resilience.supervisor`) and
the analysis daemon's fleet (:mod:`repro.service.fleet`) both run on
this pool.  Each slot is one worker process with its own pipe plus a
supervising thread in the parent.  A worker runs one task at a time, so
a crash or hang is always that task's fault and tasks on other workers
are never disturbed.  Every attempt ends in exactly one outcome:

* ``ok`` -- the future resolves to ``(result, telemetry)``: the
  handler's return value and the worker's
  :class:`~repro.obs.aggregate.RegistryShipper` delta, which the caller
  merges on its own thread;
* ``error`` -- the future raises the handler's own exception;
* ``crashed`` (pipe EOF or a dead process) -- the worker is respawned
  and the task retried, at most ``retries`` times, after
  ``retry_backoff * 2**k`` seconds; then :class:`WorkerCrashed`;
* ``timeout`` -- the task's wall deadline, clocked from when a worker
  took it, passed: the worker is killed, :class:`WorkerTimeout`;
* ``killed`` -- :meth:`WorkerPool.kill` (hog preemption, heartbeat
  stall): the worker is killed, :class:`Preempted`.

A worker that died idle is no crash: if sending the task fails, it is
re-dispatched onto a fresh worker without charging an attempt -- once
per attempt, so a worker that can never start still exhausts.  Attempt
numbers are zero-based and continuous across retries.  Heartbeats ride
the worker's pipe; they and every supervision event reach the caller's
``on_event(kind, task, detail)``, called on the slot threads.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import stat
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.obs.aggregate import RegistryShipper
from repro.obs.logging import get_logger

_log = get_logger("repro.resilience")

#: How often a busy slot checks liveness, deadline and kill flag (s).
_POLL_SECONDS = 0.05

#: Ceiling on one crash-retry backoff sleep (seconds).
_MAX_BACKOFF = 2.0

_STOP = object()
_SHUTTING_DOWN = "worker pool is shutting down"

#: Serializes forks across slot threads: a worker forked while another
#: slot's child-side fds are still open in this process would inherit
#: them, and a sibling holding a worker's exit sentinel makes every
#: ``join`` on that worker wait out its full timeout.
_SPAWN_LOCK = threading.Lock()


class WorkerCrashed(Exception):
    """Every retry of a task died with its worker."""


class WorkerTimeout(Exception):
    """The task's wall deadline tripped; its worker was killed."""


class Preempted(Exception):
    """The task's worker was killed on request; the task lost its
    partial progress, nothing else."""


@dataclass(eq=False)
class Task:
    payload: Any
    #: The attempt currently (or last) on a worker.
    attempt: int
    timeout: Optional[float]
    retries: int
    label: Optional[str]
    future: Future = field(default_factory=Future)
    #: Monotonic time a worker took the current attempt (None while
    #: the task is not on a worker).
    started_at: Optional[float] = None
    kill_requested: bool = False


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close socket fds a forked worker inherited: a duplicate of a
    client connection, the listen socket or a sibling's pipe would keep
    that peer's EOF from ever arriving.  The task pipe (``keep_fd``, a
    socketpair) and non-socket fds are left alone."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - non-Linux
        return
    for fd in fds:
        if fd <= 2 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(conn, init: Callable, name: str) -> None:
    """Build the handler once, then serve ``(payload, attempt, label)``
    tasks until pipe EOF, so orphaned workers cannot outlive their
    parent.  SIGINT is the parent's to handle: no child traceback storm
    on Ctrl-C."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if _SPAWN_LOCK.locked():  # forked inside it; a nested pool needs it
        _SPAWN_LOCK.release()
    _close_inherited_sockets(conn.fileno())
    handler = init()
    shipper = RegistryShipper()
    shipper.collect("__init__")  # absorb fork-inherited and init state

    def beat(body) -> None:
        conn.send(("beat", body))

    while True:
        try:
            payload, attempt, label = conn.recv()
        except (EOFError, OSError):
            break
        label = label or f"{name}-pid{os.getpid()}"
        try:
            result = handler(payload, attempt, beat)
        except Exception as exc:
            # Absorb the failed attempt's partial work, so the next
            # task on this worker does not ship it.
            shipper.collect(label)
            reply = ("error", exc)
        else:
            reply = ("ok", (result, shipper.collect(label)))
        try:
            conn.send(reply)
        except OSError:
            break
        except Exception:  # a handler exception that does not pickle
            conn.send(("error", RuntimeError(
                f"{type(reply[1]).__name__}: {reply[1]}")))


def _fork_context():
    """Prefer ``fork`` (workers inherit warm in-process memos and start
    in milliseconds); fall back to the platform default elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _Slot:
    """One worker process plus its parent-side supervising thread."""

    def __init__(self, pool: "WorkerPool", index: int):
        self.pool = pool
        self.index = index
        self.process = None
        self.conn = None
        #: The task on this slot's worker (a plain attribute, read by
        #: :meth:`WorkerPool.running`).
        self.current: Optional[Task] = None
        self.thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"repro-{pool.name}-supervisor-{index}")
        self.thread.start()

    def _ensure_worker(self) -> None:
        if self.process is not None and self.process.is_alive():
            return
        self._kill_worker()
        ctx = _fork_context()
        with _SPAWN_LOCK:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, self.pool.init, self.pool.name),
                name=f"repro-{self.pool.name}-worker-{self.index}")
            process.start()
            child_conn.close()
        self.process, self.conn = process, parent_conn
        _log.info("workers.spawned", pool=self.pool.name, slot=self.index,
                  pid=process.pid)
        self.pool.on_event("spawn", None, process.pid)

    def _kill_worker(self, grace: float = 0.0) -> Optional[int]:
        """Close the pipe (an idle worker exits on the EOF within
        ``grace`` seconds), then terminate whatever is left; returns the
        worker's exit code."""
        process, conn = self.process, self.conn
        self.process = self.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is None:
            return None
        process.join(grace)
        if process.is_alive():
            process.terminate()
            process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(2.0)
        return process.exitcode

    def _run(self) -> None:
        while True:
            task = self.pool._tasks.get()
            if task is _STOP:
                break
            try:
                self._execute(task)
            except Exception as exc:  # supervision must never die
                if not task.future.done():
                    task.future.set_exception(exc)
        self._kill_worker(grace=1.0)

    def _execute(self, task: Task) -> None:
        pool = self.pool
        first = task.attempt
        redispatched = False
        while not pool._stopping:
            self._ensure_worker()
            task.kill_requested = False
            task.started_at = time.monotonic()
            self.current = task
            try:
                self.conn.send((task.payload, task.attempt, task.label))
            except OSError:
                # The worker died idle, after the liveness check: the
                # task never reached it, so it costs nothing -- once.
                outcome, body = "crashed", None
                if not redispatched:
                    redispatched = True
                    self._kill_worker()
                    continue
            else:
                outcome, body = self._supervise(task)
            finally:
                self.current = task.started_at = None
            if outcome == "ok":
                task.future.set_result(body)
                return
            if outcome == "error":
                task.future.set_exception(body)
                return
            exitcode = self._kill_worker(1.0 if outcome == "crashed" else 0.0)
            if outcome == "stopped":
                break
            _log.warning(f"workers.{outcome}", pool=pool.name, slot=self.index,
                         attempt=task.attempt, exitcode=exitcode)
            pool.on_event(outcome, task, exitcode)
            if outcome == "killed":
                task.future.set_exception(Preempted(
                    f"worker {self.index} killed on request "
                    f"(attempt {task.attempt})"))
                return
            if outcome == "timeout":
                task.future.set_exception(WorkerTimeout(
                    f"task exceeded its {task.timeout:g}s hard wall "
                    f"deadline; worker killed (attempt {task.attempt})"))
                return
            if task.attempt - first >= task.retries:
                task.future.set_exception(WorkerCrashed(
                    f"task killed its worker on {task.retries + 1} "
                    f"consecutive attempts (last exit code {exitcode})"))
                return
            task.attempt += 1
            redispatched = False
            pool.on_event("retry", task, exitcode)
            time.sleep(min(pool.retry_backoff * 2 ** (task.attempt - first - 1),
                           _MAX_BACKOFF))
        task.future.set_exception(WorkerCrashed(_SHUTTING_DOWN))

    def _supervise(self, task: Task):
        """Relay the worker's beats until it answers, dies, hangs past
        the task deadline, or is killed on request."""
        conn, process, pool = self.conn, self.process, self.pool
        while True:
            if conn.poll(_POLL_SECONDS):
                try:
                    kind, body = conn.recv()
                except (EOFError, OSError):
                    return "crashed", None
                if kind != "beat":
                    return kind, body
                pool.on_event("beat", task, body)
            elif not process.is_alive():
                return "crashed", None
            if pool._stopping:
                return "stopped", None
            if task.kill_requested:
                return "killed", None
            if (task.timeout is not None
                    and time.monotonic() - task.started_at > task.timeout):
                return "timeout", None


class WorkerPool:
    """``size`` supervised worker slots sharing one FIFO task queue.

    ``init`` runs once in every fresh worker (picklable where ``fork``
    is unavailable) and returns ``handler(payload, attempt, beat) ->
    result``; ``beat(dict)`` sends a heartbeat home.  Workers spawn on
    their slot's first task.
    """

    def __init__(self, size: int, init: Callable[[], Callable],
                 on_event: Callable[[str, Optional[Task], Any], None],
                 retries: int = 2, retry_backoff: float = 0.1,
                 name: str = "pool"):
        if size < 1:
            raise ValueError(f"worker pool needs >= 1 worker, got {size}")
        self.init = init
        self.on_event = on_event
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.name = name
        self._stopping = False
        self._tasks: "queue.Queue" = queue.Queue()
        self._slots = [_Slot(self, i) for i in range(size)]

    def submit(self, payload: Any, attempt: int = 0,
               timeout: Optional[float] = None,
               retries: Optional[int] = None,
               label: Optional[str] = None) -> Task:
        """Queue one task.  ``retries`` overrides the pool's crash-retry
        budget for this task; ``label`` names its telemetry shipment
        (default ``<name>-pid<worker pid>``)."""
        task = Task(payload, attempt, timeout,
                    self.retries if retries is None else retries, label)
        if self._stopping:
            task.future.set_exception(WorkerCrashed(_SHUTTING_DOWN))
        else:
            self._tasks.put(task)
        return task

    def kill(self, task: Task) -> None:
        """Kill the worker running ``task`` (no-op once it finished)."""
        task.kill_requested = True

    def running(self) -> List[Task]:
        return [slot.current for slot in self._slots
                if slot.current is not None]

    def alive(self) -> int:
        return sum(1 for slot in self._slots
                   if slot.process is not None and slot.process.is_alive())

    def shutdown(self) -> None:
        """Busy workers are killed within one poll period, idle ones
        exit on pipe EOF, and queued tasks (ahead of the stop markers)
        fail.  Call it from the thread that submits."""
        self._stopping = True
        for _ in self._slots:
            self._tasks.put(_STOP)
        for slot in self._slots:
            slot.thread.join(5.0)
            slot._kill_worker()
