"""``PoolService``: the one worker engine of :mod:`repro.parallel`.

Every parallel task in the package runs here.  The scenario server
submits one ticket per request and waits for exactly that ticket;
:class:`~repro.parallel.pool.RunPool` is an ordered gather on top (it
submits a whole batch, then waits on the tickets in submission order).
The engine owns everything else:

* **Warm workers** -- ``jobs`` spawn-context workers are started once
  and reused across every task; a dead worker is respawned so the
  service keeps serving (``worker_restarts`` counts replacements).
* **Parent-side assignment** -- each worker has its own task queue and
  the parent hands a task to a worker only while that worker is idle,
  so the parent's own record says which worker holds which task.  A
  worker that dies fails exactly the task it holds as ``kind="crash"``,
  even when it dies before it could send anything.
* **Bounded admission** -- at most ``max_pending`` tasks may be
  submitted-but-unfinished; :meth:`submit` raises
  :class:`QueueFullError` beyond that, which the scenario server maps
  to HTTP 429.  Admission control lives *here*, ahead of the workers,
  so an overloaded service fails fast instead of queueing unboundedly.
* **Per-task deadlines** -- the clock starts when a task is handed to
  its worker; past the deadline the worker is terminated (and
  replaced) and the task becomes a ``kind="timeout"``
  :class:`WorkerFailure`.
* **Typed failure rows** -- worker crashes, deadlines and task
  exceptions all come back as :class:`WorkerFailure`.

Host wall-clock reads here drive orchestration only (deadlines, join
timeouts); simulated behavior inside the workers remains a pure
function of each task's payload -- the determinism lint exempts this
file for that reason.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.parallel.seeds import resolve_jobs
from repro.parallel.worker import worker_main

#: How long the collector blocks on the result queue between
#: liveness/deadline sweeps.
_POLL_SECONDS = 0.05

#: Seconds to wait for a worker to exit voluntarily at close time.
_JOIN_SECONDS = 2.0


class QueueFullError(RuntimeError):
    """Raised by :meth:`PoolService.submit` when the service already has
    ``max_pending`` unfinished tasks -- the caller should shed load."""


class ServiceClosedError(RuntimeError):
    """Raised when submitting to (or waiting on) a closed service."""


class WorkerError(RuntimeError):
    """Raised in the parent for a task failure whose original exception
    could not be transported across the process boundary."""


@dataclass
class WorkerFailure:
    """A task that did not produce a result -- the error row format.

    ``kind`` is ``"error"`` (the task raised), ``"timeout"`` (the task
    exceeded its deadline and its worker was killed) or ``"crash"``
    (the worker process died under the task).  When the original
    exception could be pickled it is carried in ``exception`` and
    :meth:`raise_` re-raises it; otherwise :meth:`raise_` raises a
    :class:`WorkerError` with the marshaled description.
    """

    index: int
    key: str
    kind: str
    error_type: str
    message: str
    traceback: str = ""
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False)

    def __str__(self) -> str:
        where = f" (task {self.key})" if self.key else ""
        return f"[{self.kind}] {self.error_type}: {self.message}{where}"

    def raise_(self) -> None:
        if self.exception is not None:
            raise self.exception
        raise WorkerError(str(self))


def _decode_result(index: int, key: str, body: bytes) -> Any:
    """Decode the body of one ``("done", ...)`` message.

    Returns the task's value, or a :class:`WorkerFailure` row carrying
    the worker-side error.
    """
    try:
        decoded = pickle.loads(body)
    except Exception as exc:
        return WorkerFailure(
            index=index, key=key, kind="error",
            error_type=type(exc).__name__,
            message=f"could not decode worker result: {exc}",
        )
    if decoded[0] == "ok":
        return decoded[1]
    _, error_type, message, trace, exc_bytes = decoded
    exception: Optional[BaseException] = None
    if exc_bytes is not None:
        try:
            exception = pickle.loads(exc_bytes)
        except Exception:  # pragma: no cover - worker pre-validated
            exception = None
    return WorkerFailure(
        index=index, key=key, kind="error",
        error_type=error_type, message=message, traceback=trace,
        exception=exception,
    )


@dataclass
class Ticket:
    """One submitted task: wait on :meth:`PoolService.result` with it."""

    index: int
    key: str
    timeout: Optional[float]
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    outcome: Any = field(default=None, repr=False)
    #: Host-monotonic time the task was handed to a worker (None while
    #: queued); used by the deadline sweep, never by task results.
    started_at: Optional[float] = field(default=None, repr=False)
    worker_id: Optional[int] = None


@dataclass
class _Worker:
    """One worker process, its private task queue and the task it holds."""

    process: Any
    tasks: Any
    ticket: Optional[Ticket] = None


class PoolService:
    """A long-lived, thread-safe dispatcher over warm worker processes.

    Usage::

        service = PoolService(jobs=2, timeout=120.0, max_pending=16)
        ticket = service.submit(run_scenario, (spec,), key="e2e")
        outcome = service.result(ticket)   # value or WorkerFailure
        ...
        service.close()

    ``jobs`` follows the uniform contract (``0`` = one worker per CPU).
    ``timeout`` is the default per-task deadline (seconds; ``None``
    disables); :meth:`submit` can override it per task.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 max_pending: int = 16) -> None:
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.max_pending = max_pending
        self.worker_restarts = 0
        self.workers_spawned = 0
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.collector_errors = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._lock = threading.Lock()
        #: ticket index -> every unfinished ticket (queued or held).
        self._tickets: Dict[int, Ticket] = {}
        #: admitted tasks not yet handed to a worker, in FIFO order.
        self._queued: Deque[Tuple[Ticket, bytes]] = deque()
        self._workers: Dict[int, _Worker] = {}
        #: ids of live workers that hold no task and are ready for one.
        self._idle: Deque[int] = deque()
        self._next_index = 0
        self._next_worker_id = 0
        self._closed = threading.Event()
        with self._lock:
            self._spawn_missing_locked()
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True)
        self._collector.start()

    # ------------------------------------------------------------------
    # introspection (for /metrics)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Tasks submitted but not yet finished (queued + running)."""
        with self._lock:
            return len(self._tickets)

    @property
    def in_flight(self) -> int:
        """Tasks currently held by a worker."""
        with self._lock:
            return len(self._tickets) - len(self._queued)

    @property
    def queue_depth(self) -> int:
        """Tasks admitted but not yet handed to any worker."""
        with self._lock:
            return len(self._queued)

    @property
    def workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "workers": len(self._workers),
                "pending": len(self._tickets),
                "in_flight": len(self._tickets) - len(self._queued),
                "queue_depth": len(self._queued),
                "worker_restarts": self.worker_restarts,
                "workers_spawned": self.workers_spawned,
                "tasks_submitted": self.tasks_submitted,
                "tasks_completed": self.tasks_completed,
                "collector_errors": self.collector_errors,
            }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "PoolService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the collector, retire the workers, fail open tickets."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._collector.join(timeout=_JOIN_SECONDS + 1.0)
        with self._lock:
            for worker in self._workers.values():
                worker.tasks.put(None)
            deadline = time.monotonic() + _JOIN_SECONDS
            for worker_id, worker in list(self._workers.items()):
                worker.process.join(
                    timeout=max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=_JOIN_SECONDS)
                self._drop_worker_locked(worker_id)
            self._queued.clear()
            for ticket in list(self._tickets.values()):
                self._finish_locked(ticket, WorkerFailure(
                    index=ticket.index, key=ticket.key, kind="error",
                    error_type="ServiceClosedError",
                    message="the pool service was closed before the task "
                            "finished",
                ))

    # ------------------------------------------------------------------
    # submission / completion
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None, *, key: str = "",
               timeout: Optional[float] = -1.0) -> Ticket:
        """Admit one task; returns a :class:`Ticket` to wait on.

        Raises :class:`QueueFullError` when ``max_pending`` tasks are
        already unfinished, :class:`ServiceClosedError` after
        :meth:`close`, and ``TypeError``/``pickle.PicklingError`` when
        the payload cannot travel to a worker (the service has no
        inline fallback -- tasks must be module-level callables).
        ``timeout=-1`` means "use the service default".
        """
        if self._closed.is_set():
            raise ServiceClosedError("cannot submit to a closed PoolService")
        payload = pickle.dumps((fn, args, kwargs or {}),
                               protocol=pickle.HIGHEST_PROTOCOL)
        effective_timeout = self.timeout if timeout == -1.0 else timeout
        with self._lock:
            if len(self._tickets) >= self.max_pending:
                raise QueueFullError(
                    f"service already has {len(self._tickets)} unfinished "
                    f"task(s) (max_pending={self.max_pending})"
                )
            index = self._next_index
            self._next_index += 1
            ticket = Ticket(index=index, key=key or f"task-{index}",
                            timeout=effective_timeout)
            self._tickets[index] = ticket
            self.tasks_submitted += 1
            self._queued.append((ticket, payload))
            self._dispatch_locked()
        return ticket

    def result(self, ticket: Ticket, wait: Optional[float] = None) -> Any:
        """Block until ``ticket`` finishes; return its value or failure.

        ``wait`` bounds the parent-side wait (seconds); past it a
        ``kind="timeout"`` :class:`WorkerFailure` is returned *without*
        cancelling the task (the service-side deadline does that).
        """
        if not ticket.done.wait(wait):
            return WorkerFailure(
                index=ticket.index, key=ticket.key, kind="timeout",
                error_type="TimeoutError",
                message=f"gave up waiting after {wait:g}s "
                        "(task may still be running)",
            )
        return ticket.outcome

    def run(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
            kwargs: Optional[Dict[str, Any]] = None, *, key: str = "",
            timeout: Optional[float] = -1.0,
            wait: Optional[float] = None) -> Any:
        """:meth:`submit` + :meth:`result` in one call."""
        return self.result(self.submit(fn, args, kwargs, key=key,
                                       timeout=timeout), wait=wait)

    # ------------------------------------------------------------------
    # collector thread
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Collector thread main loop.

        Every pending ticket waits on this thread, so it must survive
        anything a message can throw at it -- a malformed tuple or a
        result body that fails to unpickle is recorded in
        ``collector_errors`` (visible via :meth:`stats`) instead of
        killing the thread and hanging every outstanding
        :meth:`result` call.
        """
        while not self._closed.is_set():
            try:
                if not self._collect_once():
                    return
            except Exception:
                with self._lock:
                    self.collector_errors += 1

    def _collect_once(self) -> bool:
        """One sweep + one message; False stops the collector."""
        self._sweep()
        try:
            message = self._result_queue.get(timeout=_POLL_SECONDS)
        except queue_module.Empty:
            return True
        except (OSError, ValueError):  # pragma: no cover - teardown
            return False
        kind, worker_id, index, body = message
        if kind != "done":
            raise ValueError(f"unknown result-queue message kind {kind!r}")
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.ticket = None
                self._idle.append(worker_id)
            # The ticket is gone when its deadline already failed it.
            ticket = self._tickets.get(index) if index is not None else None
            if ticket is not None:
                self._finish_locked(
                    ticket, _decode_result(index, ticket.key, body))
            self._dispatch_locked()
        return True

    def _sweep(self) -> None:
        """Fail the tasks of dead and overdue workers; respawn workers."""
        now = time.monotonic()
        with self._lock:
            for worker_id, worker in list(self._workers.items()):
                ticket = worker.ticket
                if not worker.process.is_alive():
                    kind, error_type, message = (
                        "crash", "WorkerCrash",
                        f"worker {worker_id} exited with code "
                        f"{worker.process.exitcode} while running the task")
                elif (ticket is not None and ticket.timeout is not None
                        and ticket.started_at is not None
                        and now - ticket.started_at > ticket.timeout):
                    worker.process.terminate()
                    worker.process.join(timeout=_JOIN_SECONDS)
                    kind, error_type, message = (
                        "timeout", "TimeoutError",
                        f"task exceeded its deadline of {ticket.timeout:g}s; "
                        f"worker {worker_id} was cancelled")
                else:
                    continue
                self._drop_worker_locked(worker_id)
                self.worker_restarts += 1
                if ticket is not None:
                    self._finish_locked(ticket, WorkerFailure(
                        index=ticket.index, key=ticket.key, kind=kind,
                        error_type=error_type, message=message))
            self._spawn_missing_locked()
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        """Hand queued tasks to idle workers (caller holds the lock)."""
        while self._queued and self._idle:
            worker_id = self._idle.popleft()
            ticket, payload = self._queued.popleft()
            worker = self._workers[worker_id]
            worker.tasks.put((ticket.index, payload))
            worker.ticket = ticket
            ticket.worker_id = worker_id
            ticket.started_at = time.monotonic()

    def _finish_locked(self, ticket: Ticket, outcome: Any) -> None:
        """Resolve one ticket (caller holds the lock)."""
        self._tickets.pop(ticket.index, None)
        ticket.outcome = outcome
        self.tasks_completed += 1
        ticket.done.set()

    def _drop_worker_locked(self, worker_id: int) -> None:
        """Forget one worker whose process has ended (caller holds the
        lock).  Its task queue may still hold an unread item, so the
        queue must not make interpreter exit wait on it."""
        worker = self._workers.pop(worker_id)
        if worker_id in self._idle:
            self._idle.remove(worker_id)
        worker.tasks.cancel_join_thread()
        worker.tasks.close()

    def _spawn_missing_locked(self) -> None:
        """Keep ``jobs`` warm workers alive (caller holds the lock).

        A new worker first reports ``("done", id, None, None)`` once its
        interpreter is up; only then does it join the idle list, so
        interpreter start-up never counts against a task's deadline.
        """
        if self._closed.is_set():
            return
        while len(self._workers) < self.jobs:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            tasks = self._ctx.Queue()
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, tasks, self._result_queue),
                daemon=True,
                name=f"repro-pool-{worker_id}",
            )
            process.start()
            self._workers[worker_id] = _Worker(process, tasks)
            self.workers_spawned += 1


__all__ = [
    "PoolService",
    "QueueFullError",
    "ServiceClosedError",
    "Ticket",
    "WorkerError",
    "WorkerFailure",
]
