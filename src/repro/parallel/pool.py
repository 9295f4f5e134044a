"""``RunPool``: an ordered gather of independent runs over ``PoolService``.

Design constraints (see DESIGN.md section 2.9):

* **Determinism** -- results are merged strictly by *submission index*,
  never by completion order, and every task carries its full
  configuration (seed included), so a parallel run is indistinguishable
  from the serial loop it replaces.
* **One engine** -- workers, hand-off, deadlines, crash attribution and
  respawn all belong to :class:`~repro.parallel.service.PoolService`.
  A pool starts its service at the first parallel :meth:`RunPool.map`
  and reuses it (warm workers) across later maps.
* **Structured failure** -- a task that raises, overruns the per-task
  ``timeout`` or loses its worker comes back as a typed
  :class:`WorkerFailure` row in its slot (the original exception rides
  along when it survives pickling), so ``Sweep.run(keep_errors=True)``
  can keep its abort-rate studies and strict callers can re-raise.
* **Graceful degradation** -- with ``jobs<=1``, a single task, or a task
  that cannot be pickled (lambdas, closures), the pool runs the batch
  inline in the parent, preserving exact serial semantics.  The
  ``ran_parallel`` attribute reports which path a ``map`` took.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.parallel.seeds import resolve_jobs
from repro.parallel.service import PoolService, WorkerFailure


@dataclass
class Call:
    """One unit of work: ``fn(*args, **kwargs)`` in some worker.

    ``fn`` must be addressable from a fresh interpreter (module-level
    functions and ``functools.partial`` over them work; lambdas and
    closures force the serial fallback).  ``key`` is a short label used
    in progress callbacks and failure rows.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Optional[Dict[str, Any]] = None
    key: str = ""


class RunPool:
    """Run batches of independent tasks on warm workers, in order.

    Usage::

        with RunPool(jobs=4, timeout=120.0) as pool:
            outcomes = pool.map([Call(run_point, (params,)) for ...])

    ``outcomes`` is a list aligned with the submitted calls: each slot is
    the task's return value or a :class:`WorkerFailure`.  ``jobs=0``
    means one worker per CPU; ``progress(done, total, key)`` is invoked
    in the parent once per task, in submission order.

    A pool is not reentrant: call :meth:`map` from one thread at a time.
    """

    def __init__(self, jobs: int = 0, timeout: Optional[float] = None,
                 progress: Optional[Callable[[int, int, str], None]] = None
                 ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.progress = progress
        #: worker id each slot of the last ``map`` ran on (None for
        #: serial execution).
        self.last_workers: List[Optional[int]] = []
        #: progress callbacks that raised (swallowed: a broken progress
        #: printer must not abort the gather mid-fan-out).
        self.progress_errors = 0
        #: True when the last ``map`` actually fanned out.
        self.ran_parallel = False
        self._service: Optional[PoolService] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "RunPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Retire the workers.  Idempotent; called by ``__exit__``."""
        self._closed = True
        if self._service is not None:
            self._service.close()
            self._service = None

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def map(self, calls: Sequence[Union[Call, Tuple[Any, ...]]]) -> List[Any]:
        """Run every call; return outcomes merged by submission index."""
        if self._closed:
            raise RuntimeError("RunPool is closed")
        normalized = [self._normalize(call) for call in calls]
        self.last_workers = [None] * len(normalized)
        self.ran_parallel = False
        if (self.jobs <= 1 or len(normalized) <= 1
                or not all(map(_picklable, normalized))):
            return self._map_serial(normalized)
        self.ran_parallel = True
        return self._map_parallel(normalized)

    @staticmethod
    def _normalize(call: Union[Call, Tuple[Any, ...]]) -> Call:
        if isinstance(call, Call):
            return call
        fn, *rest = call
        args = rest[0] if rest else ()
        kwargs = rest[1] if len(rest) > 1 else None
        return Call(fn, tuple(args), kwargs)

    def _notify(self, done: int, total: int, key: str) -> None:
        """Invoke the progress callback, absorbing its failures.

        The callback is user code running inside the gather; if it
        raised, the tickets of the rest of the batch would be abandoned.
        """
        if self.progress is None:
            return
        try:
            self.progress(done, total, key)
        except Exception:
            self.progress_errors += 1

    def _map_serial(self, calls: Sequence[Call]) -> List[Any]:
        outcomes: List[Any] = []
        for index, call in enumerate(calls):
            try:
                outcomes.append(call.fn(*call.args, **(call.kwargs or {})))
            except Exception as exc:
                outcomes.append(WorkerFailure(
                    index=index, key=call.key, kind="error",
                    error_type=type(exc).__name__, message=str(exc),
                    traceback=traceback.format_exc(), exception=exc,
                ))
            self._notify(index + 1, len(calls), call.key)
        return outcomes

    def _map_parallel(self, calls: Sequence[Call]) -> List[Any]:
        # Size the service to the batch (never above ``jobs``), growing
        # it when a later batch could use more workers.  The service is
        # private, so admission is unbounded and map never sheds load.
        wanted = min(self.jobs, len(calls))
        if self._service is None or self._service.jobs < wanted:
            if self._service is not None:
                self._service.close()
            self._service = PoolService(jobs=wanted, timeout=self.timeout,
                                        max_pending=sys.maxsize)
        tickets = [self._service.submit(call.fn, call.args, call.kwargs,
                                        key=call.key)
                   for call in calls]
        outcomes: List[Any] = []
        for index, (call, ticket) in enumerate(zip(calls, tickets)):
            outcome = self._service.result(ticket)
            if isinstance(outcome, WorkerFailure):
                outcome = dataclasses.replace(outcome, index=index,
                                              key=call.key)
            outcomes.append(outcome)
            self._notify(index + 1, len(calls), call.key)
        self.last_workers = [ticket.worker_id for ticket in tickets]
        return outcomes


def _picklable(call: Call) -> bool:
    """True if ``call`` can travel to a spawn worker."""
    try:
        pickle.dumps((call.fn, call.args, call.kwargs or {}),
                     protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


def raise_failures(outcomes: Sequence[Any]) -> None:
    """Re-raise the first :class:`WorkerFailure` in ``outcomes``, if any."""
    for outcome in outcomes:
        if isinstance(outcome, WorkerFailure):
            outcome.raise_()
