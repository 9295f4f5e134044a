"""The worker-side main loop of :class:`repro.parallel.service.PoolService`.

Workers are started with the ``spawn`` context, so each one is a fresh
interpreter that imports this module by name -- ``sys.path`` (and with it
the ``src/`` layout) is forwarded by multiprocessing's spawn preparation
step, and none of the parent's mutable module state leaks in.  Anything a
task needs beyond the package source (inline-check flags, experiment
defaults, seeds) therefore has to travel *inside the task payload*; the
helpers in :mod:`repro.experiments.runner` and :mod:`repro.perf.bench`
are written that way.  Per-worker one-time state (such as the bench
harness's host calibration) is cached by the task code itself.

Each worker reads its own task queue; the parent puts a task there only
while the worker is idle, so the parent always knows which task a worker
holds and no worker-side announcement is needed for crash or deadline
attribution.  The protocol has two message kinds:

``(task_index, payload_bytes)`` on the worker's task queue
    one pickled ``(fn, args, kwargs)`` task; ``None`` retires the
    worker;
``("done", worker_id, task_index, body_bytes)`` on the shared result queue
    the worker is idle again.  ``body_bytes`` unpickles to either
    ``("ok", value)`` or ``("error", type_name, message, traceback,
    pickled_exception_or_none)``.  A worker's first ``done``, sent once
    its interpreter is up, has ``task_index`` and ``body_bytes``
    ``None``.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any


def _run_payload(payload: bytes) -> bytes:
    """Execute one pickled ``(fn, args, kwargs)`` task; marshal the outcome.

    Never raises: every exception (including result-pickling failures)
    is folded into an ``("error", ...)`` body so the parent can surface
    it as a typed :class:`~repro.parallel.service.WorkerFailure` row.
    """
    try:
        fn, args, kwargs = pickle.loads(payload)
        value = fn(*args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - marshaled, not swallowed
        return _error_body(exc)
    try:
        return pickle.dumps(("ok", value), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        return _error_body(exc, note=(
            f"task returned an unpicklable {type(value).__name__}; "
            f"return plain data from parallel tasks"
        ))


def _error_body(exc: BaseException, note: str = "") -> bytes:
    trace = traceback.format_exc()
    try:
        exc_bytes: Any = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        # Round-trip now: exceptions with custom __init__ signatures can
        # pickle fine here yet explode at load time in the parent.
        pickle.loads(exc_bytes)
    except Exception:
        exc_bytes = None
    message = f"{note}: {exc}" if note else str(exc)
    return pickle.dumps(
        ("error", type(exc).__name__, message, trace, exc_bytes),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def worker_main(worker_id: int, task_queue: Any, result_queue: Any) -> None:
    """Serve tasks from ``task_queue`` until the ``None`` sentinel."""
    result_queue.put(("done", worker_id, None, None))
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, payload = item
        result_queue.put(("done", worker_id, index, _run_payload(payload)))
