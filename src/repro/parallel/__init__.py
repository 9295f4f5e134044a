"""Deterministic multi-core fan-out for independent simulation runs.

A single simulated run is inherently serial (one discrete-event kernel),
but everything *above* a run is embarrassingly parallel: sweep points,
experiments, benchmark repeats, seeded verification runs.  This package
provides the one engine all of those layers share:

* :class:`~repro.parallel.service.PoolService` -- the worker engine:
  warm spawn-context workers, hand-off of each task to one idle worker,
  bounded admission, per-task deadlines, typed :class:`WorkerFailure`
  rows for errors, timeouts and crashes, and respawn; the scenario
  server submits to it directly;
* :class:`~repro.parallel.pool.RunPool` -- an ordered gather over the
  service: submission-index-ordered merging, progress callbacks, and
  the exact serial fallback;
* :func:`~repro.parallel.seeds.derive_seed` -- hash-based, process- and
  platform-stable child-seed derivation;
* :func:`~repro.parallel.seeds.resolve_jobs` -- the uniform ``--jobs``
  contract (``1`` serial, ``0`` = one worker per CPU).

Consumers: ``Sweep.run(jobs=N)``, ``repro experiments --jobs N``,
``repro bench --jobs N``, ``repro serve`` and the corresponding
:mod:`repro.api` knobs.
The determinism guarantee is that any of those with ``jobs=N`` produces
byte-identical tables and metrics to ``jobs=1``; only wall-clock
changes.
"""

from repro.parallel.pool import Call, RunPool, raise_failures
from repro.parallel.seeds import derive_seed, resolve_jobs
from repro.parallel.service import (
    PoolService,
    QueueFullError,
    ServiceClosedError,
    WorkerError,
    WorkerFailure,
)

__all__ = [
    "Call",
    "PoolService",
    "QueueFullError",
    "RunPool",
    "ServiceClosedError",
    "WorkerError",
    "WorkerFailure",
    "derive_seed",
    "raise_failures",
    "resolve_jobs",
]
