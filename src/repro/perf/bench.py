"""The curated benchmark suite behind ``repro bench``.

Two layers of benchmarks:

* **micro** -- tight loops over the simulator's hot primitives (kernel
  dispatch, network send, trace append, log append), sized so one run
  takes tens of milliseconds.  These localize a regression to a
  subsystem when a macro number moves.
* **experiment / workload** -- whole simulated runs: the headline
  ``e11_p16`` scalability workload (16 processes, the acceptance metric
  of the perf trajectory) and the quick variants of experiments E2, E3,
  E8 and E11.

Every benchmark is deterministic in its *simulated* behavior (fixed
seed); only the wall-clock reading varies between hosts.  Each benchmark
runs ``repeats`` times and reports the best run.

With ``run_suite(jobs=N)`` the individual (benchmark, repeat) cells fan
out over a :class:`repro.parallel.RunPool`.  Concurrent repeats contend
for the host, so each cell returns its worker's *own* calibration
factor (measured once per worker process, on its first cell) and every
repeat is re-expressed in the parent's calibration units before the
best-of merge -- the normalized regression gate
(``--against``) stays valid under fan-out.  The ``sweep_parallel``
benchmark itself exercises the parallel sweep engine, so in a fanned-out
suite it runs in the parent (nested pools are deliberately avoided).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf.counters import BenchRecord, Stopwatch, calibrate

#: Benchmarks that manage their own worker pool and therefore run in the
#: parent even when the suite fans out.
PARENT_ONLY_BENCHMARKS = frozenset({"sweep_parallel"})

#: Registered benchmarks: name -> builder(quick, seed, repeats, store_dir,
#: check) -> BenchRecord.  Populated by :func:`_bench` below.
ALL_BENCHMARKS: Dict[str, Callable[..., BenchRecord]] = {}


def _bench(name: str) -> Callable:
    def register(fn: Callable[..., BenchRecord]) -> Callable[..., BenchRecord]:
        ALL_BENCHMARKS[name] = fn
        return fn

    return register


def _best_of(repeats: int, body: Callable[[], None]) -> float:
    watch = Stopwatch()
    for _ in range(max(1, repeats)):
        with watch:
            body()
    assert watch.best is not None
    return watch.best


# ----------------------------------------------------------------------
# micro-benchmarks
# ----------------------------------------------------------------------
@_bench("micro_kernel_dispatch")
def bench_kernel_dispatch(quick: bool, seed: int, repeats: int,
                          **_: object) -> BenchRecord:
    """Dispatch N pre-scheduled no-op events through the kernel run loop."""
    from repro.sim.kernel import Kernel

    n = 20_000 if quick else 200_000

    def body() -> None:
        kernel = Kernel(seed=seed)
        sink = _noop
        for i in range(n):
            kernel.schedule(float(i % 97), sink)
        kernel.run()
        assert kernel.dispatched == n

    return BenchRecord(
        name="micro_kernel_dispatch", kind="micro",
        wall_seconds=_best_of(repeats, body),
        events=n, seed=seed, params={"n": n},
    )


def _noop() -> None:
    return None


@_bench("micro_network_send")
def bench_network_send(quick: bool, seed: int, repeats: int,
                       **_: object) -> BenchRecord:
    """Send N small messages between two endpoints and drain delivery."""
    from repro.net.message import Message, MessageKind
    from repro.net.network import Network
    from repro.sim.kernel import Kernel

    n = 2_000 if quick else 20_000

    class _Sink:
        def deliver(self, message: Message) -> None:
            return None

    def body() -> None:
        kernel = Kernel(seed=seed)
        network = Network(kernel)
        network.register(0, _Sink())
        network.register(1, _Sink())
        payload = {"round": 0, "value": 1234}
        for i in range(n):
            network.send(Message(0, 1, MessageKind.APP, dict(payload)))
            kernel.run()
        assert network.stats.total_messages == n

    return BenchRecord(
        name="micro_network_send", kind="micro",
        wall_seconds=_best_of(repeats, body),
        events=n, messages=n, seed=seed, params={"n": n},
    )


@_bench("micro_trace_append")
def bench_trace_append(quick: bool, seed: int, repeats: int,
                       **_: object) -> BenchRecord:
    """Append N records to an enabled, ring-bounded trace log."""
    from repro.sim.tracing import TraceLog

    n = 20_000 if quick else 200_000

    def body() -> None:
        trace = TraceLog(enabled=True, max_records=4096)
        emit = trace.emit
        for i in range(n):
            emit(float(i), "bench", "tick", index=i)
        assert trace.dropped == n - 4096

    return BenchRecord(
        name="micro_trace_append", kind="micro",
        wall_seconds=_best_of(repeats, body),
        events=n, seed=seed, params={"n": n},
    )


@_bench("micro_trace_disabled")
def bench_trace_disabled(quick: bool, seed: int, repeats: int,
                         **_: object) -> BenchRecord:
    """The disabled-trace early-out: emit N records into a disabled log."""
    from repro.sim.tracing import TraceLog

    n = 50_000 if quick else 500_000

    def body() -> None:
        trace = TraceLog(enabled=False)
        emit = trace.emit
        for i in range(n):
            emit(float(i), "bench", "tick", index=i)
        assert len(trace) == 0

    return BenchRecord(
        name="micro_trace_disabled", kind="micro",
        wall_seconds=_best_of(repeats, body),
        events=n, seed=seed, params={"n": n},
    )


@_bench("micro_log_append")
def bench_log_append(quick: bool, seed: int, repeats: int,
                     **_: object) -> BenchRecord:
    """Append N log entries (rotating over K objects) to a ProcessLog."""
    from repro.checkpoint.log import LogEntry, ProcessLog
    from repro.types import Tid

    n = 5_000 if quick else 50_000
    objects = 16

    def body() -> None:
        log = ProcessLog()
        tid = Tid(0, 0)
        for i in range(n):
            log.append(LogEntry(
                obj_id=f"obj{i % objects}",
                version=i // objects + 1,
                obj_data={"value": i, "pad": "x" * 32},
                tid_prd=tid,
            ))
        assert len(log) == n

    return BenchRecord(
        name="micro_log_append", kind="micro",
        wall_seconds=_best_of(repeats, body),
        events=n, seed=seed, params={"n": n, "objects": objects},
    )


# ----------------------------------------------------------------------
# intern / batching micro-benchmarks (the PR's hot-path state changes)
# ----------------------------------------------------------------------
@_bench("micro_object_intern")
def bench_object_intern(quick: bool, seed: int, repeats: int,
                        **_: object) -> BenchRecord:
    """Hit the Tid/ExecutionPoint/VersionId intern caches N times.

    Rotates over a small key set (the steady-state shape: a cluster has
    a fixed population of tids and a slowly growing set of execution
    points), so almost every ``of()`` call is a cache hit.  Guards the
    interned-constructor fast path and the cached-hash lookups behind it.
    """
    from repro.types import ExecutionPoint, Tid, VersionId

    n = 20_000 if quick else 200_000

    def body() -> None:
        tid_of = Tid.of
        ep_of = ExecutionPoint.of
        vid_of = VersionId.of
        for i in range(n):
            tid = tid_of(i & 15, i & 3)
            ep_of(tid, i & 63)
            vid_of("obj", (i & 31) + 1)
        assert tid_of(3, 1) is tid_of(3, 1)

    return BenchRecord(
        name="micro_object_intern", kind="micro",
        wall_seconds=_best_of(repeats, body),
        events=n, seed=seed, params={"n": n},
    )


@_bench("micro_batch_dispatch")
def bench_batch_dispatch(quick: bool, seed: int, repeats: int,
                         **_: object) -> BenchRecord:
    """Dispatch N events arriving in same-timestamp batches.

    Complements ``micro_kernel_dispatch`` (spread timestamps): here
    events cluster at identical times, exercising the kernel's batched
    same-time pop path that the big-cluster fast path leans on.
    """
    from repro.sim.kernel import Kernel

    n = 20_000 if quick else 200_000
    batch = 64

    def body() -> None:
        kernel = Kernel(seed=seed)
        sink = _noop
        for i in range(n):
            kernel.schedule(float(i // batch), sink)
        kernel.run()
        assert kernel.dispatched == n

    return BenchRecord(
        name="micro_batch_dispatch", kind="micro",
        wall_seconds=_best_of(repeats, body),
        events=n, seed=seed, params={"n": n, "batch": batch},
    )


# ----------------------------------------------------------------------
# workload / experiment benchmarks
# ----------------------------------------------------------------------
def _e11_scale_bench(processes: int) -> None:
    """Register the E11 scalability workload at one cluster size.

    ``e11_p16`` is the acceptance benchmark of the perf trajectory;
    ``e11_p64`` / ``e11_p256`` are the big-cluster headline points.  The
    timed region runs trace-free (:func:`repro.sim.tracing.set_fast_mode`)
    -- the production fast path this PR introduces; byte-identity of fast
    and default mode is asserted by
    ``tests/integration/test_fast_mode_identity.py``.  With ``check=True``
    the inline checker needs the trace, so fast mode stays off.
    """
    name = f"e11_p{processes}"

    def bench(quick: bool, seed: int, repeats: int,
              store_dir: Optional[str] = None, check: bool = False,
              **_: object) -> BenchRecord:
        from repro.checkpoint.policy import CheckpointPolicy
        from repro.cluster.config import ClusterConfig
        from repro.cluster.system import DisomSystem
        from repro.sim.tracing import set_fast_mode
        from repro.workloads import SyntheticWorkload

        rounds = 8 if quick else 12
        record = BenchRecord(name=name, kind="workload", wall_seconds=0.0,
                             seed=seed,
                             params={"processes": processes, "rounds": rounds,
                                     "interval": 40.0})
        watch = Stopwatch()
        set_fast_mode(not check)
        try:
            for _ in range(max(1, repeats)):
                workload = SyntheticWorkload(rounds=rounds, objects=processes)
                system = DisomSystem(
                    ClusterConfig(processes=processes, seed=seed,
                                  store_dir=store_dir, check=check),
                    CheckpointPolicy(interval=40.0),
                )
                workload.setup(system)
                with watch:
                    result = system.run()
                assert result.completed and workload.verify(result).ok
                record.events = system.kernel.dispatched
                record.messages = result.net["total_messages"]
                record.peak_log_bytes = result.peak_log_bytes
        finally:
            set_fast_mode(False)
        assert watch.best is not None
        record.wall_seconds = watch.best
        return record

    bench.__name__ = f"bench_{name}"
    ALL_BENCHMARKS[name] = bench


_e11_scale_bench(16)
_e11_scale_bench(64)
_e11_scale_bench(256)


def _experiment_bench(name: str, exp_id: str) -> None:
    from repro.experiments import ALL_EXPERIMENTS

    runner = ALL_EXPERIMENTS[exp_id]

    def bench(quick: bool, seed: int, repeats: int, check: bool = False,
              **_: object) -> BenchRecord:
        from repro.experiments.base import set_inline_checking

        def body() -> None:
            set_inline_checking(check)
            try:
                result = runner(quick=quick)
            finally:
                set_inline_checking(False)
            assert result.claim_holds is not False, exp_id

        return BenchRecord(
            name=name, kind="experiment",
            wall_seconds=_best_of(repeats, body),
            seed=seed, params={"experiment": exp_id, "quick": quick},
        )

    bench.__name__ = f"bench_{name}"
    ALL_BENCHMARKS[name] = bench


_experiment_bench("exp_e2_no_extra_messages", "E2-no-extra-messages")
_experiment_bench("exp_e3_log_overhead", "E3-log-overhead")
_experiment_bench("exp_e8_recovery_time", "E8-recovery-time")
_experiment_bench("exp_e11_scalability", "E11-scalability")


# ----------------------------------------------------------------------
# parallel-engine benchmark
# ----------------------------------------------------------------------
def _sweep_bench_point(seed: int, processes: int, rounds: int) -> dict:
    """One sweep point for ``sweep_parallel``: a full simulated run."""
    from repro.checkpoint.policy import CheckpointPolicy
    from repro.cluster.config import ClusterConfig
    from repro.cluster.system import DisomSystem
    from repro.workloads import SyntheticWorkload

    workload = SyntheticWorkload(rounds=rounds, objects=processes)
    system = DisomSystem(
        ClusterConfig(processes=processes, seed=seed),
        CheckpointPolicy(interval=40.0),
    )
    workload.setup(system)
    result = system.run()
    assert result.completed and workload.verify(result).ok
    return {"events": system.kernel.dispatched,
            "messages": result.net["total_messages"]}


def _sweep_bench_identity(metrics: dict) -> dict:
    return metrics


@_bench("sweep_parallel")
def bench_sweep_parallel(quick: bool, seed: int, repeats: int,
                         jobs: int = 1, **_: object) -> BenchRecord:
    """A multi-point sweep through the parallel run engine.

    Measures what ``Sweep.run(jobs=N)`` costs end to end (fan-out,
    result marshaling, submission-order merge) on real simulated runs.
    With ``jobs > 1`` it also runs the same sweep serially once and
    records the measured ``speedup_vs_serial`` -- the suite-level number
    the ISSUE's acceptance criterion tracks.  The sweep's summed event
    and message counts are identical in both modes (and to any other
    host), which the equality tests assert.
    """
    import os

    from repro.analysis.sweep import Sweep
    from repro.parallel import Call, RunPool, resolve_jobs

    n_jobs = resolve_jobs(jobs)
    points = 8 if quick else 16
    processes, rounds = 8, 16
    sweep = Sweep(axes={"seed": [seed + i for i in range(points)],
                        "processes": [processes], "rounds": [rounds]},
                  title="bench: parallel sweep")

    def run_sweep(pool: Optional[RunPool]) -> "object":
        return sweep.run(_sweep_bench_point, extract=_sweep_bench_identity,
                         pool=pool)

    record = BenchRecord(
        name="sweep_parallel", kind="workload", wall_seconds=0.0, seed=seed,
        params={"points": points, "processes": processes, "rounds": rounds,
                "jobs": n_jobs, "cpu_count": os.cpu_count()},
    )

    serial_result = None
    serial_watch = Stopwatch()
    with serial_watch:
        serial_result = run_sweep(None)
    assert serial_watch.best is not None

    if n_jobs <= 1:
        # Serial engine: report the serial wall (best of the remaining
        # repeats and the pass above).
        watch = serial_watch
        for _ in range(max(0, repeats - 1)):
            with watch:
                run_sweep(None)
        result = serial_result
    else:
        watch = Stopwatch()
        with RunPool(jobs=n_jobs) as pool:
            # Warm the workers (spawn + package import) outside the
            # timed region: a real sweep amortizes startup over far more
            # points than this benchmark has.
            pool.map([Call(_sweep_bench_identity, ({},))
                      for _ in range(n_jobs)])
            result = None
            for _ in range(max(1, repeats)):
                with watch:
                    result = run_sweep(pool)
        assert watch.best is not None
        record.params["speedup_vs_serial"] = round(
            serial_watch.best / watch.best, 3)
        for serial_row, parallel_row in zip(serial_result.rows, result.rows):
            assert serial_row.metrics == parallel_row.metrics, \
                "parallel sweep diverged from serial results"

    assert watch.best is not None and result is not None
    record.wall_seconds = watch.best
    record.events = sum(row.metrics["events"] for row in result.rows)
    record.messages = sum(row.metrics["messages"] for row in result.rows)
    return record


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _process_calibration() -> float:
    """This process's host calibration, measured once on first use."""
    return calibrate()


def _bench_cell(name: str, quick: bool, seed: int,
                store_dir: Optional[str],
                check: bool) -> Tuple[BenchRecord, float]:
    """Worker-side body: one benchmark, one repeat.

    Module-level so it pickles into spawn workers by reference; the
    benchmark is resolved from the registry *inside* the worker, which
    re-imports this module and therefore re-registers the full suite.
    Returns the record with its worker's calibration, so the parent can
    re-express the wall-clock in its own calibration units.
    """
    calibration = _process_calibration()
    record = ALL_BENCHMARKS[name](quick=quick, seed=seed, repeats=1,
                                  store_dir=store_dir, check=check, jobs=1)
    return record, calibration


#: Lines of ``pstats`` output kept per benchmark under ``--profile``.
PROFILE_TOP = 25


def _profiled(fn: Callable[..., BenchRecord],
              sink: Dict[str, str], name: str,
              **kwargs: object) -> BenchRecord:
    """Run one benchmark under cProfile; store its top-N cumulative
    hotspots (text form) in ``sink[name]``."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        record = fn(**kwargs)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(PROFILE_TOP)
    sink[name] = buffer.getvalue()
    return record


def run_suite(
    quick: bool = True,
    seed: int = 7,
    repeats: Optional[int] = None,
    only: Optional[Sequence[str]] = None,
    store_dir: Optional[str] = None,
    check: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    profile_sink: Optional[Dict[str, str]] = None,
) -> List[BenchRecord]:
    """Run the (filtered) suite and return one record per benchmark.

    ``only`` filters by name prefix; ``repeats`` defaults to 3 in quick
    mode and 5 in full mode (best-of is reported).

    ``jobs`` > 1 fans the (benchmark, repeat) cells out over worker
    processes.  Records still come back in registry order with their
    deterministic counters unchanged; wall-clock readings are taken in
    the workers and re-expressed in the parent's calibration units
    (each worker measures its calibration factor once, on its first
    cell) before the best-of merge, so normalized comparisons against
    serial or remote baselines remain valid.

    ``profile_sink`` (a dict) turns on cProfile: each benchmark's top
    cumulative hotspots land in ``profile_sink[name]`` as ``pstats``
    text.  Profiling measures the parent interpreter, so it forces the
    suite serial regardless of ``jobs`` (and slows the wall numbers --
    don't gate on a profiled run).
    """
    from repro.parallel import resolve_jobs

    effective_repeats = repeats if repeats is not None else (3 if quick else 5)
    n_jobs = resolve_jobs(jobs)
    selected = [name for name in ALL_BENCHMARKS
                if not only or any(name.startswith(prefix) for prefix in only)]
    if n_jobs <= 1 or profile_sink is not None:
        records: List[BenchRecord] = []
        for name in selected:
            if progress is not None:
                progress(name)
            if profile_sink is not None:
                records.append(_profiled(
                    ALL_BENCHMARKS[name], profile_sink, name,
                    quick=quick, seed=seed, repeats=effective_repeats,
                    store_dir=store_dir, check=check, jobs=1))
            else:
                records.append(ALL_BENCHMARKS[name](
                    quick=quick, seed=seed, repeats=effective_repeats,
                    store_dir=store_dir, check=check, jobs=n_jobs))
        return records
    return _run_suite_parallel(selected, quick, seed, effective_repeats,
                               store_dir, check, progress, n_jobs)


def _run_suite_parallel(
    selected: Sequence[str],
    quick: bool,
    seed: int,
    repeats: int,
    store_dir: Optional[str],
    check: bool,
    progress: Optional[Callable[[str], None]],
    n_jobs: int,
) -> List[BenchRecord]:
    from repro.parallel import Call, RunPool, raise_failures

    fanned = [name for name in selected if name not in PARENT_ONLY_BENCHMARKS]
    calls = [
        Call(_bench_cell, (name, quick, seed, store_dir, check),
             key=f"{name}#{repeat}")
        for name in fanned for repeat in range(max(1, repeats))
    ]
    parent_calibration = _process_calibration()
    with RunPool(jobs=n_jobs) as pool:
        outcomes = pool.map(calls)
    raise_failures(outcomes)

    by_name: Dict[str, BenchRecord] = {}
    for record, calibration in outcomes:
        adjusted = record.wall_seconds * (parent_calibration / calibration)
        best = by_name.get(record.name)
        if best is None or adjusted < best.wall_seconds:
            record.wall_seconds = adjusted
            by_name[record.name] = record

    records: List[BenchRecord] = []
    for name in selected:
        if progress is not None:
            progress(name)
        if name in PARENT_ONLY_BENCHMARKS:
            records.append(ALL_BENCHMARKS[name](
                quick=quick, seed=seed, repeats=repeats,
                store_dir=store_dir, check=check, jobs=n_jobs))
        else:
            records.append(by_name[name])
    return records
