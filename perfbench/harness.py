"""Measurement, correctness gate and behaviour fingerprint of one workload.

A *run* builds one simulated cluster from a :class:`WorkloadSpec` and a
seed, runs it to completion and checks it (:func:`run_once`).  A failed
run -- it raised, did not complete, aborted or broke a check -- is
counted and reported, never fatal.  :func:`measure_end_to_end` repeats
runs for the time budget and reports over the seed's clusters;
:func:`measure_layers`
adds one run under the :class:`~perfbench.spans.SpanTracer` and reports
per-layer metrics.  Host metrics are wall-clock seconds on the machine
running the benchmark, corrected for the host's speed at the moment
(:class:`HostClock`); ``sim_`` metrics are in the simulator's own time
and byte units and are exact for a seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro import open_store
from repro.checkpoint.protocol import DisomCheckpointProtocol
from repro.cluster.process import DisomProcess
from repro.cluster.system import DisomSystem
from repro.net.network import Network
from repro.sim.tracing import set_fast_mode
from repro.threads.thread import Thread

from perfbench.spans import LAYERS, SpanTracer
from perfbench.workloads import WorkloadSpec, build

ROOT = Path(__file__).resolve().parent.parent

#: name -> (unit, better).  Host metrics are measured with spans off.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "acquires_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_time": ("sim_ms", "lower"),
    "sim_msgs": ("count", "lower"),
    "sim_net_bytes": ("B", "lower"),
    "sim_stable_bytes": ("B", "lower"),
    "sim_acquire_wait_p50": ("sim_ms", "lower"),
    "sim_acquire_wait_p99": ("sim_ms", "lower"),
}

#: name -> (unit, better).  Host self times come from the traced run; counts from
#: the untraced run's ``RunResult`` (or, where it has none, the tracer's
#: counters -- the fingerprint shows both runs simulated the same thing).
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "memory.snapshot_s": ("s", "lower"),
    "checkpoint.take_s": ("s", "lower"),
    "checkpoint.compute_size_s": ("s", "lower"),
    "net.sizing_s": ("s", "lower"),
    "storage.write_s": ("s", "lower"),
    "storage.read_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
    "sim.events": ("count", "lower"),
    "cluster.declare_calls": ("count", "lower"),
    "memory.snapshot_objects": ("count", "lower"),
    "memory.remote_frac": ("ratio", "lower"),
    "memory.instant_frac": ("ratio", "higher"),
    "memory.forwards_per_remote": ("ratio", "lower"),
    "memory.invalidations": ("count", "lower"),
    "net.messages": ("count", "lower"),
    "net.checkpoint_messages": ("count", "lower"),
    "net.piggyback_bytes": ("B", "lower"),
    "checkpoint.image_bytes": ("B", "lower"),
    "checkpoint.written_bytes": ("B", "lower"),
    "checkpoint.peak_log_bytes": ("B", "lower"),
    "checkpoint.gc_dropped": ("count", "higher"),
    "checkpoint.dummies_shipped": ("count", "lower"),
    "storage.bytes_written": ("B", "lower"),
    "storage.segment_reuse_frac": ("ratio", "higher"),
    "recovery.count": ("count", "lower"),
    "recovery.replayed_acquires": ("count", "lower"),
    "recovery.reissued_requests": ("count", "lower"),
    "recovery.sim_time": ("sim_ms", "lower"),
    "verify.trace_records": ("count", "lower"),
}

#: Clusters behind one ``--seed``: run ``k`` simulates cluster seed
#: ``seed * INPUTS + k % INPUTS``, and the ``sim_`` metrics are means over
#: the ``INPUTS`` clusters, so one seed's figures rest on more than one
#: random schedule.  An end-to-end measurement runs each at least once.
INPUTS = 6
#: ``setup_s`` is the median of set-up samples taken in bursts of this many
#: seconds (at least one sample each), before the first run and after every
#: run, so that the samples span the whole measurement.
SETUP_BURST_S = 0.3
#: One set-up sample is the mean over builds timed for at least this long
#: together, so that timer and collector jitter on a ~1 ms build averages out.
SETUP_SAMPLE_S = 0.05
#: Seconds :func:`_reference` takes, between stretches of simulation, on
#: the machine the benchmark was defined on (2-vCPU shared virtual
#: machine, 2.0 GHz Xeon) while the other machines leave the host idle:
#: host timings are reported at that speed.
REFERENCE_S = 1.0e-4
#: :class:`HostClock` times the host's speed about this often.
SEGMENT_S = 0.02


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def _reference() -> None:
    """A fixed pure-Python loop of the benchmark's own (never the program's)."""
    table: dict[int, int] = {}
    for i in range(1000):
        key = i % 100
        table[key] = table.get(key, 0) + i


def host_slowdown() -> float:
    """How much slower than :data:`REFERENCE_S` the host runs Python right
    now: the faster of two back-to-back runs of :func:`_reference`."""
    best = float("inf")
    for _ in range(2):
        started = perf_counter()
        _reference()
        best = min(best, perf_counter() - started)
    return best / REFERENCE_S


class HostClock:
    """Seconds of timed regions, corrected for host speed and as measured.

    The benchmark shares its host's cores, caches and memory with other
    machines, and their load changes within seconds: the same run of the
    same cluster reads up to 1.7x slower while they are busy.  So a region
    is cut into segments of about :data:`SEGMENT_S` at calls of
    :data:`TICK_POINTS`, the host's speed is timed with
    :func:`host_slowdown` after each segment, outside it, and the
    corrected time is the sum of segment seconds divided by their
    slowdowns: the seconds the region takes at :data:`REFERENCE_S`.  A
    change to the program moves both figures alike, since the reference
    loop runs none of its code.

    Used as a context manager it wraps :data:`TICK_POINTS` on their
    classes; without that, a region is one segment, and its measured
    seconds are the region's alone.
    """

    def __init__(self) -> None:
        self.raw_s = self.corrected_s = 0.0
        self.slowdowns: list[float] = []
        self._running = False
        self._mark = 0.0
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> "HostClock":
        for owner, attr in TICK_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._ticking(original))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    def _ticking(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def ticking(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if self._running and perf_counter() - self._mark >= SEGMENT_S:
                self._segment()
            return result
        return ticking

    def start(self) -> None:
        self.raw_s = self.corrected_s = 0.0
        self._running = True
        self._mark = perf_counter()

    def _segment(self) -> None:
        segment = perf_counter() - self._mark
        slowdown = host_slowdown()
        self.raw_s += segment
        self.corrected_s += segment / slowdown
        self.slowdowns.append(slowdown)
        self._mark = perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the region; its corrected and measured seconds."""
        self._segment()
        self._running = False
        return self.corrected_s, self.raw_s


#: Where :class:`HostClock` may end a segment: calls frequent in every
#: workload, plus the checkpoint, which at p=256 runs for long stretches
#: without any other of them.
TICK_POINTS: tuple[tuple[type, str], ...] = (
    (Thread, "resume"),
    (Network, "send"),
    (DisomCheckpointProtocol, "take_checkpoint"),
)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class AcquireWaitProbe:
    """Simulated wait of every acquire, from the moment the process takes
    the request (``DisomProcess.handle_acquire``) to the moment the
    engine reports it granted (its ``acquire_observer``).

    Installed on the classes for a whole measurement, in traced and
    untraced runs alike, so both simulate and time the same code.
    """

    def __init__(self) -> None:
        self.starts: dict[Any, float] = {}
        self.waits: list[float] = []
        self._saved: list[tuple[type, str, Any]] = []

    def reset(self) -> None:
        self.starts.clear()
        self.waits = []

    def __enter__(self) -> "AcquireWaitProbe":
        starts = self.starts
        handle_acquire = DisomProcess.handle_acquire
        note_acquire = DisomSystem._note_acquire

        def timed_handle_acquire(process: DisomProcess, thread: Any,
                                 syscall: Any) -> None:
            starts[thread.tid] = process.kernel.now
            handle_acquire(process, thread, syscall)

        def timed_note_acquire(system: DisomSystem, tid: Any, *rest: Any) -> None:
            start = starts.pop(tid, None)
            if start is not None:
                self.waits.append(system.kernel.now - start)
            note_acquire(system, tid, *rest)

        self._saved = [(DisomProcess, "handle_acquire", handle_acquire),
                       (DisomSystem, "_note_acquire", note_acquire)]
        DisomProcess.handle_acquire = timed_handle_acquire  # type: ignore[method-assign]
        DisomSystem._note_acquire = timed_note_acquire  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []


@dataclass
class RunOutcome:
    """One run: its timing, the gate's verdict and what it simulated."""

    problems: list[str] = field(default_factory=list)
    #: Corrected for host speed (see :class:`HostClock`), and as measured.
    run_s: Optional[float] = None
    raw_run_s: Optional[float] = None
    acquires: int = 0
    #: ``sim_`` end-to-end metrics.
    sim: dict[str, float] = field(default_factory=dict)
    #: Exact per-layer counts taken from the run's result.
    counts: dict[str, float] = field(default_factory=dict)
    digest: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, exact for a seed)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _incarnations(system: DisomSystem) -> list[Any]:
    """Metrics of every process incarnation, crashed ones included."""
    return ([p.metrics for p in system.processes.values()]
            + [metrics for _, metrics in system.metrics_history])


def _gate(spec: WorkloadSpec, system: DisomSystem, workload: Any, result: Any,
          store_dir: Optional[str]) -> list[str]:
    """Every reason the run counts as failed (empty when it passed)."""
    problems: list[str] = []
    if not result.completed:
        problems.append("run did not complete")
    if result.aborted:
        problems.append(f"run aborted: {result.abort_reason}")
    if result.completed and not result.aborted:
        problems.extend(workload.verify(result).issues)
    # Holds the inline checker's races and violations too.
    problems.extend(str(v) for v in result.invariant_violations)
    rollbacks = sum(m.survivor_rollbacks for m in _incarnations(system))
    if rollbacks:
        problems.append(f"{rollbacks} survivor rollbacks")
    if spec.failure_free and result.net["checkpoint_messages"]:
        problems.append(f"{result.net['checkpoint_messages']} checkpoint "
                        "messages in a failure-free run")
    unfinished = [r.pid for r in result.recoveries if r.finished_at is None]
    if unfinished:
        problems.append(f"recovery of {unfinished} never finished")
    if store_dir is not None:
        intact = {pid: False for pid in range(spec.processes)}
        for slot in open_store(store_dir).verify():
            intact[slot.pid] = intact.get(slot.pid, False) or slot.ok
        broken = sorted(pid for pid, ok in intact.items() if not ok)
        if broken:
            problems.append(f"no intact checkpoint slot on disk for {broken}")
    return problems


def _observe(system: DisomSystem, result: Any,
             waits: list[float]) -> tuple[dict[str, float], dict[str, float], int]:
    """``sim_`` metrics, exact per-layer counts and completed acquires."""
    metrics = _incarnations(system)

    def total(attribute: str) -> int:
        return sum(getattr(m, attribute) for m in metrics)

    local, remote = total("local_acquires"), total("remote_acquires")
    net = result.net
    storage = result.storage
    segments = storage.get("segments_written", 0) + storage.get("segments_reused", 0)
    trace = system.kernel.trace
    # Acquires granted at the instant they were issued wait 0; the wait
    # percentiles describe the others, whose share is 1 - instant_frac.
    waited = [w for w in waits if w > 0]
    sim = {
        "sim_time": result.duration,
        "sim_msgs": net["total_messages"],
        "sim_net_bytes": net["total_bytes"],
        "sim_stable_bytes": result.stable_bytes,
        "sim_acquire_wait_p50": _percentile(waited, 50) if waited else 0.0,
        "sim_acquire_wait_p99": _percentile(waited, 99) if waited else 0.0,
    }
    counts = {
        "sim.events": system.kernel.dispatched,
        "memory.instant_frac": (1 - len(waited) / len(waits)) if waits else 0.0,
        "memory.remote_frac": remote / (local + remote) if local + remote else 0.0,
        "memory.forwards_per_remote": (total("request_forwards") / remote
                                       if remote else 0.0),
        "memory.invalidations": total("invalidations_sent"),
        "net.messages": net["total_messages"],
        "net.checkpoint_messages": net["checkpoint_messages"],
        "net.piggyback_bytes": net["piggyback_bytes"],
        "checkpoint.written_bytes": sum(m.checkpoints.bytes_total for m in metrics),
        "checkpoint.peak_log_bytes": result.peak_log_bytes,
        "checkpoint.gc_dropped": (total("gc_log_entries_dropped")
                                  + total("gc_threadset_pairs_dropped")
                                  + total("gc_dummies_dropped")
                                  + total("gc_depset_entries_dropped")),
        "checkpoint.dummies_shipped": total("dummies_shipped"),
        "storage.bytes_written": storage.get("bytes_written", 0),
        "storage.segment_reuse_frac": (storage.get("segments_reused", 0) / segments
                                       if segments else 0.0),
        "recovery.count": len(result.recoveries),
        "recovery.replayed_acquires": sum(r.replayed_acquires
                                          for r in result.recoveries),
        "recovery.reissued_requests": total("reissued_requests"),
        "recovery.sim_time": sum(r.duration or 0.0 for r in result.recoveries),
        "verify.trace_records": len(trace) + trace.dropped if trace.enabled else 0,
    }
    return sim, counts, local + remote


def fingerprint(sim: dict[str, float], counts: dict[str, float],
                final_objects: dict[str, Any]) -> str:
    """Digest of what a run simulated: equal digests, equal behaviour."""
    document = {"sim": sim, "counts": counts, "final_objects": final_objects}
    canonical = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@contextmanager
def _store_dir(spec: WorkloadSpec, work_dir: str) -> Iterator[Optional[str]]:
    """A fresh checkpoint-store directory for a durable workload, else None."""
    path = tempfile.mkdtemp(prefix="store-", dir=work_dir) if spec.durable else None
    try:
        yield path
    finally:
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)


def run_once(spec: WorkloadSpec, seed: int, work_dir: str,
             probe: AcquireWaitProbe, clock: HostClock) -> RunOutcome:
    """Build, run and check one cluster, timed by ``clock``.  Never raises
    for a failed run."""
    outcome = RunOutcome()
    # Frozen, what earlier runs and the harness left is not rescanned by
    # the run's collections, so runs do not depend on their order.
    gc.collect()
    gc.freeze()
    with _store_dir(spec, work_dir) as store_dir:
        try:
            system, workload = build(spec, seed, store_dir)
            probe.reset()
            gc.collect()
            clock.start()
            result = system.run()
            outcome.run_s, outcome.raw_run_s = clock.stop()
            outcome.problems = _gate(spec, system, workload, result, store_dir)
            outcome.sim, outcome.counts, outcome.acquires = _observe(
                system, result, probe.waits)
            outcome.digest = fingerprint(outcome.sim, outcome.counts,
                                         result.final_objects)
        except Exception as exc:  # the harness counts a run that raised
            outcome.problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            gc.unfreeze()
    return outcome


def sample_setup(spec: WorkloadSpec, seeds: list[int], work_dir: str,
                 first: int) -> Optional[tuple[float, float]]:
    """Seconds of one set-up, corrected for host speed and as measured,
    averaged over back-to-back builds whose measured total reaches
    :data:`SETUP_SAMPLE_S` (at least one build), cycling through ``seeds``
    from index ``first``; None if building raised (the runs will report it).

    Only the build is timed; each cluster is dropped after its clock stops.
    Each build is one :class:`HostClock` segment.  Objects alive before the
    sample are frozen, so collections the builds trigger scan the builds'
    own objects, not what earlier runs left.
    """
    gc.collect()
    gc.freeze()
    clock = HostClock()  # not entered: one segment per build
    corrected, total, builds = 0.0, 0.0, 0
    try:
        while builds == 0 or total < SETUP_SAMPLE_S:
            with _store_dir(spec, work_dir) as store_dir:
                seed = seeds[(first + builds) % len(seeds)]
                clock.start()
                cluster = build(spec, seed, store_dir)
                build_s, raw_s = clock.stop()
                corrected += build_s
                total += raw_s
                del cluster
            builds += 1
    except Exception:  # the same build fails again, counted, in run_once
        return None
    finally:
        gc.unfreeze()
    return corrected / builds, total / builds


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
def cluster_seeds(seed: int) -> list[int]:
    """The cluster seeds one ``--seed`` stands for (see :data:`INPUTS`)."""
    return [seed * INPUTS + k for k in range(INPUTS)]


@dataclass
class Measurement:
    """What one benchmark invocation prints."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Fingerprints seen per cluster seed; one each when runs agree.
    digests: dict[int, set[str]] = field(default_factory=dict)
    metrics: dict[str, Optional[float]] = field(default_factory=dict)
    #: Extra human-readable lines (span summary).
    notes: list[str] = field(default_factory=list)

    def count(self, cluster_seed: int, outcome: RunOutcome, label: str) -> None:
        self.attempted += 1
        if outcome.digest is not None:
            self.digests.setdefault(cluster_seed, set()).add(outcome.digest)
        if not outcome.ok:
            self.failed += 1
            self.problems.extend(f"{label} (cluster seed {cluster_seed}): {p}"
                                 for p in outcome.problems)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def agreed(self) -> bool:
        return all(len(seen) == 1 for seen in self.digests.values())

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.agreed

    def fingerprints(self) -> str:
        return " ".join(f"{cs}:{','.join(sorted(seen))}"
                        for cs, seen in sorted(self.digests.items())) or "none"

    def finish(self) -> None:
        if not self.agreed:
            self.problems.append("runs of one cluster seed simulated different "
                                 f"behaviour: {self.fingerprints()}")


def _warm_up(spec: WorkloadSpec, work_dir: str, probe: AcquireWaitProbe,
             clock: HostClock) -> None:
    """One tiny run of the same shape, not reported: imports and lazy set-up."""
    tiny = spec.scaled(rounds=2, processes=4, crashes=(),
                       params={**spec.params, "objects": 4})
    run_once(tiny, 0, work_dir, probe, clock)


def _run_until(spec: WorkloadSpec, seeds: list[int], work_dir: str,
               probe: AcquireWaitProbe, clock: HostClock,
               measurement: Measurement, budget_end: float,
               runs: list[tuple[int, RunOutcome]], at_least: int,
               reserve: float = 1.0,
               between: Callable[[], None] = lambda: None) -> None:
    """Append untraced runs to ``runs``, cycling through ``seeds``:
    ``at_least`` of them, then more while ``reserve`` times the last run's
    duration still fits before ``budget_end``.  ``between`` follows every
    run."""
    while True:
        cluster_seed = seeds[len(runs) % len(seeds)]
        started = perf_counter()
        outcome = run_once(spec, cluster_seed, work_dir, probe, clock)
        measurement.count(cluster_seed, outcome, f"run {len(runs) + 1}")
        runs.append((cluster_seed, outcome))
        last = perf_counter() - started
        between()
        if len(runs) >= at_least and perf_counter() + reserve * last > budget_end:
            return


def _median(values: list[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def _format(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def measure_end_to_end(spec: WorkloadSpec, seed: int, seconds: float,
                       work_dir: str) -> Measurement:
    """Every end-to-end metric, from runs filling ``seconds``: ``run_s`` is
    the mean over the seed's clusters of each one's median run,
    ``acquires_per_s`` their acquires over their summed ``run_s``,
    ``setup_s`` the median set-up sample, ``sim_`` metrics means over the
    clusters.  Host timings are corrected for host speed
    (:class:`HostClock`).  ``peak_rss_mb`` is read when
    the first run ends, so it is the peak of an interpreter that has run
    the workload once (after a tiny warm-up run)."""
    measurement = Measurement(spec.name, seed)
    budget_end = perf_counter() + seconds
    seeds = cluster_seeds(seed)
    set_fast_mode(True)
    runs: list[tuple[int, RunOutcome]] = []
    setups: list[tuple[float, float]] = []

    def setup_burst() -> None:
        burst_end = perf_counter() + SETUP_BURST_S
        while True:
            sample = sample_setup(spec, seeds, work_dir, first=len(setups))
            if sample is not None:
                setups.append(sample)
            if perf_counter() >= burst_end:
                return

    with AcquireWaitProbe() as probe, HostClock() as clock:
        _warm_up(spec, work_dir, probe, clock)
        setup_burst()
        first = run_once(spec, seeds[0], work_dir, probe, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measurement.count(seeds[0], first, "run 1")
        runs.append((seeds[0], first))
        setup_burst()
        # Every cluster, and the first one twice, so that the fingerprint
        # check always has a repeat.
        _run_until(spec, seeds, work_dir, probe, clock, measurement, budget_end,
                   runs, at_least=len(seeds) + 1, between=setup_burst)
    measurement.finish()
    by_seed = {cs: o for cs, o in runs if o.ok}  # a cluster's good runs agree

    def per_cluster(seconds: Callable[[RunOutcome], Optional[float]]) -> list[float]:
        """Each cluster's median over its good runs."""
        return [statistics.median(seconds(o) for c, o in runs if c == cs and o.ok)
                for cs in by_seed]

    run_s, raw_run_s = per_cluster(lambda o: o.run_s), per_cluster(lambda o: o.raw_run_s)
    metrics: dict[str, Optional[float]] = {
        "setup_s": _median([corrected for corrected, _ in setups]),
        "run_s": statistics.fmean(run_s) if run_s else None,
        "acquires_per_s": (sum(o.acquires for o in by_seed.values()) / sum(run_s)
                           if run_s else None),
        "peak_rss_mb": peak_rss_mb if first.ok else None,
    }
    measurement.notes.append(
        "host timings as measured (not corrected for host speed): setup_s "
        f"{_format(_median([raw for _, raw in setups]))} s, run_s "
        f"{_format(statistics.fmean(raw_run_s) if raw_run_s else None)} s; "
        f"host slowdown median {_format(_median(clock.slowdowns))} over "
        f"{len(clock.slowdowns)} segments of the runs "
        f"(reference loop {REFERENCE_S:g} s)")
    for name in END_TO_END:
        if name.startswith("sim_"):
            metrics[name] = (statistics.fmean(by_seed[cs].sim[name] for cs in seeds)
                             if len(by_seed) == len(seeds) else None)
    measurement.metrics = metrics
    return measurement


def measure_layers(spec: WorkloadSpec, seed: int, seconds: float, work_dir: str,
                   spans_out: Optional[str] = None) -> Measurement:
    """Every per-layer metric, for the seed's first cluster: untraced runs
    give the counts and the baseline ``run_s``, then one run under the
    span tracer gives the host times."""
    measurement = Measurement(spec.name, seed)
    budget_end = perf_counter() + seconds
    cluster_seed = cluster_seeds(seed)[0]
    set_fast_mode(True)
    # Not entered: no segments inside a run, so spans hold none of the
    # reference loop.  Traced and untraced runs compare as measured.
    clock = HostClock()
    with AcquireWaitProbe() as probe:
        _warm_up(spec, work_dir, probe, clock)
        # Repeats of one cluster; keep room for the slower traced run.
        runs: list[tuple[int, RunOutcome]] = []
        _run_until(spec, [cluster_seed], work_dir, probe, clock, measurement,
                   budget_end, runs, at_least=2, reserve=4.0)
        tracer = SpanTracer()
        with tracer:
            traced = run_once(spec, cluster_seed, work_dir, probe, clock)
        measurement.count(cluster_seed, traced, "traced run")
    measurement.finish()
    summary = tracer.summary()
    if spans_out:
        tracer.write_chrome_trace(spans_out)
    good = [outcome for _, outcome in runs if outcome.ok]
    untraced_run_s = _median([o.raw_run_s for o in good])
    metrics: dict[str, Optional[float]] = {
        **{f"{layer}.self_s": t for layer, t in summary["layer_self_s"].items()},
        **summary["group_s"],
        **summary["counters"],
        "trace_overhead_frac": (traced.raw_run_s / untraced_run_s - 1.0
                                if traced.ok and traced.raw_run_s and untraced_run_s
                                else None),
    }
    if good:
        metrics.update(good[0].counts)
    measurement.metrics = {name: metrics.get(name) for name in PER_LAYER}
    total = summary["total_s"] or 1.0
    measurement.notes.append(
        f"traced run: {summary['spans']} spans, {summary['total_s']:.4f} s in "
        "root spans; share of self time: " + ", ".join(
            f"{layer} {t / total:.1%}" for layer, t in summary["layer_self_s"].items()))
    for target, row in sorted(summary["entry_points"].items(),
                              key=lambda item: -item[1]["self_s"]):
        if row["calls"]:
            measurement.notes.append(
                f"  {target:<68} {row['calls']:>8} calls {row['time_s']:9.4f} s "
                f"self {row['self_s']:9.4f} s")
    return measurement


def make_work_dir() -> str:
    """A fresh scratch directory inside the checkout (durable stores)."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=parent)


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(Path(path).parent)
    except OSError:
        pass  # another run still uses it
