"""Span tracing of the simulator's layers, installed from outside the program.

:class:`SpanTracer` wraps public layer entry points before a system is
built and records one span per call: entry point, parent span, start and
end.  Spans stay in memory (flat arrays) until the run ends; then
:meth:`SpanTracer.summary` computes each layer's self time -- a span's
duration minus the part its child spans cover -- and each entry point's
call count and time.

Methods are wrapped on their class, so every instance built afterwards,
including recovery hosts created mid-run, goes through the wrapper.  The
sizing functions are module-level, and their callers bound them by
``from ... import``; those are wrapped in each calling module, because
patching ``repro.net.sizing`` itself would not reach them.
"""

from __future__ import annotations

import importlib
import json
from array import array
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Optional

#: The layers self time is attributed to: the ``repro`` packages, with
#: ``checkpoint/recovery.py`` and ``checkpoint/replay.py`` split out as
#: ``recovery`` and the stable store's backend calls as ``storage``.
LAYERS = ("sim", "threads", "cluster", "memory", "net", "checkpoint",
          "storage", "recovery", "verify")

_INVARIANT_CALLBACKS = (
    "on_log_append", "on_log_remove", "on_restore", "on_dummy_created",
    "on_ckp_set", "on_gc_pair_drop", "on_gc_dummy_drop", "on_gc_dep_drop",
    "check_recovery_shadow", "check_read_copy_coherence",
    "check_dummy_coverage",
)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module:Class.method`` or ``module:function``.

    ``group`` names the per-layer timing metric the entry point's
    inclusive time feeds (calls nested in the same group count once).
    """

    layer: str
    target: str
    group: Optional[str] = None

    def resolve(self) -> tuple[Any, str]:
        """The object holding the attribute, and the attribute name."""
        module_name, _, path = self.target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr


def _methods(layer: str, target: str, names: tuple[str, ...],
             group: Optional[str] = None) -> list[EntryPoint]:
    return [EntryPoint(layer, f"{target}.{name}", group) for name in names]


ENTRY_POINTS: tuple[EntryPoint, ...] = tuple(
    [EntryPoint("cluster", "repro.cluster.system:DisomSystem.run")]
    + [EntryPoint("sim", "repro.sim.kernel:Kernel.run")]
    + [EntryPoint("threads", "repro.threads.thread:Thread.resume")]
    + _methods("cluster", "repro.cluster.process:DisomProcess",
               ("deliver", "handle_acquire", "handle_release"))
    + _methods("memory", "repro.memory.coherence:EntryConsistencyEngine",
               ("handle_acquire", "handle_release", "on_message"))
    + [EntryPoint("memory", "repro.memory.objects:ObjectDirectory.snapshot",
                  "memory.snapshot_s")]
    + [EntryPoint("net", "repro.net.network:Network.send"),
       EntryPoint("net", "repro.net.message:Message.payload_bytes")]
    + [EntryPoint("net", f"{module}:{function}", "net.sizing_s")
       for module, function in (
           ("repro.net.message", "payload_size"),
           ("repro.checkpoint.stable", "payload_size"),
           ("repro.checkpoint.stable", "blob_size"),
           ("repro.checkpoint.log", "payload_size"),
           ("repro.memory.objects", "payload_size"),
       )]
    + [EntryPoint("checkpoint",
                  "repro.checkpoint.protocol:DisomCheckpointProtocol."
                  "take_checkpoint", "checkpoint.take_s")]
    + _methods("checkpoint",
               "repro.checkpoint.protocol:DisomCheckpointProtocol",
               ("collect_piggyback", "on_piggyback", "apply_gc"))
    + [EntryPoint("checkpoint", "repro.checkpoint.stable:Checkpoint.compute_size",
                  "checkpoint.compute_size_s")]
    + _methods("storage", "repro.checkpoint.stable:StableStore",
               ("begin_save", "commit"), "storage.write_s")
    + _methods("storage", "repro.checkpoint.stable:StableStore", ("load",),
               "storage.read_s")
    + _methods("recovery", "repro.checkpoint.recovery:RecoveryManager",
               ("start", "on_reply"))
    + [EntryPoint("recovery", "repro.checkpoint.replay:LogReplayer.handle_acquire")]
    + [EntryPoint("verify", "repro.verify.races:RaceDetector.feed_record")]
    + _methods("verify", "repro.verify.invariants:InvariantChecker",
               _INVARIANT_CALLBACKS)
)

#: Calls counted without a span: (counter name, target, tally).  The
#: tally maps (arguments, result) to the amount added.
COUNTED: tuple[tuple[str, str, Callable[[tuple, Any], int]], ...] = (
    ("cluster.declare_calls",
     "repro.cluster.process:DisomProcess.declare_object",
     lambda args, result: 1),
    ("memory.snapshot_objects",
     "repro.memory.objects:ObjectDirectory.snapshot",
     lambda args, result: len(result)),
    ("checkpoint.image_bytes",
     "repro.checkpoint.protocol:DisomCheckpointProtocol.take_checkpoint",
     lambda args, result: result.full_size),
)


class SpanTracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.entry_points = ENTRY_POINTS
        self.counters: dict[str, int] = {name: 0 for name, _, _ in COUNTED}
        # One row per span, in start order: entry-point index, parent row
        # (-1 for a root), start and end in perf_counter seconds.
        self._entry = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` puts them back."""
        if self._saved:
            raise RuntimeError("span tracer already installed")
        try:
            for name, target, tally in COUNTED:
                self._patch(EntryPoint("", target), self._count_wrapper(name, tally))
            for index, entry in enumerate(self.entry_points):
                self._patch(entry, lambda fn, index=index: self._span_wrapper(index, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)  # the wrapper shadowed an inherited method
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _patch(self, entry: EntryPoint, make: Callable[[Any], Any]) -> None:
        owner, attr = entry.resolve()
        current = getattr(owner, attr)
        own = owner.__dict__.get(attr) if isinstance(owner, type) else current
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(current))

    def _span_wrapper(self, index: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        entries, parents, starts, ends = self._entry, self._parent, self._start, self._end
        stack = self._stack

        @wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            row = len(starts)
            entries.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(row)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[row] = perf_counter()
                stack.pop()

        return span

    def _count_wrapper(self, name: str,
                       tally: Callable[[tuple, Any], int]) -> Callable[[Any], Any]:
        counters = self.counters

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                counters[name] += tally(args, result)
                return result

            return counted

        return make

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Self time per layer, time per group and per entry point.

        ``total_s`` is the summed duration of root spans, so the layer
        self times add up to it.
        """
        entries, parents, starts, ends = self._entry, self._parent, self._start, self._end
        n = len(starts)
        layer_of = [LAYERS.index(entry.layer) for entry in self.entry_points]
        groups = sorted({e.group for e in self.entry_points if e.group})
        group_bit = [1 << groups.index(e.group) if e.group else 0
                     for e in self.entry_points]
        durations = [ends[i] - starts[i] for i in range(n)]
        child_time = [0.0] * n
        # Bit g is set in masks[i] when a strict ancestor of span i is in
        # group g; parents precede their children, so one pass suffices.
        masks = [0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
                masks[i] = masks[parent] | group_bit[entries[parent]]
        layer_self = [0.0] * len(LAYERS)
        group_time = [0.0] * len(groups)
        calls = [0] * len(self.entry_points)
        entry_time = [0.0] * len(self.entry_points)
        entry_self = [0.0] * len(self.entry_points)
        total = 0.0
        for i in range(n):
            index = entries[i]
            own = durations[i] - child_time[i]
            layer_self[layer_of[index]] += own
            calls[index] += 1
            entry_time[index] += durations[i]
            entry_self[index] += own
            bit = group_bit[index]
            if bit and not masks[i] & bit:
                group_time[bit.bit_length() - 1] += durations[i]
            if parents[i] < 0:
                total += durations[i]
        return {
            "total_s": total,
            "spans": n,
            "layer_self_s": dict(zip(LAYERS, layer_self)),
            "group_s": dict(zip(groups, group_time)),
            "entry_points": {
                entry.target: {"layer": entry.layer, "calls": calls[k],
                               "time_s": entry_time[k], "self_s": entry_self[k]}
                for k, entry in enumerate(self.entry_points)
            },
            "counters": dict(self.counters),
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON (viewable in Perfetto)."""
        origin = self._start[0] if self._start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"traceEvents":[\n')
            for i in range(len(self._start)):
                entry = self.entry_points[self._entry[i]]
                event = {
                    "name": entry.target.partition(":")[2], "cat": entry.layer,
                    "ph": "X", "pid": 0, "tid": 0,
                    "ts": (self._start[i] - origin) * 1e6,
                    "dur": (self._end[i] - self._start[i]) * 1e6,
                    "args": {"id": i, "parent": self._parent[i]},
                }
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write("]}\n")
