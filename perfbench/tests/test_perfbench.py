"""Tests of the benchmark itself, each at a tiny cluster size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run  # noqa: E402
from perfbench.spans import ENTRY_POINTS, SpanTracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def tiny(name: str, **changes):
    """The workload's shape on 4 processes and a few rounds, no crashes
    unless given."""
    spec = WORKLOADS[name]
    changes.setdefault("crashes", ())
    return spec.scaled(rounds=6, processes=4,
                       params={**spec.params, "objects": 4}, **changes)


@pytest.fixture
def work_dir():
    path = harness.make_work_dir()
    yield path
    harness.remove_work_dir(path)


def test_every_metric_is_printed_with_its_unit(work_dir, capsys):
    # Staggered like the full workload's crashes; closer ones on 4
    # processes trip known recovery defects (see the xfail below).
    spec = tiny("durable_crash_p16", crashes=((1, 15.0), (3, 60.0)))
    for measure, table in ((harness.measure_end_to_end, harness.END_TO_END),
                           (harness.measure_layers, harness.PER_LAYER)):
        units = {name: unit for name, (unit, _) in table.items()}
        measurement = measure(spec, 1, 0, work_dir)
        result = run.report(measurement, units)
        lines = capsys.readouterr().out.splitlines()
        assert result["correct"], measurement.problems
        assert set(result["metrics"]) == set(units)
        for name, unit in units.items():
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float)), name
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in lines), name


def test_fingerprint_repeats_and_follows_the_seed(work_dir):
    spec = tiny("checked_p16")
    first = harness.measure_end_to_end(spec, 3, 0, work_dir)
    again = harness.measure_end_to_end(spec, 3, 0, work_dir)
    other = harness.measure_end_to_end(spec, 4, 0, work_dir)
    assert first.correct and again.correct and other.correct
    assert first.fingerprints() == again.fingerprints()
    assert first.metrics["sim_time"] == again.metrics["sim_time"]
    assert {d for s in first.digests.values() for d in s}.isdisjoint(
        {d for s in other.digests.values() for d in s})


def test_traced_run_simulates_what_the_untraced_run_does(work_dir):
    spec = tiny("scale_p256")
    spans_out = Path(work_dir) / "spans.json"
    measurement = harness.measure_layers(spec, 2, 0, work_dir, str(spans_out))
    assert measurement.correct, measurement.problems
    (digests,) = measurement.digests.values()
    assert len(digests) == 1
    assert measurement.metrics["memory.snapshot_objects"] > 0
    assert measurement.metrics["verify.self_s"] == 0.0
    events = json.loads(spans_out.read_text())["traceEvents"]
    assert {event["cat"] for event in events} >= {"sim", "memory", "checkpoint"}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "program defect: two crashes 15 ms apart on 4 processes abort some "
    "clusters ('dependency on version ... beyond recoverable prefix') and "
    "leave their recoveries unfinished"))
def test_close_crashes_on_a_tiny_cluster_pass_the_gate(work_dir):
    spec = tiny("durable_crash_p16", crashes=((1, 5.0), (3, 20.0)))
    measurement = harness.measure_end_to_end(spec, 1, 0, work_dir)
    assert measurement.correct, measurement.problems


def test_a_failed_run_is_counted_not_fatal(work_dir, capsys):
    spec = tiny("long_read_p16", crashes=((1, 2.0),), spare_nodes=0)
    measurement = harness.measure_end_to_end(spec, 1, 0, work_dir)
    assert measurement.failed == measurement.attempted > 0
    assert measurement.fail_frac == 1.0
    assert not measurement.correct
    assert any("RecoveryError" in problem for problem in measurement.problems)
    result = run.report(measurement, {"run_s": "s"})
    assert result["correct"] is False
    assert "FAILED" in capsys.readouterr().out


def test_host_clock_does_not_change_the_simulation(work_dir):
    # End-to-end runs go through the clock's tick wrappers, per-layer
    # runs do not; the seed's first cluster must simulate the same.
    spec = tiny("long_read_p16")
    timed = harness.measure_end_to_end(spec, 5, 0, work_dir)
    plain = harness.measure_layers(spec, 5, 0, work_dir)
    first = harness.cluster_seeds(5)[0]
    assert timed.correct and plain.correct
    assert timed.digests[first] == plain.digests[first]
    assert timed.metrics["run_s"] > 0


def test_host_clock_puts_its_tick_points_back():
    originals = [owner.__dict__[attr] for owner, attr in harness.TICK_POINTS]
    with harness.HostClock() as clock:
        assert all(owner.__dict__[attr] is not original for (owner, attr), original
                   in zip(harness.TICK_POINTS, originals))
        clock.start()
        corrected, raw = clock.stop()
    assert corrected > 0 and raw > 0 and clock.slowdowns
    assert [owner.__dict__[attr] for owner, attr in harness.TICK_POINTS] == originals


def test_span_tracer_puts_every_entry_point_back():
    before = [entry.resolve() for entry in ENTRY_POINTS]
    originals = [owner.__dict__.get(attr) if isinstance(owner, type)
                 else getattr(owner, attr) for owner, attr in before]
    with SpanTracer():
        pass
    after = [owner.__dict__.get(attr) if isinstance(owner, type)
             else getattr(owner, attr) for owner, attr in before]
    assert after == originals


def test_benchmark_json_matches_the_harness():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: spec.why for name, spec in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} \
        == harness.PER_LAYER


def test_refuses_to_run_without_the_program(work_dir):
    bare = Path(work_dir)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checked_p16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
