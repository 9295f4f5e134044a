"""Run one benchmark workload, or all of them.

    python3 perfbench/run.py --workload scale_p256 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --all

One workload: prints its metrics, one per line with units, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Exits 1 when a run fails the correctness gate or runs of the seed
disagree, 2 when the program cannot be imported.  ``--all`` runs every
workload in both modes, each in a fresh interpreter, and exits 1 if any
of them did.  Run from the root of a checkout; nothing is built.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write(f"perfbench: no program source at {ROOT / 'src' / 'repro'}\n")
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _format(value: object) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(measurement: harness.Measurement, units: dict[str, str]) -> dict:
    """Print the human-readable lines; return the result object."""
    print(f"# workload {measurement.workload} seed {measurement.seed}: "
          f"{measurement.attempted} runs, {measurement.failed} failed, "
          f"fail_frac {measurement.fail_frac:.4g}, "
          f"fingerprints {measurement.fingerprints()}")
    for name, unit in units.items():
        print(f"{name:<28} {_format(measurement.metrics.get(name)):>14} {unit}")
    for line in measurement.notes:
        print(f"# {line}")
    for problem in measurement.problems:
        print(f"# FAILED {problem}")
    return {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": measurement.metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, both modes, each in its own interpreter."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=False)
            status = status or (1 if child.returncode else 0)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, end-to-end and per-layer")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", metavar="PATH",
                        help="with --trace 1: write the spans as Chrome "
                             "trace-event JSON")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    spec = WORKLOADS[args.workload]
    work_dir = harness.make_work_dir()
    try:
        if args.trace:
            measurement = harness.measure_layers(spec, args.seed, args.seconds,
                                                 work_dir, args.spans_out)
        else:
            measurement = harness.measure_end_to_end(spec, args.seed, args.seconds,
                                                     work_dir)
    finally:
        harness.remove_work_dir(work_dir)
    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    result = report(measurement, {name: unit for name, (unit, _) in table.items()})
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
